//! Stdout pin of the report binaries: every table and figure binary, plus
//! the chaos, crash and check matrices, must keep printing exactly the
//! bytes committed in `results/report_pin.txt`.
//!
//! The pin file is one section per command: a `==== <bin> <args>` line,
//! then that command's stdout verbatim. Commands run on a few threads at a
//! time; each must exit 0 and match its section byte for byte.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const PINNED: &str = include_str!("../../../results/report_pin.txt");

/// Concurrent child processes.
const THREADS: usize = 3;

/// `(binary path, binary name, arguments)` of every pinned command, in pin
/// file order.
fn commands() -> Vec<(&'static str, &'static str, Vec<&'static str>)> {
    let sweep = vec!["--scale", "0.02", "--nodes", "4"];
    vec![
        (
            env!("CARGO_BIN_EXE_table1"),
            "table1",
            vec!["--scale", "0.02"],
        ),
        (env!("CARGO_BIN_EXE_table2"), "table2", sweep.clone()),
        (env!("CARGO_BIN_EXE_table3"), "table3", vec![]),
        (env!("CARGO_BIN_EXE_table4"), "table4", sweep.clone()),
        (env!("CARGO_BIN_EXE_table5"), "table5", sweep.clone()),
        (env!("CARGO_BIN_EXE_table6"), "table6", sweep.clone()),
        (env!("CARGO_BIN_EXE_fig3"), "fig3", sweep.clone()),
        (env!("CARGO_BIN_EXE_fig4"), "fig4", sweep.clone()),
        (env!("CARGO_BIN_EXE_sor48"), "sor48", sweep.clone()),
        (
            env!("CARGO_BIN_EXE_sensitivity"),
            "sensitivity",
            sweep.clone(),
        ),
        (env!("CARGO_BIN_EXE_aurc"), "aurc", sweep.clone()),
        (
            env!("CARGO_BIN_EXE_chaos"),
            "chaos",
            vec!["--scale", "0.02", "--nodes", "4", "--drop", "0.01"],
        ),
        (
            env!("CARGO_BIN_EXE_crash"),
            "crash",
            vec!["--scale", "0.03", "--nodes", "4", "--seeds", "1"],
        ),
        (env!("CARGO_BIN_EXE_check"), "check", vec!["--fast"]),
    ]
}

/// The pin file split into `(command line, stdout)` sections.
fn sections() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&str, String)> = Vec::new();
    for line in PINNED.split_inclusive('\n') {
        match line.strip_prefix("==== ") {
            Some(cmd) => out.push((cmd.trim_end(), String::new())),
            None => out.last_mut().expect("pin starts with a header").1 += line,
        }
    }
    out
}

#[test]
fn report_binaries_print_the_pinned_stdout() {
    let cmds = commands();
    let pinned = sections();
    let lines: Vec<String> = cmds
        .iter()
        .map(|(_, name, args)| {
            [*name]
                .iter()
                .chain(args)
                .cloned()
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    assert_eq!(
        pinned.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
        lines,
        "pin file commands"
    );

    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((bin, _, args)) = cmds.get(i) else {
                    break;
                };
                let out = Command::new(bin)
                    .args(args)
                    .output()
                    .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
                let stdout = String::from_utf8_lossy(&out.stdout);
                if !out.status.success() || stdout != pinned[i].1 {
                    failures.lock().unwrap().push(format!(
                        "`{}` (exit {:?}) printed:\n{stdout}\nwanted:\n{}",
                        lines[i], out.status, pinned[i].1
                    ));
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
