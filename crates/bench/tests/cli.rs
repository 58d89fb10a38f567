//! Command-line contract of the harness binaries: malformed arguments are a
//! usage error (exit 2, usage line on stderr, no panic) caught before any
//! run starts, and `--help` prints the usage line and exits 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

#[test]
fn malformed_arguments_exit_2_with_usage() {
    let table2 = env!("CARGO_BIN_EXE_table2");
    let cases: [(&str, &[&str]); 12] = [
        (table2, &["--nodes", "0"]),
        (table2, &["--nodes"]),
        (table2, &["--scale", "-1"]),
        (table2, &["--scale", "nan"]),
        (table2, &["--protocols", "XYZ"]),
        (table2, &["--apps", "nosuch"]),
        (env!("CARGO_BIN_EXE_chaos"), &["--seed", "x"]),
        (env!("CARGO_BIN_EXE_explore"), &["--fsat"]),
        // Flags a binary does not honour are rejected, not ignored.
        (env!("CARGO_BIN_EXE_table3"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fig12_trace"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_table4"), &["--protocols", "OLRC"]),
        (env!("CARGO_BIN_EXE_sor48"), &["--apps", "lu"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = run(env!("CARGO_BIN_EXE_table2"), &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        stdout.starts_with("usage: table2 [--scale X | --paper]"),
        "{stdout}"
    );
}
