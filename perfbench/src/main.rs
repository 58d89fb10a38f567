//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <water64|apps8_checked|serve_zipf|explore_gate> \
//!     --seed <n> --seconds <n> --trace <0|1> [--record-fingerprints]
//! ```
//!
//! Prints a report, then the result object as the last line of standard
//! output. A traced run also writes its spans to
//! `.bench_out/spans-<workload>-seed<n>.json` under the working directory.

use std::process::ExitCode;

use perfbench::workloads::{Size, Workload};
use perfbench::Opts;

#[global_allocator]
static ALLOC: svm_testkit::alloc::CountingAlloc = svm_testkit::alloc::CountingAlloc::new();

const USAGE: &str = "usage: perfbench --workload <water64|apps8_checked|serve_zipf|explore_gate> \
                     --seed <n> --seconds <n> --trace <0|1> [--record-fingerprints]";

fn parse(args: &[String]) -> Result<(Opts, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, not {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--record-fingerprints" => record = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let opts = Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        host: perfbench::host::Host::unpinned(),
    };
    Ok((opts, record))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut opts, record) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    opts.host = perfbench::host::Host::pinned();
    let out = perfbench::run(&opts);
    for l in &out.lines {
        println!("{l}");
    }
    if let Some(spans) = &out.spans_json {
        let path = format!(
            ".bench_out/spans-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        );
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    if record {
        if let Err(e) = perfbench::fingerprint::record(&out.fingerprints) {
            eprintln!("perfbench: could not record fingerprints: {e}");
            return ExitCode::FAILURE;
        }
        println!("recorded {} fingerprints", out.fingerprints.len());
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
