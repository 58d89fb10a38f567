//! Consistency check matrix: record every workload under every protocol
//! and replay the trace through `svm-checker`.
//!
//! Three sections:
//!
//! 1. **Application matrix** — the five paper workloads x all four
//!    protocols, recorded and checked for coherence (no write-write races,
//!    no read-legality violations; SOR's benign halo races are counted but
//!    allowed).
//! 2. **Faulted runs** — SOR under every protocol on a chaos network
//!    (seeded drop/duplicate/delay): the reliable-delivery layer must make
//!    the consistency guarantee hold verbatim under faults.
//! 3. **Mutation self-tests** — seeded protocol bugs (skipped diff
//!    application, dropped write notices, an ungated home reply, stripped
//!    lock-grant records) that the checker must catch with a
//!    counterexample, proving the oracle has teeth.
//!
//! Usage: `check [--scale X] [--nodes N] [--seed S] [--fast]`
//! (defaults: scale 0.02, 8 nodes, seed 1; `--fast` runs a reduced matrix
//! for `scripts/verify.sh`; bad input exits 2 with this usage line).

use svm_apps::{paper_suite, sor::Sor, AppRun, Benchmark};
use svm_bench::{cli, Record, Sweep, Table, Variant};
use svm_checker::selftest::{run_selftests, SelfTestOutcome};
use svm_checker::{check_trace, CheckReport};
use svm_core::{FaultProfile, ProtocolName, SvmConfig, TraceConfig};

struct Opts {
    scale: f64,
    nodes: usize,
    seed: u64,
    fast: bool,
}

fn parse_args() -> Opts {
    let mut o = Opts {
        scale: 0.02,
        nodes: 8,
        seed: 1,
        fast: false,
    };
    let mut args = cli::Args::new("[--scale X] [--nodes N] [--seed S] [--fast]");
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => o.scale = args.scale(),
            "--nodes" => o.nodes = args.nodes(),
            "--seed" => o.seed = args.value(),
            "--fast" => o.fast = true,
            _ => args.unknown(),
        }
    }
    o
}

/// The paper suite with SOR and LU first; `fast` keeps only those two.
fn suite(scale: f64, fast: bool) -> Vec<Box<dyn Benchmark>> {
    let mut s = paper_suite(scale);
    s.swap(0, 1);
    s.truncate(if fast { 2 } else { s.len() });
    s
}

/// The config tweak that records every shared access for the checker.
fn recording(cfg: &mut SvmConfig) {
    cfg.trace = TraceConfig::recording();
}

/// A checked trace's report and size.
type Checked = (CheckReport, usize);

/// Check a recorded run's trace.
fn check(run: &AppRun) -> Checked {
    let trace = run
        .report
        .trace
        .as_ref()
        .expect("recording was enabled for this run");
    (check_trace(trace), trace.approx_bytes())
}

/// The verdict column: `ok` or `bad` by `pass`.
fn verdict(pass: bool, ok: &str, bad: &str) -> String {
    if pass { ok } else { bad }.into()
}

fn main() {
    let opts = parse_args();
    let mut failures = 0usize;

    println!(
        "\nConsistency check matrix (scale {}, {} nodes, seed {}{})\n",
        opts.scale,
        opts.nodes,
        opts.seed,
        if opts.fast { ", fast" } else { "" }
    );

    // 1. Application matrix: zero faults. Each trace is checked on the
    // worker that recorded it, so at most one per worker is alive.
    let records = Sweep::new(
        suite(opts.scale, opts.fast),
        vec![opts.nodes],
        ProtocolName::ALL.map(|p| Variant::with(p, recording)),
    )
    .run_map(|_, _, run| check(&run));
    for r in &records {
        if !r.run.0.coherent() {
            failures += 1;
            for v in &r.run.0.violations {
                println!("  {} / {}: {v}", r.app, r.protocol.label());
            }
        }
    }
    Table::new()
        .col("Application", |r: &Record<Checked>| r.app.into())
        .col("Protocol", |r| r.protocol.label().into())
        .col("episodes", |r| r.run.0.episodes.to_string())
        .col("reads", |r| r.run.0.reads.to_string())
        .col("writes", |r| r.run.0.writes.to_string())
        .col("racy", |r| r.run.0.racy_reads.to_string())
        .col("ww", |r| r.run.0.ww_races.to_string())
        .col("viol", |r| r.run.0.violations_total.to_string())
        .col("trace", |r| format!("{}K", r.run.1 / 1024))
        .col("verdict", |r| verdict(r.run.0.coherent(), "pass", "FAIL"))
        .print(&records);

    // 2. Faulted runs: SOR under chaos faults, every protocol.
    println!("\nFaulted runs (SOR, chaos profile, drop rate 0.002, 4 nodes):\n");
    let seed = opts.seed;
    let faulted = Sweep::new(
        vec![Box::new(Sor::scaled(opts.scale))],
        vec![4],
        ProtocolName::ALL.map(|p| {
            Variant::with(p, move |cfg| {
                cfg.fault = FaultProfile::chaos(seed, 0.002);
                recording(cfg);
            })
        }),
    )
    .run_map(|_, _, run| {
        let (r, _) = check(&run);
        let pass = r.coherent() && run.report.errors.is_empty();
        let retx = run.report.counters.total(|c| c.retransmissions);
        (pass, retx, r)
    });
    for r in &faulted {
        if !r.run.0 {
            failures += 1;
            for v in &r.run.2.violations {
                println!("  SOR / {}: {v}", r.protocol.label());
            }
        }
    }
    Table::new()
        .col("Protocol", |r: &Record<(bool, u64, CheckReport)>| {
            r.protocol.label().into()
        })
        .col("retx", |r| r.run.1.to_string())
        .col("racy", |r| r.run.2.racy_reads.to_string())
        .col("ww", |r| r.run.2.ww_races.to_string())
        .col("viol", |r| r.run.2.violations_total.to_string())
        .col("verdict", |r| verdict(r.run.0, "pass", "FAIL"))
        .print(&faulted);

    // 3. Mutation self-tests: the checker must catch every seeded bug.
    println!("\nMutation self-tests (seeded protocol bugs, checker as oracle):\n");
    let outcomes = run_selftests();
    for o in &outcomes {
        if !o.detected() {
            failures += 1;
        }
        for v in o.mutated.violations.iter().take(1) {
            println!("  {}: {v}", o.name);
        }
    }
    Table::new()
        .col("Mutation", |o: &SelfTestOutcome| o.name.into())
        .col("Protocol", |o| o.protocol.label().into())
        .col("hits", |o| o.mutated_hits.to_string())
        .col("clean", |o| verdict(o.clean.ok(), "ok", "DIRTY"))
        .col("mutated", |o| {
            format!("{} viol", o.mutated.violations_total)
        })
        .col("verdict", |o| verdict(o.detected(), "caught", "MISSED"))
        .print(&outcomes);

    if failures > 0 {
        println!("\n{failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("\nAll checks passed: every recorded execution satisfies the LRC memory model.");
}
