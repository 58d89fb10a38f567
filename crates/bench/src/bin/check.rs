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

use svm_apps::{
    lu::Lu, raytrace::Raytrace, sor::Sor, water_ns::WaterNsq, water_sp::WaterSp, Benchmark,
};
use svm_bench::{cli, parallel, Table};
use svm_checker::selftest::run_selftests;
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

fn suite(scale: f64, fast: bool) -> Vec<Box<dyn Benchmark>> {
    let mut s: Vec<Box<dyn Benchmark>> =
        vec![Box::new(Sor::scaled(scale)), Box::new(Lu::scaled(scale))];
    if !fast {
        s.push(Box::new(WaterNsq::scaled(scale)));
        s.push(Box::new(WaterSp::scaled(scale)));
        s.push(Box::new(Raytrace::scaled(scale)));
    }
    s
}

/// Record one run and check the trace; returns the report and trace size.
fn record_check(bench: &dyn Benchmark, cfg: &SvmConfig) -> (CheckReport, usize) {
    let mut cfg = cfg.clone();
    cfg.trace = TraceConfig::recording();
    let run = bench.run(&cfg);
    let trace = run
        .report
        .trace
        .as_ref()
        .expect("recording was enabled for this run");
    (check_trace(trace), trace.approx_bytes())
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

    // 1. Application matrix: zero faults.
    let mut t = Table::new(&[
        "Application",
        "Protocol",
        "episodes",
        "reads",
        "writes",
        "racy",
        "ww",
        "viol",
        "trace",
        "verdict",
    ]);
    // Record-and-check every (app x protocol) cell on the parallel driver;
    // results come back in the canonical order, so output is unchanged.
    let suite = suite(opts.scale, opts.fast);
    let mut jobs: Vec<(usize, ProtocolName)> = Vec::new();
    for bi in 0..suite.len() {
        for protocol in ProtocolName::ALL {
            jobs.push((bi, protocol));
        }
    }
    let checks = parallel::run_ordered(jobs.len(), parallel::workers(jobs.len()), |i| {
        let (bi, protocol) = jobs[i];
        record_check(suite[bi].as_ref(), &SvmConfig::new(protocol, opts.nodes))
    });
    for ((bi, protocol), (r, bytes)) in jobs.iter().zip(&checks) {
        {
            let (bench, protocol, bytes) = (&suite[*bi], *protocol, *bytes);
            let pass = r.coherent();
            if !pass {
                failures += 1;
                for v in &r.violations {
                    println!("  {} / {}: {v}", bench.name(), protocol.label());
                }
            }
            t.row(vec![
                bench.name().to_string(),
                protocol.label().to_string(),
                r.episodes.to_string(),
                r.reads.to_string(),
                r.writes.to_string(),
                r.racy_reads.to_string(),
                r.ww_races.to_string(),
                r.violations_total.to_string(),
                format!("{}K", bytes / 1024),
                if pass { "pass".into() } else { "FAIL".into() },
            ]);
        }
    }
    t.print();

    // 2. Faulted runs: SOR under chaos faults, every protocol.
    println!("\nFaulted runs (SOR, chaos profile, drop rate 0.002, 4 nodes):\n");
    let mut t = Table::new(&["Protocol", "retx", "racy", "ww", "viol", "verdict"]);
    let sor = Sor::scaled(opts.scale);
    let faulted = parallel::run_ordered(ProtocolName::ALL.len(), parallel::workers(4), |i| {
        let mut cfg = SvmConfig::new(ProtocolName::ALL[i], 4);
        cfg.fault = FaultProfile::chaos(opts.seed, 0.002);
        cfg.trace = TraceConfig::recording();
        let run = sor.run(&cfg);
        let r = check_trace(run.report.trace.as_ref().expect("recording enabled"));
        (run, r)
    });
    for (protocol, (run, r)) in ProtocolName::ALL.into_iter().zip(&faulted) {
        let pass = r.coherent() && run.report.errors.is_empty();
        if !pass {
            failures += 1;
            for v in &r.violations {
                println!("  SOR / {}: {v}", protocol.label());
            }
        }
        t.row(vec![
            protocol.label().to_string(),
            run.report.counters.total(|c| c.retransmissions).to_string(),
            r.racy_reads.to_string(),
            r.ww_races.to_string(),
            r.violations_total.to_string(),
            if pass { "pass".into() } else { "FAIL".into() },
        ]);
    }
    t.print();

    // 3. Mutation self-tests: the checker must catch every seeded bug.
    println!("\nMutation self-tests (seeded protocol bugs, checker as oracle):\n");
    let mut t = Table::new(&[
        "Mutation", "Protocol", "hits", "clean", "mutated", "verdict",
    ]);
    for o in run_selftests() {
        let detected = o.detected();
        if !detected {
            failures += 1;
        }
        t.row(vec![
            o.name.to_string(),
            o.protocol.label().to_string(),
            o.mutated_hits.to_string(),
            if o.clean.ok() {
                "ok".into()
            } else {
                "DIRTY".into()
            },
            format!("{} viol", o.mutated.violations_total),
            if detected {
                "caught".into()
            } else {
                "MISSED".into()
            },
        ]);
        for v in o.mutated.violations.iter().take(1) {
            println!("  {}: {v}", o.name);
        }
    }
    t.print();

    if failures > 0 {
        println!("\n{failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("\nAll checks passed: every recorded execution satisfies the LRC memory model.");
}
