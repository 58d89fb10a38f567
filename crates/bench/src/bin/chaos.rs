//! Chaos matrix: every workload under every protocol on a faulty network.
//!
//! Each requested drop rate becomes a *mixed* column (seeded drop +
//! duplicate + 4x reordering delay, the classic chaos profile), and the
//! matrix always appends three single-knob-dominated columns — duplicate-,
//! delay-, and stall-heavy — so all four `FaultPlan` knobs are exercised
//! on every run of the suite. Every cell verifies the sequential
//! reference checksum, and the table reports what the reliable-delivery
//! layer had to do to make that true: retransmissions, timeouts,
//! duplicate suppressions, and the fault layer's own per-knob tally.
//!
//! Usage: `chaos [--scale X] [--nodes N] [--drop a,b,c] [--seed S]`
//! (defaults: scale 0.05, 4 nodes, drop rates 0, 0.001, 0.01, seed 1;
//! bad input exits 2 with this usage line).
//! The dominated columns derive their intensity from the largest
//! requested rate.

use svm_apps::{
    lu::Lu, raytrace::Raytrace, sor::Sor, water_ns::WaterNsq, water_sp::WaterSp, Benchmark,
};
use svm_bench::{cli, parallel, Table};
use svm_core::{FaultProfile, ProtocolName, SvmConfig};

struct Opts {
    scale: f64,
    nodes: usize,
    drops: Vec<f64>,
    seed: u64,
}

fn parse_args() -> Opts {
    let mut o = Opts {
        scale: 0.05,
        nodes: 4,
        drops: vec![0.0, 0.001, 0.01],
        seed: 1,
    };
    let mut args = cli::Args::new("[--scale X] [--nodes N] [--drop a,b,c] [--seed S]");
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => o.scale = args.scale(),
            "--nodes" => o.nodes = args.nodes(),
            "--drop" => o.drops = args.list(),
            "--seed" => o.seed = args.value(),
            _ => args.unknown(),
        }
    }
    o
}

/// The matrix's fault columns: one mixed chaos column per requested drop
/// rate, then one column per dominated knob so duplication, reordering
/// jitter, and receiver stalls each get exercised in (near-)isolation.
fn fault_columns(opts: &Opts) -> Vec<(String, FaultProfile)> {
    let mut cols: Vec<(String, FaultProfile)> = opts
        .drops
        .iter()
        .map(|&rate| {
            (
                format!("mixed {rate}"),
                FaultProfile::chaos(opts.seed, rate),
            )
        })
        .collect();
    let base = opts.drops.iter().cloned().fold(0.0f64, f64::max).max(0.001);
    cols.push((
        format!("dup {}", 5.0 * base),
        FaultProfile {
            seed: opts.seed,
            dup_rate: 5.0 * base,
            ..FaultProfile::default()
        },
    ));
    cols.push((
        format!("delay {}", (20.0 * base).min(0.5)),
        FaultProfile {
            seed: opts.seed,
            delay_rate: (20.0 * base).min(0.5),
            ..FaultProfile::default()
        },
    ));
    cols.push((
        format!("stall {base}"),
        FaultProfile {
            seed: opts.seed,
            stall_rate: base,
            ..FaultProfile::default()
        },
    ));
    cols
}

/// The five workloads with result verification switched on.
fn verified_suite(scale: f64) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Lu {
            verify: true,
            ..Lu::scaled(scale)
        }),
        Box::new(Sor {
            verify: true,
            ..Sor::scaled(scale)
        }),
        Box::new(WaterNsq {
            verify: true,
            ..WaterNsq::scaled(scale)
        }),
        Box::new(WaterSp {
            verify: true,
            ..WaterSp::scaled(scale)
        }),
        Box::new(Raytrace {
            verify: true,
            ..Raytrace::scaled(scale)
        }),
    ]
}

fn main() {
    let opts = parse_args();
    println!(
        "\nChaos matrix: apps x protocols x fault regimes (scale {}, {} nodes, seed {})\n\
         (mixed columns inject drop+dup+4x delay at the listed rate; the dup/delay/stall\n\
         columns dominate a single fault knob)\n",
        opts.scale, opts.nodes, opts.seed
    );

    let mut t = Table::new(&[
        "Application",
        "Protocol",
        "fault",
        "verified",
        "retx",
        "timeouts",
        "dups-supp",
        "net-dropped",
        "net-dup'd",
        "net-delayed",
        "stalls",
        "time(s)",
    ]);
    // Canonical cell order (app x protocol x column); the parallel driver
    // returns results in this same order, so the table is byte-identical
    // to the old serial loop.
    let suite = verified_suite(opts.scale);
    let columns = fault_columns(&opts);
    let mut jobs: Vec<(usize, ProtocolName, usize)> = Vec::new();
    for bi in 0..suite.len() {
        for protocol in ProtocolName::ALL {
            for ci in 0..columns.len() {
                jobs.push((bi, protocol, ci));
            }
        }
    }
    let runs = parallel::run_ordered(jobs.len(), parallel::workers(jobs.len()), |i| {
        let (bi, protocol, ci) = jobs[i];
        let mut cfg = SvmConfig::new(protocol, opts.nodes);
        cfg.fault = columns[ci].1.clone();
        suite[bi].run(&cfg)
    });

    let mut failures = 0usize;
    for ((bi, protocol, ci), run) in jobs.iter().zip(&runs) {
        let bench = &suite[*bi];
        let ok = run.checksum == bench.expected_checksum() && run.report.errors.is_empty();
        if !ok {
            failures += 1;
        }
        let nf = &run.report.outcome.net_faults;
        t.row(vec![
            bench.name().to_string(),
            protocol.label().to_string(),
            columns[*ci].0.clone(),
            if ok { "yes".into() } else { "FAIL".into() },
            run.report.counters.total(|c| c.retransmissions).to_string(),
            run.report
                .counters
                .total(|c| c.retransmit_timeouts)
                .to_string(),
            run.report.counters.total(|c| c.dup_suppressed).to_string(),
            nf.dropped.to_string(),
            nf.duplicated.to_string(),
            nf.delayed.to_string(),
            nf.stalls.to_string(),
            format!("{:.3}", run.report.secs()),
        ]);
    }
    t.print();
    if failures > 0 {
        println!("\n{failures} run(s) FAILED verification");
        std::process::exit(1);
    }
    println!("\nAll runs reproduced the sequential reference checksum.");
}
