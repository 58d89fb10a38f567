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

use svm_apps::verified_suite;
use svm_bench::{cli, Record, Sweep, Table, Variant};
use svm_core::{FaultProfile, NodeCounters, ProtocolName, RunReport};
use svm_machine::NetFaultStats;

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
    let (dup, delay) = (5.0 * base, (20.0 * base).min(0.5));
    let mut knob = |label: String, set: &dyn Fn(&mut FaultProfile)| {
        let mut profile = FaultProfile {
            seed: opts.seed,
            ..FaultProfile::default()
        };
        set(&mut profile);
        cols.push((label, profile));
    };
    knob(format!("dup {dup}"), &|f| f.dup_rate = dup);
    knob(format!("delay {delay}"), &|f| f.delay_rate = delay);
    knob(format!("stall {base}"), &|f| f.stall_rate = base);
    cols
}

/// A cell: whether it reproduced the sequential checksum, and its report.
type Cell = Record<(bool, RunReport)>;

/// The cell's sum over nodes of counter `f`.
fn total(f: fn(&NodeCounters) -> u64) -> impl Fn(&Cell) -> String {
    move |r| r.run.1.counters.total(f).to_string()
}

/// What the fault layer did to the cell's traffic.
fn net(r: &Cell) -> &NetFaultStats {
    &r.run.1.outcome.net_faults
}

fn main() {
    let opts = parse_args();
    println!(
        "\nChaos matrix: apps x protocols x fault regimes (scale {}, {} nodes, seed {})\n\
         (mixed columns inject drop+dup+4x delay at the listed rate; the dup/delay/stall\n\
         columns dominate a single fault knob)\n",
        opts.scale, opts.nodes, opts.seed
    );

    // Canonical cell order: app x protocol x fault column.
    let columns = fault_columns(&opts);
    let variants = ProtocolName::ALL.into_iter().flat_map(|protocol| {
        columns.iter().map(move |(_, profile)| {
            let profile = profile.clone();
            Variant::with(protocol, move |cfg| cfg.fault = profile.clone())
        })
    });
    let records = Sweep::new(verified_suite(opts.scale), vec![opts.nodes], variants).run_map(
        |bench, _, run| {
            let ok = run.checksum == bench.expected_checksum() && run.report.errors.is_empty();
            (ok, run.report)
        },
    );
    Table::new()
        .col("Application", |r: &Cell| r.app.into())
        .col("Protocol", |r| r.protocol.label().into())
        .col("fault", |r| columns[r.variant % columns.len()].0.clone())
        .col("verified", |r| if r.run.0 { "yes" } else { "FAIL" }.into())
        .col("retx", total(|c| c.retransmissions))
        .col("timeouts", total(|c| c.retransmit_timeouts))
        .col("dups-supp", total(|c| c.dup_suppressed))
        .col("net-dropped", |r| net(r).dropped.to_string())
        .col("net-dup'd", |r| net(r).duplicated.to_string())
        .col("net-delayed", |r| net(r).delayed.to_string())
        .col("stalls", |r| net(r).stalls.to_string())
        .col("time(s)", |r| format!("{:.3}", r.run.1.secs()))
        .print(&records);
    let failures = records.iter().filter(|r| !r.run.0).count();
    if failures > 0 {
        println!("\n{failures} run(s) FAILED verification");
        std::process::exit(1);
    }
    println!("\nAll runs reproduced the sequential reference checksum.");
}
