//! Crash-chaos matrix: every workload under the home-based protocols with
//! seeded node-crash schedules and graceful recovery armed.
//!
//! The contract under test is the failure model's bottom line: **no crash
//! schedule may hang or panic** — every cell either completes (possibly
//! with the dead node's remaining work honestly lost) or halts with a
//! structured error naming a node and a virtual time. The table reports
//! what recovery did in each cell (deaths declared, pages re-homed, lock
//! grants revoked, refetches re-driven) and the driver enforces:
//!
//! * cells whose schedule never fires (crash instant beyond the run) must
//!   still reproduce the sequential reference checksum — an unfired plan
//!   plus an armed detector must not perturb results;
//! * the first cell that actually fired a crash is run twice and must be
//!   bit-identical (total time, deaths, recovery counters, errors).
//!
//! Usage: `crash [--scale X] [--nodes N] [--crashes K] [--window-us W]
//! [--seeds a,b] [--fail-fast]` (defaults: scale 0.03, 4 nodes, 1 crash,
//! 60 ms window, seeds 1,2, graceful). Crash times land in
//! `[W/4, W)`; node 0 is always spared by the seeded schedule. Bad input
//! exits 2 with the usage line.

use svm_apps::verified_suite;
use svm_bench::{cli, Record, Sweep, Table, Variant};
use svm_core::{ProtocolName, RecoveryMode, RecoveryProfile, RunReport};
use svm_machine::NodeFaultConfig;
use svm_sim::SimDuration;

struct Opts {
    scale: f64,
    nodes: usize,
    crashes: usize,
    window_us: u64,
    seeds: Vec<u64>,
    mode: RecoveryMode,
}

fn parse_args() -> Opts {
    let mut o = Opts {
        scale: 0.03,
        nodes: 4,
        crashes: 1,
        window_us: 60_000,
        seeds: vec![1, 2],
        mode: RecoveryMode::Graceful,
    };
    let mut args = cli::Args::new(
        "[--scale X] [--nodes N] [--crashes K] [--window-us W] [--seeds a,b] [--fail-fast]",
    );
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => o.scale = args.scale(),
            "--nodes" => o.nodes = args.nodes(),
            "--crashes" => o.crashes = args.value(),
            "--window-us" => o.window_us = args.value(),
            "--seeds" => o.seeds = args.list(),
            "--fail-fast" => o.mode = RecoveryMode::FailFast,
            _ => args.unknown(),
        }
    }
    o
}

/// Home-based protocols only: homeless LRC/OLRC diffs can live solely on
/// the dead node, so their crash story is "structured error", exercised by
/// the core test suite; the *matrix* is about failover actually recovering.
const PROTOCOLS: [ProtocolName; 2] = [ProtocolName::Hlrc, ProtocolName::Ohlrc];

/// One cell's run and what the matrix concluded from it.
struct Cell {
    /// Whether a crash instant fell inside the run.
    disturbed: bool,
    /// `ok`, `lost` (a disturbed run forfeited the victim's work) or `FAIL`.
    verdict: &'static str,
    checksum: u64,
    report: RunReport,
}

/// The cell's run report.
fn report(r: &Record<Cell>) -> &RunReport {
    &r.run.report
}

fn main() {
    let opts = parse_args();
    let mode_label = match opts.mode {
        RecoveryMode::Graceful => "graceful",
        RecoveryMode::FailFast => "fail-fast",
    };
    println!(
        "\nCrash matrix: apps x home-based protocols x seeded crash schedules\n\
         (scale {}, {} nodes, {} crash(es) in [{} us, {} us), {} recovery,\n\
         heartbeat 2 ms x 3 missed; every cell must complete or halt with a\n\
         structured error — hangs and panics are matrix failures)\n",
        opts.scale,
        opts.nodes,
        opts.crashes,
        opts.window_us / 4,
        opts.window_us,
        mode_label
    );

    let window = SimDuration::from_micros(opts.window_us);
    let (mode, crashes) = (opts.mode, opts.crashes);
    let variants = PROTOCOLS.into_iter().flat_map(|protocol| {
        opts.seeds.iter().map(move |&seed| {
            Variant::with(protocol, move |cfg| {
                cfg.recovery = RecoveryProfile {
                    enabled: true,
                    heartbeat_us: 2_000,
                    miss_threshold: 3,
                    mode,
                };
                cfg.node_fault = NodeFaultConfig::seeded(seed, cfg.nodes, crashes, window);
            })
        })
    });
    let sweep = Sweep::new(verified_suite(opts.scale), vec![opts.nodes], variants);
    let records = sweep.run_map(|bench, cfg, run| {
        // A crash instant inside the run disturbs it (the victim's
        // remaining work is forfeit); one beyond the natural end is a
        // dangling schedule and must be invisible in the results.
        let total = run.report.outcome.total_time;
        let disturbed = cfg.node_fault.crashes.iter().any(|c| c.at < total);
        let verdict = if run.checksum == bench.expected_checksum() {
            "ok"
        } else if disturbed {
            "lost"
        } else {
            "FAIL"
        };
        Cell {
            disturbed,
            verdict,
            checksum: run.checksum,
            report: run.report,
        }
    });

    let seed = |r: &Record<Cell>| opts.seeds[r.variant % opts.seeds.len()];
    Table::new()
        .col("Application", |r: &Record<Cell>| r.app.into())
        .col("Protocol", |r| r.protocol.label().into())
        .col("seed", |r| seed(r).to_string())
        .col("outcome", |r| {
            match report(r).errors.len() + report(r).outcome.errors.len() {
                0 => "clean".to_string(),
                nerrs => format!("error:{nerrs}"),
            }
        })
        .col("crashes", |r| {
            report(r).outcome.node_faults.crashes.to_string()
        })
        .col("deaths", |r| report(r).deaths.len().to_string())
        .col("rehomed", |r| report(r).recovery.rehomed_pages.to_string())
        .col("revoked", |r| report(r).recovery.revoked_grants.to_string())
        .col("refetches", |r| report(r).recovery.refetches.to_string())
        .col("checksum", |r| r.run.verdict.into())
        .col("time(s)", |r| format!("{:.3}", report(r).secs()))
        .print(&records);
    let mut failures = records.iter().filter(|r| r.run.verdict == "FAIL").count();

    // Bit-reproducibility: replay the first cell whose crash actually
    // fired and demand an identical trajectory.
    if let Some(i) = records.iter().position(|r| r.run.disturbed) {
        let (bench, cfg) = sweep.cell(i);
        let (first, again) = (&records[i], bench.run(&cfg));
        let (a, b) = (&first.run.report, &again.report);
        let identical = a.outcome.total_time == b.outcome.total_time
            && a.deaths == b.deaths
            && a.recovery == b.recovery
            && a.errors.len() == b.errors.len()
            && a.outcome.errors == b.outcome.errors
            && first.run.checksum == again.checksum;
        println!(
            "\nreplay {} / {} / seed {}: {}",
            first.app,
            first.protocol.label(),
            seed(first),
            if identical {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        );
        if !identical {
            failures += 1;
        }
    } else {
        println!("\nno schedule fired inside any run — widen --window-us to exercise recovery");
        failures += 1;
    }

    if failures > 0 {
        println!("\n{failures} crash-matrix failure(s)");
        std::process::exit(1);
    }
    println!("every cell completed or halted with a structured error; replay was bit-identical");
}
