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

use svm_apps::{
    lu::Lu, raytrace::Raytrace, sor::Sor, water_ns::WaterNsq, water_sp::WaterSp, Benchmark,
};
use svm_bench::{cli, parallel, Table};
use svm_core::{ProtocolName, RecoveryMode, RecoveryProfile, SvmConfig};
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

/// The five workloads with result verification switched on, so a cell
/// whose schedule never fires can prove the armed detector is inert.
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

fn recovery(mode: RecoveryMode) -> RecoveryProfile {
    RecoveryProfile {
        enabled: true,
        heartbeat_us: 2_000,
        miss_threshold: 3,
        mode,
    }
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

    let suite = verified_suite(opts.scale);
    let window = SimDuration::from_micros(opts.window_us);
    let mut jobs: Vec<(usize, ProtocolName, u64)> = Vec::new();
    for bi in 0..suite.len() {
        for protocol in PROTOCOLS {
            for &seed in &opts.seeds {
                jobs.push((bi, protocol, seed));
            }
        }
    }
    let run_cell = |bi: usize, protocol: ProtocolName, seed: u64| {
        let mut cfg = SvmConfig::new(protocol, opts.nodes);
        cfg.recovery = recovery(opts.mode);
        cfg.node_fault = NodeFaultConfig::seeded(seed, opts.nodes, opts.crashes, window);
        suite[bi].run(&cfg)
    };
    let runs = parallel::run_ordered(jobs.len(), parallel::workers(jobs.len()), |i| {
        let (bi, protocol, seed) = jobs[i];
        run_cell(bi, protocol, seed)
    });

    let mut t = Table::new(&[
        "Application",
        "Protocol",
        "seed",
        "outcome",
        "crashes",
        "deaths",
        "rehomed",
        "revoked",
        "refetches",
        "checksum",
        "time(s)",
    ]);
    let mut failures = 0usize;
    let mut first_fired: Option<usize> = None;
    for (i, ((bi, protocol, seed), run)) in jobs.iter().zip(&runs).enumerate() {
        let bench = &suite[*bi];
        let r = &run.report;
        // A crash instant inside the run disturbs it (the victim's
        // remaining work is forfeit); one beyond the natural end is a
        // dangling schedule and must be invisible in the results.
        let schedule = NodeFaultConfig::seeded(*seed, opts.nodes, opts.crashes, window);
        let disturbed = schedule.crashes.iter().any(|c| c.at < r.outcome.total_time);
        if disturbed && first_fired.is_none() {
            first_fired = Some(i);
        }
        let checksum = if run.checksum == bench.expected_checksum() {
            "ok"
        } else if disturbed {
            "lost"
        } else {
            failures += 1;
            "FAIL"
        };
        let nerrs = r.errors.len() + r.outcome.errors.len();
        let outcome = if nerrs == 0 {
            "clean".to_string()
        } else {
            format!("error:{nerrs}")
        };
        t.row(vec![
            bench.name().to_string(),
            protocol.label().to_string(),
            seed.to_string(),
            outcome,
            r.outcome.node_faults.crashes.to_string(),
            r.deaths.len().to_string(),
            r.recovery.rehomed_pages.to_string(),
            r.recovery.revoked_grants.to_string(),
            r.recovery.refetches.to_string(),
            checksum.to_string(),
            format!("{:.3}", r.secs()),
        ]);
    }
    t.print();

    // Bit-reproducibility: replay the first cell whose crash actually
    // fired and demand an identical trajectory.
    if let Some(i) = first_fired {
        let (bi, protocol, seed) = jobs[i];
        let again = run_cell(bi, protocol, seed);
        let (a, b) = (&runs[i].report, &again.report);
        let identical = a.outcome.total_time == b.outcome.total_time
            && a.deaths == b.deaths
            && a.recovery == b.recovery
            && a.errors.len() == b.errors.len()
            && a.outcome.errors == b.outcome.errors
            && runs[i].checksum == again.checksum;
        println!(
            "\nreplay {} / {} / seed {}: {}",
            suite[bi].name(),
            protocol.label(),
            seed,
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
