//! Engine pin and sweep gates: the scheduler, pools, shared clocks and the
//! parallel experiment driver must keep producing virtual-time results
//! **bit-identical** to the committed `results/engine_fingerprints.txt`.
//!
//! Those fingerprints were recorded on the historical allocation-per-event
//! engine, which the optimized engine matched cell for cell before the old
//! path was deleted. Each cell compares total virtual time, events
//! executed, traffic message/byte totals, and the application checksum.
//!
//! The one test runs the sweep twice, serially and on four worker threads,
//! and gates three things:
//!
//! 1. **identity** — every serial *and* every parallel cell matches its
//!    pinned line, so the driver can neither drift from the engine nor
//!    reorder cells;
//! 2. **allocation budget** — the serial sweep's allocation count (this
//!    binary's global allocator counts) stays within 10% of
//!    [`SWEEP_ALLOC_BUDGET`]. The count is deterministic for a fixed
//!    matrix, so an overrun is an engine regression (a pool stopped
//!    pooling, a clone crept back into a hot path), not machine noise;
//! 3. **speedup** — on a host with at least two cores, the parallel sweep
//!    is no slower than the serial one. On one core the ratio carries no
//!    signal, so the gate is skipped.
//!
//! Keeping all three in one `#[test]` keeps the process-wide allocation
//! counter free of other tests' allocations.

use svm_bench::{Options, Record};
use svm_core::ProtocolName;
use svm_testkit::alloc::{self, CountingAlloc};
use svm_testkit::bench::Stopwatch;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const PINNED: &str = include_str!("../../../results/engine_fingerprints.txt");

/// Allocations of the serial 16-cell sweep below, re-recorded whenever the
/// engine's allocation behavior changes on purpose.
const SWEEP_ALLOC_BUDGET: u64 = 906_000;

/// Allowed headroom over [`SWEEP_ALLOC_BUDGET`] (10%).
const ALLOC_BUDGET_SLACK: f64 = 1.10;

/// Worker threads of the parallel sweep: more than most CI hosts have
/// cores, so the threaded path is exercised everywhere.
const PARALLEL_THREADS: usize = 4;

fn fingerprints(records: &[Record]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            let traffic = r.run.report.outcome.traffic.grand_total();
            format!(
                "{}/{}/{} total_ns={} events={} messages={} bytes={} checksum={}",
                r.app,
                r.protocol.label(),
                r.nodes,
                r.run.report.outcome.total_time.as_nanos(),
                r.run.report.outcome.events_executed,
                traffic.messages,
                traffic.bytes,
                r.run.checksum,
            )
        })
        .collect()
}

/// All four protocols, two workloads with different sharing patterns
/// (SOR: migratory rows; Water-Nsquared: the homeless diff-store stress),
/// at a small and a paper-scale node count. 16 cells.
#[test]
fn sweep_matches_pinned_engine_fingerprints() {
    let opts = Options {
        scale: 0.03,
        nodes: vec![4, 64],
        protocols: ProtocolName::ALL.to_vec(),
        apps: vec!["sor".into(), "water-n".into()],
    };
    let want: Vec<&str> = PINNED
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(want.len(), 16, "pin file must hold all 16 cells");

    let sw = Stopwatch::start();
    let allocs_before = alloc::stats().allocation_count;
    let serial = opts.sweep(opts.protocols.clone()).run_on(1);
    let serial_allocs = alloc::stats().allocation_count - allocs_before;
    let serial_ms = sw.elapsed_ms();

    let sw = Stopwatch::start();
    let parallel = opts.sweep(opts.protocols.clone()).run_on(PARALLEL_THREADS);
    let parallel_ms = sw.elapsed_ms();

    let mut divergences = Vec::new();
    for (sweep, records) in [("serial", &serial), ("parallel", &parallel)] {
        let got = fingerprints(records);
        assert_eq!(got.len(), want.len(), "{sweep} sweep cell count");
        for (g, w) in got.iter().zip(&want) {
            if g != w {
                divergences.push(format!("{sweep}: got  {g}\n{sweep}: want {w}"));
            }
        }
    }
    assert!(
        divergences.is_empty(),
        "engine divergence from the pinned fingerprints:\n{}",
        divergences.join("\n")
    );

    let limit = (SWEEP_ALLOC_BUDGET as f64 * ALLOC_BUDGET_SLACK) as u64;
    assert!(
        serial_allocs <= limit,
        "serial sweep made {serial_allocs} allocations, more than 10% over \
         the recorded budget of {SWEEP_ALLOC_BUDGET}"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "sweep: serial {serial_ms:.0} ms ({serial_allocs} allocations), \
         parallel {parallel_ms:.0} ms on {PARALLEL_THREADS} threads, {cores} cores"
    );
    if cores >= 2 {
        assert!(
            parallel_ms <= serial_ms,
            "parallel sweep ({parallel_ms:.0} ms on {PARALLEL_THREADS} threads) \
             slower than serial ({serial_ms:.0} ms) on {cores} cores: \
             parallel driver regression"
        );
    }
}
