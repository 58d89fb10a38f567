//! Engine pin: the scheduler, pools and shared clocks must keep producing
//! virtual-time results **bit-identical** to the committed
//! `results/engine_fingerprints.txt`.
//!
//! Those fingerprints were recorded on the historical allocation-per-event
//! engine, which the optimized engine matched cell for cell before the old
//! path was deleted. Every fingerprint component that `perf --out` records
//! is compared: total virtual time, events executed, traffic message/byte
//! totals, and the application checksum.

use svm_bench::{run_sweep_serial, Options};
use svm_core::ProtocolName;

const PINNED: &str = include_str!("../../../results/engine_fingerprints.txt");

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
    let got: Vec<String> = run_sweep_serial(&opts)
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
        .collect();
    let want: Vec<&str> = PINNED
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(want.len(), 16, "pin file must hold all 16 cells");
    assert_eq!(got.len(), want.len(), "cell counts must match");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "engine divergence from the pinned fingerprint");
    }
}
