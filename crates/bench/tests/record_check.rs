//! Record→check integration: the full application matrix passes the
//! consistency checker with verdicts identical to the committed
//! `results/checker_reports.txt`, recording is an exact timing no-op, and
//! the compacted trace stays within its documented memory bound.

use svm_apps::{paper_suite, sor::Sor, Benchmark};
use svm_checker::selftest::run_selftests;
use svm_checker::{check_trace, CheckReport};
use svm_core::{ProtocolName, SvmConfig, TraceConfig};

const SCALE: f64 = 0.02;
const NODES: usize = 8;

/// Checker verdict pin: one line per application-matrix cell and per
/// self-test twin, each carrying every `CheckReport` field.
const PINNED: &str = include_str!("../../../results/checker_reports.txt");

/// One pin line: every count, then every detailed race and violation in
/// report order. `Debug` keeps virtual times to the nanosecond.
fn pin_line(name: &str, r: &CheckReport) -> String {
    let mut line = format!(
        "{name} nodes={} episodes={} reads={} writes={} racy_reads={} race_pairs={} \
         ww_races={} violations_total={}",
        r.nodes,
        r.episodes,
        r.reads,
        r.writes,
        r.racy_reads,
        r.race_pairs,
        r.ww_races,
        r.violations_total
    );
    for race in &r.races {
        line.push_str(&format!(" | {race:?}"));
    }
    for v in &r.violations {
        line.push_str(&format!(" | {v:?}"));
    }
    line
}

/// The pinned lines whose name starts with `prefix`, in file order.
fn pinned(prefix: &str) -> Vec<&'static str> {
    PINNED.lines().filter(|l| l.starts_with(prefix)).collect()
}

fn assert_matches_pin(got: &[String], want: &[&str]) {
    assert_eq!(got.len(), want.len(), "pinned line count differs");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "checker verdict differs from the pin");
    }
}

/// Every paper workload, under every protocol, at 8 nodes: the recorded
/// execution is coherent (no write-write races, no read-legality
/// violations; benign read-write races — SOR's halo rows — are counted
/// and excluded from the value check), and each report equals its pin.
#[test]
fn application_matrix_is_coherent_at_8_nodes() {
    let mut got = Vec::new();
    for bench in paper_suite(SCALE) {
        for protocol in ProtocolName::ALL {
            let mut cfg = SvmConfig::new(protocol, NODES);
            cfg.trace = TraceConfig::recording();
            let run = bench.run(&cfg);
            assert!(
                run.report.errors.is_empty(),
                "{} / {}: protocol errors {:?}",
                bench.name(),
                protocol.label(),
                run.report.errors
            );
            let trace = run.report.trace.as_ref().expect("recording enabled");
            let check = check_trace(trace);
            assert!(
                check.coherent(),
                "{} / {}: {check}\n{}",
                bench.name(),
                protocol.label(),
                check
                    .violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            got.push(pin_line(
                &format!("app/{}/{}", bench.name(), protocol.label()),
                &check,
            ));
        }
    }
    assert_matches_pin(&got, &pinned("app/"));
}

/// The mutation battery's reports, clean and mutated twin alike, equal
/// their pins: the checker still catches each seeded bug with the same
/// counterexample.
#[test]
fn selftest_reports_match_pin() {
    let mut got = Vec::new();
    for o in run_selftests() {
        got.push(pin_line(&format!("selftest/{}/clean", o.name), &o.clean));
        got.push(pin_line(
            &format!("selftest/{}/mutated", o.name),
            &o.mutated,
        ));
    }
    assert_matches_pin(&got, &pinned("selftest/"));
}

/// Recording must not perturb the simulation: a recorded run has
/// bit-identical virtual time to an unrecorded one (recording charges no
/// work and sends no messages), and recording off means no trace.
#[test]
fn recording_is_an_exact_timing_noop() {
    let sor = Sor::scaled(SCALE);
    for protocol in ProtocolName::ALL {
        let plain_cfg = SvmConfig::new(protocol, NODES);
        let mut rec_cfg = plain_cfg.clone();
        rec_cfg.trace = TraceConfig::recording();

        let plain = sor.run(&plain_cfg);
        let recorded = sor.run(&rec_cfg);

        assert!(plain.report.trace.is_none(), "no trace when recording off");
        assert!(recorded.report.trace.is_some());
        assert_eq!(
            plain.report.outcome.total_time,
            recorded.report.outcome.total_time,
            "{}: recording changed virtual time",
            protocol.label()
        );
        assert_eq!(plain.checksum, recorded.checksum);
    }
}

/// The documented trace-memory bound: compaction (per-interval write-set
/// dedup, contiguous-read merging) keeps SOR at 8 nodes under 4 MiB of
/// trace, orders of magnitude below the raw per-access stream.
#[test]
fn sor_trace_stays_under_documented_bound() {
    let sor = Sor::scaled(0.05);
    let mut cfg = SvmConfig::new(ProtocolName::Hlrc, NODES);
    cfg.trace = TraceConfig::recording();
    let run = sor.run(&cfg);
    let trace = run.report.trace.as_ref().expect("recording enabled");
    let bytes = trace.approx_bytes();
    assert!(
        bytes < 4 * 1024 * 1024,
        "SOR@8 trace is {bytes} bytes, bound is 4 MiB"
    );
    // And the bounded trace still checks out.
    assert!(check_trace(trace).coherent());
}
