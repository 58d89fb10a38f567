//! The four workloads: what each sets up, what one pass runs, and how each
//! cell's output is checked.
//!
//! Cells run serially on the calling thread. Every count comes from the
//! deterministic fields a run returns (`RunOutcome`, `TrafficStats`,
//! `NodeCounters`, `Breakdown`, `ExploreReport`).

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use svm_apps::lu::Lu;
use svm_apps::raytrace::Raytrace;
use svm_apps::sor::Sor;
use svm_apps::water_ns::WaterNsq;
use svm_apps::water_sp::WaterSp;
use svm_apps::Benchmark;
use svm_checker::check_trace;
use svm_core::{ProtocolName, RunReport, SvmConfig, TraceConfig};
use svm_explore::{base_config, ExploreOptions, Explorer, Program};
use svm_serve::{KeyDist, LoadMode, ServeSpec};

use crate::fingerprint::Fingerprint;
use crate::report::percentile;
use crate::spans::Tracer;

/// A named workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Water-Nsquared at paper size on 64 nodes, LRC then HLRC.
    Water64,
    /// Five paper apps × four protocols on 8 nodes, every trace checked.
    Apps8Checked,
    /// KV store and session cache under open-loop Zipfian load.
    ServeZipf,
    /// The explorer's fast matrix.
    ExploreGate,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Water64,
        Workload::Apps8Checked,
        Workload::ServeZipf,
        Workload::ExploreGate,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Water64 => "water64",
            Workload::Apps8Checked => "apps8_checked",
            Workload::ServeZipf => "serve_zipf",
            Workload::ExploreGate => "explore_gate",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem size: the benchmark's, or a tiny one for smoke tests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small enough for a debug-build test.
    Tiny,
}

/// Work counted over one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Scheduler events executed.
    pub events: u64,
    /// Simulated parallel time, summed over cells (virtual ns).
    pub virtual_ns: u64,
    /// Diffs created.
    pub diffs_created: u64,
    /// Diffs applied.
    pub diffs_applied: u64,
    /// Payload bytes of created diffs.
    pub diff_bytes: u64,
    /// Faults that fetched remote data.
    pub read_misses: u64,
    /// Write-upgrade faults.
    pub write_faults: u64,
    /// Lock acquires that needed the manager.
    pub remote_lock_acquires: u64,
    /// Pages fetched whole.
    pub full_page_fetches: u64,
    /// Home reads that waited for an in-flight diff.
    pub home_stalls: u64,
    /// Garbage collections (node participations).
    pub gc_runs: u64,
    /// Largest per-node protocol-memory high-water over cells.
    pub proto_mem_peak_bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Per-node mean of each `Category` slot, summed over cells (virtual
    /// ns), in `svm_machine::accounting::CATEGORIES` order.
    pub category_ns: [u64; 8],
    /// Access-trace events replayed by the checker.
    pub trace_events: u64,
    /// Approximate bytes of those traces.
    pub trace_bytes: u64,
    /// Completed served requests.
    pub requests: u64,
    /// Every served request's latency from its scheduled arrival (virtual
    /// ns), in cell order.
    pub latencies_ns: Vec<u64>,
    /// p99 latency per `<service>.<protocol>` cell (virtual ns).
    pub serve_p99_ns: BTreeMap<String, u64>,
    /// Distinct explorer states.
    pub states: u64,
    /// Explorer transitions.
    pub transitions: u64,
    /// Explorer replays from a prefix.
    pub replays: u64,
}

impl Counts {
    fn add_report(&mut self, r: &RunReport) {
        let o = &r.outcome;
        let c = &r.counters;
        self.events += o.events_executed;
        self.virtual_ns += o.total_time.as_nanos();
        self.diffs_created += c.total(|n| n.diffs_created);
        self.diffs_applied += c.total(|n| n.diffs_applied);
        self.diff_bytes += c.total(|n| n.diff_bytes_created);
        self.read_misses += c.total(|n| n.read_misses);
        self.write_faults += c.total(|n| n.write_faults);
        self.remote_lock_acquires += c.total(|n| n.remote_lock_acquires);
        self.full_page_fetches += c.total(|n| n.full_page_fetches);
        self.home_stalls += c.total(|n| n.home_stalls);
        self.gc_runs += c.total(|n| n.gc_runs);
        self.proto_mem_peak_bytes = self.proto_mem_peak_bytes.max(c.max_protocol_memory());
        let t = o.traffic.grand_total();
        self.messages += t.messages;
        self.bytes += t.bytes;
        for (slot, (_, d)) in self.category_ns.iter_mut().zip(r.avg_breakdown().iter()) {
            *slot += d.as_nanos();
        }
    }

    /// Mean payload bytes per created diff (0 when none were created).
    pub fn mean_diff_bytes(&self) -> u64 {
        self.diff_bytes.checked_div(self.diffs_created).unwrap_or(0)
    }
}

/// One executed cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell's deterministic statistics.
    pub fingerprint: Fingerprint,
    /// Why the cell failed, if it did.
    pub failure: Option<String>,
    /// Units attempted: 1 per cell, or the requests of a served cell.
    pub attempted: u64,
    /// Units failed.
    pub failed: u64,
}

/// Everything one pass produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Cells in execution order.
    pub cells: Vec<CellResult>,
    /// Work counted over the pass.
    pub counts: Counts,
}

impl Pass {
    /// Units attempted.
    pub fn attempted(&self) -> u64 {
        self.cells.iter().map(|c| c.attempted).sum()
    }

    /// Units failed.
    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| c.failed).sum()
    }
}

/// One application instance with its sequential reference checksum.
pub struct App {
    bench: Box<dyn Benchmark>,
    expected: u64,
}

impl App {
    /// Build the instance and compute its reference output.
    pub fn new(bench: Box<dyn Benchmark>) -> Self {
        let expected = bench.expected_checksum();
        App { bench, expected }
    }
}

/// One explorer configuration.
#[derive(Clone, Debug)]
pub struct ExploreCell {
    protocol: ProtocolName,
    nodes: usize,
    rounds: u32,
    recovery: bool,
    max_crashes: usize,
}

/// A workload's inputs, built during set-up.
pub enum Prepared {
    /// Application cells: every app under every listed protocol.
    Apps {
        /// Key prefix.
        workload: &'static str,
        /// Instances with their reference checksums.
        apps: Vec<App>,
        /// Protocols each app runs under, in order.
        protocols: Vec<ProtocolName>,
        /// Simulated nodes.
        nodes: usize,
        /// Record every run's access trace and check it.
        checked: bool,
    },
    /// Served-traffic cells.
    Serve {
        /// `(spec, protocol)` in run order.
        cells: Vec<(ServeSpec, ProtocolName)>,
        /// The seed the specs were made from.
        seed: u64,
    },
    /// Explorer cells.
    Explore {
        /// Configurations in run order.
        cells: Vec<ExploreCell>,
        /// The distinct-state floor the whole matrix must reach.
        min_states: u64,
    },
}

/// Verified instances of the five paper applications.
fn paper_apps(scale: f64) -> Vec<Box<dyn Benchmark>> {
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

/// Run each workload's code paths once on a tiny input, so one-time lazy
/// set-up (calibration probes, pools) lands in set-up time instead of the
/// first timed pass.
pub fn warm_up(w: Workload) -> Pass {
    run_pass(&prepare(w, Size::Tiny, 1), &mut Tracer::new(false))
}

/// Build a workload's inputs: instances and sequential reference outputs.
pub fn prepare(w: Workload, size: Size, seed: u64) -> Prepared {
    let full = size == Size::Full;
    match w {
        Workload::Water64 => Prepared::Apps {
            workload: w.name(),
            apps: vec![App::new(Box::new(WaterNsq {
                verify: true,
                ..WaterNsq::scaled(if full { 1.0 } else { 0.02 })
            }))],
            protocols: vec![ProtocolName::Lrc, ProtocolName::Hlrc],
            nodes: if full { 64 } else { 8 },
            checked: false,
        },
        Workload::Apps8Checked => Prepared::Apps {
            workload: w.name(),
            apps: paper_apps(if full { 0.25 } else { 0.02 })
                .into_iter()
                .map(App::new)
                .collect(),
            protocols: ProtocolName::ALL.to_vec(),
            nodes: 8,
            checked: true,
        },
        Workload::ServeZipf => {
            let ops = if full { 1_000 } else { 20 };
            let mut cells = Vec::new();
            for (base, offered) in [
                (ServeSpec::kv(8, 2), 5_000.0),
                (ServeSpec::session(8, 2), 2_000.0),
            ] {
                for protocol in ProtocolName::ALL {
                    let spec = ServeSpec {
                        ops_per_client: ops,
                        dist: KeyDist::Zipfian { theta: 0.99 },
                        load: LoadMode::OpenLoop {
                            offered_per_sec: offered,
                        },
                        seed,
                        ..base.clone()
                    };
                    cells.push((spec, protocol));
                }
            }
            Prepared::Serve { cells, seed }
        }
        Workload::ExploreGate => {
            let cell = |protocol, nodes, rounds, recovery, max_crashes| ExploreCell {
                protocol,
                nodes,
                rounds,
                recovery,
                max_crashes,
            };
            let mut cells = Vec::new();
            if full {
                // The `explore --fast` matrix.
                for p in ProtocolName::ALL {
                    cells.push(cell(p, 2, 2, false, 0));
                    cells.push(cell(p, 3, 1, false, 0));
                }
                for p in ProtocolName::ALL {
                    cells.push(cell(p, 2, 1, true, 1));
                    cells.push(cell(p, 2, 2, true, 1));
                }
                cells.push(cell(ProtocolName::Lrc, 3, 1, true, 1));
                cells.push(cell(ProtocolName::Hlrc, 3, 1, true, 1));
            } else {
                for p in ProtocolName::ALL {
                    cells.push(cell(p, 2, 1, false, 0));
                    cells.push(cell(p, 2, 1, true, 1));
                }
            }
            Prepared::Explore {
                cells,
                min_states: if full { 10_000 } else { 1 },
            }
        }
    }
}

/// Run every cell of a prepared workload once.
pub fn run_pass(p: &Prepared, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    match p {
        Prepared::Apps {
            workload,
            apps,
            protocols,
            nodes,
            checked,
        } => {
            for app in apps {
                for &protocol in protocols {
                    let cfg = SvmConfig::new(protocol, *nodes);
                    let key = if apps.len() == 1 {
                        format!("{workload}/{}", protocol.label().to_ascii_lowercase())
                    } else {
                        format!(
                            "{workload}/{}/{}",
                            app_key(app.bench.name()),
                            protocol.label().to_ascii_lowercase()
                        )
                    };
                    let counts = &mut pass.counts;
                    let cell = guarded(key.clone(), 1, tr, |tr| {
                        app_cell(app, &cfg, *checked, key, tr, counts)
                    });
                    pass.cells.push(cell);
                }
            }
        }
        Prepared::Serve { cells, seed } => {
            for (spec, protocol) in cells {
                let key = format!(
                    "serve_zipf/{}/{}/seed={seed}",
                    spec.service.label(),
                    protocol.label().to_ascii_lowercase()
                );
                let want = (spec.clients() * spec.ops_per_client) as u64;
                let counts = &mut pass.counts;
                let cell = guarded(key.clone(), want, tr, |tr| {
                    serve_cell(spec, *protocol, key, tr, counts)
                });
                pass.cells.push(cell);
            }
        }
        Prepared::Explore { cells, min_states } => {
            for c in cells {
                let key = format!(
                    "explore_gate/{}/n{}/r{}/{}/c{}",
                    c.protocol.label().to_ascii_lowercase(),
                    c.nodes,
                    c.rounds,
                    if c.recovery { "recovery" } else { "plain" },
                    c.max_crashes
                );
                let counts = &mut pass.counts;
                let cell = guarded(key.clone(), 1, tr, |tr| explore_cell(c, key, tr, counts));
                pass.cells.push(cell);
            }
            let states = pass.counts.states;
            pass.cells.push(CellResult {
                fingerprint: Fingerprint {
                    key: "explore_gate/state_floor".into(),
                    fields: vec![("states", states)],
                },
                failure: (states < *min_states)
                    .then(|| format!("{states} distinct states, below the floor of {min_states}")),
                attempted: 1,
                failed: u64::from(states < *min_states),
            });
        }
    }
    pass
}

/// Run one cell, turning a panic into a failed cell so that one broken
/// cell cannot abort the benchmark.
fn guarded(
    key: String,
    attempted: u64,
    tr: &mut Tracer,
    cell: impl FnOnce(&mut Tracer) -> CellResult,
) -> CellResult {
    let depth = tr.depth();
    match std::panic::catch_unwind(AssertUnwindSafe(|| cell(tr))) {
        Ok(c) => c,
        Err(payload) => {
            tr.close_to(depth);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            finish_cell(key, Vec::new(), vec![format!("panicked: {msg}")], attempted)
        }
    }
}

fn app_key(name: &str) -> String {
    name.to_ascii_lowercase().replace('-', "_")
}

/// Run one application cell and check its output: the checksum against the
/// sequential reference, protocol and machine errors, and (when `checked`)
/// the recorded trace against the LRC memory model.
pub fn app_cell(
    app: &App,
    cfg: &SvmConfig,
    checked: bool,
    key: String,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> CellResult {
    let mut cfg = cfg.clone();
    if checked {
        cfg.trace = TraceConfig::recording();
    }
    let run = tr.scope(
        format!("core.run.{}", cfg.protocol.label().to_ascii_lowercase()),
        |_| app.bench.run(&cfg),
    );
    let r = &run.report;
    let mut why = Vec::new();
    if run.checksum != app.expected {
        why.push(format!(
            "checksum {:#x} differs from the sequential reference {:#x}",
            run.checksum, app.expected
        ));
    }
    if let Some(e) = r.errors.first() {
        why.push(format!("protocol error: {e:?}"));
    }
    if let Some(e) = r.outcome.errors.first() {
        why.push(format!("machine error: {e:?}"));
    }
    if checked {
        match &r.trace {
            None => why.push("no access trace was recorded".into()),
            Some(trace) => {
                counts.trace_events += trace.event_count() as u64;
                counts.trace_bytes += trace.approx_bytes() as u64;
                let report = tr.scope("checker.check_trace", |_| check_trace(trace));
                if !report.coherent() {
                    why.push(format!("trace is not coherent: {report}"));
                }
            }
        }
    }
    counts.add_report(r);
    let traffic = r.outcome.traffic.grand_total();
    let mut fields = vec![
        ("total_ns", r.outcome.total_time.as_nanos()),
        ("events", r.outcome.events_executed),
        ("messages", traffic.messages),
        ("bytes", traffic.bytes),
        ("checksum", run.checksum),
    ];
    if cfg.nodes == 64 {
        // Speedup up to the last barrier departure, so the verification
        // read-back after it is excluded: comparable with the unverified
        // runs of results/table2_full64.txt.
        let end = r
            .counters
            .barrier_marks
            .iter()
            .filter_map(|marks| marks.last().map(|m| m.1.as_nanos()))
            .max()
            .unwrap_or(0);
        let speedup = app.bench.seq_secs() * 1e9 / end as f64;
        fields.push(("speedup_x100", (speedup * 100.0).round() as u64));
    }
    finish_cell(key, fields, why, 1)
}

fn finish_cell(
    key: String,
    fields: Vec<(&'static str, u64)>,
    why: Vec<String>,
    attempted: u64,
) -> CellResult {
    let failed = if why.is_empty() { 0 } else { attempted };
    CellResult {
        fingerprint: Fingerprint { key, fields },
        failure: (!why.is_empty()).then(|| why.join("; ")),
        attempted,
        failed,
    }
}

/// Run one served-traffic cell and check it: no value or FIFO errors, no
/// protocol or machine errors, and every request completed.
fn serve_cell(
    spec: &ServeSpec,
    protocol: ProtocolName,
    key: String,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> CellResult {
    let service = spec.service.label();
    let run = tr.scope(
        format!("serve.run.{}", protocol.label().to_ascii_lowercase()),
        |_| spec.run_protocol(protocol),
    );
    let want = (spec.clients() * spec.ops_per_client) as u64;
    let ops = run.ops();
    let mut why = Vec::new();
    let bad = run.value_errors() + run.fifo_errors();
    if bad > 0 {
        why.push(format!(
            "{} value errors, {} FIFO errors",
            run.value_errors(),
            run.fifo_errors()
        ));
    }
    if ops != want {
        why.push(format!("{ops} of {want} requests completed"));
    }
    if let Some(e) = run.report.errors.first() {
        why.push(format!("protocol error: {e:?}"));
    }
    if let Some(e) = run.report.outcome.errors.first() {
        why.push(format!("machine error: {e:?}"));
    }
    counts.add_report(&run.report);
    counts.requests += ops;
    let mut lat = run.latencies_ns();
    counts.latencies_ns.extend_from_slice(&lat);
    lat.sort_unstable();
    let p99 = if lat.is_empty() {
        0
    } else {
        percentile(&lat, 0.99)
    };
    counts.serve_p99_ns.insert(
        format!("{service}.{}", protocol.label().to_ascii_lowercase()),
        p99,
    );
    let traffic = run.report.outcome.traffic.grand_total();
    let fields = vec![
        ("total_ns", run.report.outcome.total_time.as_nanos()),
        ("events", run.report.outcome.events_executed),
        ("messages", traffic.messages),
        ("bytes", traffic.bytes),
        ("checksum", run.checksum()),
    ];
    let mut cell = finish_cell(key, fields, why, want);
    if cell.failure.is_some() {
        // Every request that did not complete, or completed wrongly.
        cell.failed = (want - ops.min(want) + bad).clamp(1, want);
    }
    cell
}

/// Explore one configuration exhaustively; it fails on anything but a
/// clean report.
fn explore_cell(c: &ExploreCell, key: String, tr: &mut Tracer, counts: &mut Counts) -> CellResult {
    let cfg = base_config(c.protocol, c.nodes, c.recovery, 256);
    let mut ex = Explorer::new(cfg, Program::LockCounter { rounds: c.rounds });
    ex.opts = ExploreOptions {
        max_crashes: c.max_crashes,
        ..ExploreOptions::default()
    };
    let report = tr.scope("explore.run", |_| ex.run());
    let mut why = Vec::new();
    if let Some(cex) = &report.counterexample {
        why.push(format!("counterexample: {:?}", cex.what));
    }
    if let Some(e) = &report.error {
        why.push(format!("search error: {e}"));
    }
    if why.is_empty() && !report.clean() {
        why.push("report is not clean".into());
    }
    counts.states += report.states as u64;
    counts.transitions += report.transitions;
    counts.replays += report.replays;
    let fields = vec![
        ("states", report.states as u64),
        ("transitions", report.transitions),
        ("replays", report.replays),
        ("terminals", report.terminals),
        ("peak_depth", report.peak_depth as u64),
    ];
    finish_cell(key, fields, why, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_cell_fails_without_aborting_the_pass() {
        let mut tr = Tracer::new(true);
        let cell = guarded("w/c".into(), 3, &mut tr, |tr| {
            tr.open("core.run.lrc");
            panic!("boom")
        });
        assert_eq!(cell.failed, 3);
        assert!(cell.failure.as_deref().unwrap_or_default().contains("boom"));
        assert_eq!(tr.depth(), 0, "spans left open by the panic are closed");
    }
}
