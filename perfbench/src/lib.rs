//! `perfbench`: the repository benchmark.
//!
//! One run sets up one workload, then runs passes over it for a fixed
//! number of host seconds, checks every cell's output, and reports
//! end-to-end metrics (untraced) or per-layer metrics (traced). Layers are
//! reached only through their public functions; every count comes from the
//! deterministic statistics a run returns. See `README.md` beside this
//! package for the workloads, the metrics and which layer metric should
//! move which end-to-end metric.

pub mod fingerprint;
pub mod host;
pub mod kernels;
pub mod report;
pub mod spans;
pub mod workloads;

use std::time::Instant;

use svm_machine::accounting::CATEGORIES;
use svm_testkit::alloc;

use fingerprint::Fingerprint;
use report::{median, percentile, Metric};
use spans::Tracer;
use workloads::{Counts, Pass, Prepared, Size, Workload};

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Host seconds to spend on timed passes (at least one pass runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// The host the run measures on (recorded only).
    pub host: host::Host,
}

/// What a run produced.
pub struct Outcome {
    /// Human-readable report lines (machine record, cells, every metric).
    pub lines: Vec<String>,
    /// Whether every cell of every pass passed its checks.
    pub correct: bool,
    /// Units attempted over all passes.
    pub attempted: u64,
    /// Units failed over all passes.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The first pass's cell fingerprints.
    pub fingerprints: Vec<Fingerprint>,
    /// Every recorded span, as JSON (traced runs only).
    pub spans_json: Option<String>,
}

impl Outcome {
    /// The result line.
    pub fn json(&self) -> String {
        report::result_json(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// How many times instance construction is repeated; its median goes
/// into `setup_s`.
const SETUP_REPS: usize = 3;

/// One timed pass.
struct Sample {
    wall_s: f64,
    peak_bytes: u64,
    allocs: u64,
    traced: bool,
    group: String,
}

/// Run the benchmark.
pub fn run(opts: &Opts) -> Outcome {
    let w = opts.workload;
    let name = w.name();
    let mut lines = vec![
        opts.host.record(),
        format!(
            "run workload={name} seed={} seconds={} trace={} size={:?}",
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.size
        ),
    ];
    let mut tr = Tracer::new(opts.trace);

    // Set-up: one-time lazy initialisation, then instance construction and
    // sequential references, repeated.
    tr.set_group(format!("{name}#setup"));
    let t = Instant::now();
    let warm = tr.scope("bench.warm_up", |_| workloads::warm_up(w));
    let once_s = t.elapsed().as_secs_f64();
    let (mut attempted, mut failed) = (warm.attempted(), warm.failed());
    for c in warm.cells.iter().filter(|c| c.failure.is_some()) {
        lines.push(format!(
            "cell {} FAIL in warm-up: {}",
            c.fingerprint.key,
            c.failure.as_deref().unwrap_or_default()
        ));
    }
    let mut build_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let p = tr.scope("bench.prepare", |_| {
            workloads::prepare(w, opts.size, opts.seed)
        });
        build_s.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up repetition");
    let setup_s = once_s + median(&build_s);

    // Timed passes. A traced run alternates untraced and traced passes so
    // the difference between the two is the tracing overhead.
    let budget = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut first: Option<Pass> = None;
    loop {
        let traced = opts.trace && !samples.len().is_multiple_of(2);
        let group = format!("{name}#pass{}", samples.len());
        tr.set_enabled(traced);
        tr.set_group(group.clone());
        alloc::reset_peak();
        let allocs0 = alloc::stats().allocation_count;
        let t = Instant::now();
        let pass = tr.scope("bench.pass", |tr| workloads::run_pass(&prepared, tr));
        let wall_s = t.elapsed().as_secs_f64();
        let st = alloc::stats();
        samples.push(Sample {
            wall_s,
            peak_bytes: st.peak_live_bytes,
            allocs: st.allocation_count - allocs0,
            traced,
            group,
        });
        attempted += pass.attempted();
        failed += pass.failed();
        match &first {
            None => {
                for c in &pass.cells {
                    let verdict = c
                        .failure
                        .as_deref()
                        .map_or("ok".to_string(), |f| format!("FAIL {f}"));
                    lines.push(format!(
                        "cell {} {} {verdict}",
                        c.fingerprint.key,
                        c.fingerprint.values()
                    ));
                }
                first = Some(pass);
            }
            Some(f0) => {
                for (a, b) in f0.cells.iter().zip(&pass.cells) {
                    if a.fingerprint != b.fingerprint {
                        failed += 1;
                        lines.push(format!(
                            "cell {} FAIL nondeterministic: pass 0 {}, pass {} {}",
                            a.fingerprint.key,
                            a.fingerprint.values(),
                            samples.len() - 1,
                            b.fingerprint.values()
                        ));
                    }
                }
                for c in pass.cells.iter().filter(|c| c.failure.is_some()) {
                    lines.push(format!(
                        "cell {} FAIL in pass {}",
                        c.fingerprint.key,
                        samples.len() - 1
                    ));
                }
            }
        }
        // Stop when the next pass (pair, when traced) would overrun the
        // budget; a traced run always ends on a whole pair.
        let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
        let paired = !opts.trace || samples.len().is_multiple_of(2);
        let next = if opts.trace { 2.0 } else { 1.0 } * median(&walls);
        if paired && budget.elapsed().as_secs_f64() + next > opts.seconds {
            break;
        }
    }
    tr.set_enabled(opts.trace);
    let first = first.expect("at least one pass");
    let counts = &first.counts;
    let fingerprints: Vec<Fingerprint> =
        first.cells.iter().map(|c| c.fingerprint.clone()).collect();
    let (pinned, mismatches) = fingerprint::compare(&fingerprint::pinned(), &fingerprints);
    for m in &mismatches {
        lines.push(format!("fingerprint mismatch {m}"));
    }
    lines.push(format!(
        "fingerprints pinned={pinned} mismatches={} of {} cells",
        mismatches.len(),
        fingerprints.len()
    ));

    let plain: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let wall_s = median(&plain.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let peak_mb = median(
        &plain
            .iter()
            .map(|s| s.peak_bytes as f64)
            .collect::<Vec<_>>(),
    ) / 1e6;
    lines.push(format!(
        "passes untraced={} traced={} walls_s={:?}",
        plain.len(),
        samples.len() - plain.len(),
        samples.iter().map(|s| s.wall_s).collect::<Vec<_>>()
    ));

    let e2e = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_heap_mb", peak_mb, "MB"),
    ];
    let error_rate = Metric::new("error_rate", failed as f64 / attempted as f64, "ratio");
    for m in e2e
        .iter()
        .chain([&error_rate])
        .chain(&workload_metrics(&prepared, counts, wall_s))
    {
        lines.push(format!("metric {} {} {}", m.name, m.value, m.unit));
    }

    let (metrics, spans_json) = if opts.trace {
        let mut m = layer_metrics(counts, &samples, &tr, wall_s);
        m.push(Metric::new(
            "core.fingerprint_pinned",
            pinned as f64,
            "count",
        ));
        m.push(Metric::new(
            "core.fingerprint_mismatches",
            mismatches.len() as f64,
            "count",
        ));
        tr.set_group(format!("{name}#kernels"));
        let diff_bytes = match counts.mean_diff_bytes() {
            0 => 256,
            b => b,
        };
        let (k, kernel_diff) = tr.scope("bench.kernels", |tr| {
            kernels::run_kernels(diff_bytes, opts.size == Size::Tiny, tr)
        });
        lines.push(format!("kernels diff_payload_bytes={kernel_diff}"));
        m.extend(estimates(counts, &k));
        m.extend(k);
        for x in &m {
            lines.push(format!("layer {} {} {}", x.name, x.value, x.unit));
        }
        (m, Some(tr.to_json()))
    } else {
        (e2e, None)
    };

    Outcome {
        lines,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        fingerprints,
        spans_json,
    }
}

/// The end-to-end metrics that apply to only some workloads. They are
/// printed in the report; the result line carries the ones every workload
/// has.
fn workload_metrics(p: &Prepared, c: &Counts, wall_s: f64) -> Vec<Metric> {
    let mut m = Vec::new();
    match p {
        Prepared::Apps { .. } => {
            m.push(Metric::new("events_per_s", c.events as f64 / wall_s, "1/s"));
            m.push(Metric::new("virtual_s", c.virtual_ns as f64 / 1e9, "sim_s"));
        }
        Prepared::Serve { .. } => {
            let mut lat = c.latencies_ns.clone();
            lat.sort_unstable();
            m.push(Metric::new("events_per_s", c.events as f64 / wall_s, "1/s"));
            m.push(Metric::new("req_per_s", c.requests as f64 / wall_s, "1/s"));
            if !lat.is_empty() {
                m.push(Metric::new(
                    "p50_us",
                    percentile(&lat, 0.50) as f64 / 1e3,
                    "sim_us",
                ));
                m.push(Metric::new(
                    "p99_us",
                    percentile(&lat, 0.99) as f64 / 1e3,
                    "sim_us",
                ));
            }
        }
        Prepared::Explore { .. } => {
            m.push(Metric::new("states_per_s", c.states as f64 / wall_s, "1/s"));
        }
    }
    m
}

/// Layers whose self time is reported, by span-name prefix.
const LAYERS: [&str; 5] = ["bench", "core", "checker", "serve", "explore"];

/// Per-layer metrics from the first pass's counts and the traced passes'
/// spans (medians over traced passes).
fn layer_metrics(c: &Counts, samples: &[Sample], tr: &Tracer, wall_s: f64) -> Vec<Metric> {
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let span_s = |pred: &dyn Fn(&str) -> bool| {
        let per: Vec<f64> = traced
            .iter()
            .map(|s| {
                tr.spans()
                    .iter()
                    .filter(|x| x.group == s.group && pred(&x.name))
                    .map(|x| x.dur_ns() as f64 / 1e9)
                    .sum()
            })
            .collect();
        median(&per)
    };
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count");
    let mut m = vec![
        count("sim.events", c.events),
        count("mem.diffs_created", c.diffs_created),
        count("mem.diffs_applied", c.diffs_applied),
        Metric::new("mem.diff_bytes", c.diff_bytes as f64, "B"),
        count("core.read_misses", c.read_misses),
        count("core.write_faults", c.write_faults),
        count("core.remote_lock_acquires", c.remote_lock_acquires),
        count("core.full_page_fetches", c.full_page_fetches),
        count("core.home_stalls", c.home_stalls),
        count("core.gc_runs", c.gc_runs),
        Metric::new(
            "core.proto_mem_peak_bytes",
            c.proto_mem_peak_bytes as f64,
            "B",
        ),
        count("machine.messages", c.messages),
        Metric::new("machine.bytes", c.bytes as f64, "B"),
    ];
    for (cat, ns) in CATEGORIES.iter().zip(c.category_ns) {
        m.push(Metric::new(
            format!("machine.{}_s", cat.label()),
            ns as f64 / 1e9,
            "sim_s",
        ));
    }
    for p in svm_core::ProtocolName::ALL {
        let l = p.label().to_ascii_lowercase();
        let run_s =
            span_s(&|n: &str| n == format!("core.run.{l}") || n == format!("serve.run.{l}"));
        m.push(Metric::new(format!("core.run_s.{l}"), run_s, "s"));
    }
    m.push(Metric::new(
        "checker.replay_s",
        span_s(&|n: &str| n == "checker.check_trace"),
        "s",
    ));
    m.push(count("checker.trace_events", c.trace_events));
    m.push(Metric::new(
        "checker.trace_mb",
        c.trace_bytes as f64 / 1e6,
        "MB",
    ));
    m.push(count("serve.ops", c.requests));
    for service in ["kv", "session"] {
        for p in svm_core::ProtocolName::ALL {
            let key = format!("{service}.{}", p.label().to_ascii_lowercase());
            let ns = c.serve_p99_ns.get(&key).copied().unwrap_or(0);
            m.push(Metric::new(
                format!("serve.p99_us.{key}"),
                ns as f64 / 1e3,
                "sim_us",
            ));
        }
    }
    m.push(count("explore.states", c.states));
    m.push(count("explore.transitions", c.transitions));
    m.push(count("explore.replays", c.replays));
    let per_transition = if c.transitions == 0 {
        0.0
    } else {
        wall_s * 1e9 / c.transitions as f64
    };
    m.push(Metric::new(
        "explore.ns_per_transition",
        per_transition,
        "ns",
    ));
    let plain: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.allocs as f64)
        .collect();
    m.push(count("host.allocs", median(&plain) as u64));
    for layer in LAYERS {
        let per: Vec<f64> = traced
            .iter()
            .map(|s| tr.self_ns(&s.group).get(layer).copied().unwrap_or(0) as f64 / 1e9)
            .collect();
        m.push(Metric::new(format!("self.{layer}_s"), median(&per), "s"));
    }
    let traced_wall = median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    m.push(Metric::new("trace.overhead_s", traced_wall - wall_s, "s"));
    m
}

/// Computed (not measured) time estimates: counts × kernel ns.
fn estimates(c: &Counts, kernels: &[Metric]) -> Vec<Metric> {
    let k = |name: &str| {
        kernels
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let mem_ns = c.diffs_created as f64 * k("mem.diff_create_ns")
        + c.diffs_applied as f64 * k("mem.diff_apply_ns")
        + c.write_faults as f64 * k("mem.twin_copy_ns");
    vec![
        Metric::new("est.sim_s", c.events as f64 * k("sim.sched_ns") / 1e9, "s"),
        Metric::new("est.mem_s", mem_ns / 1e9, "s"),
    ]
}
