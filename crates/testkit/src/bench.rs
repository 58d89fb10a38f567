//! A std-only micro-benchmark harness — the hermetic stand-in for
//! criterion, embedded in `svm-bench --bin perf`'s micro stage — and the
//! wall-clock [`Stopwatch`].
//!
//! Methodology: warm up, calibrate an iteration count so one sample takes
//! roughly the target time, take a fixed number of samples, and report the
//! median in ns/iteration. `black_box` is re-exported from `std::hint` so
//! bench bodies keep optimizer barriers.

pub use std::hint::black_box;
use std::time::Instant;

/// A measurement budget for timed micro-benchmarks.
pub struct Harness {
    samples: usize,
    target_sample_nanos: u128,
}

impl Harness {
    /// A harness taking `samples` timed samples of roughly
    /// `target_sample_nanos` each.
    pub fn new(samples: usize, target_sample_nanos: u128) -> Self {
        Harness {
            samples: samples.max(1),
            target_sample_nanos: target_sample_nanos.max(1),
        }
    }

    /// Time `f`, returning the median ns per call.
    pub fn bench<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        // Warm up and estimate a single-call cost. The warm-up window
        // scales with the sample budget so a reduced-budget harness does
        // not spend most of its calls here.
        let warmup_millis = (self.target_sample_nanos / 1_000_000).clamp(2, 10);
        let per_call = {
            let t = Instant::now();
            let mut calls = 0u64;
            while t.elapsed().as_millis() < warmup_millis {
                black_box(f());
                calls += 1;
            }
            (t.elapsed().as_nanos() / calls.max(1) as u128).max(1)
        };
        let iters = ((self.target_sample_nanos / per_call) as u64).clamp(1, 10_000_000);
        let mut samples = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    }
}

/// A wall-clock stopwatch for stage timing.
///
/// Lives here (not in the caller) because the analyzer's `determinism`
/// rule bans `Instant::now` outside `svm-testkit`/`svm-analyzer`: wall
/// clocks must never leak into simulation code, and routing all timing
/// through this type keeps that audit trivially greppable.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Elapsed wall-clock nanoseconds since start.
    pub fn elapsed_ns(&self) -> u128 {
        self.0.elapsed().as_nanos()
    }

    /// Elapsed wall-clock milliseconds since start, fractional.
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_nanos() as f64 / 1e6
    }
}
