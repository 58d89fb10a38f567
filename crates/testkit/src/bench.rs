//! The wall-clock [`Stopwatch`].
//!
//! Micro-kernel timings live in the repository benchmark (`perfbench/`);
//! this module only times whole stages: the explorer's states/s, and the
//! serial-versus-parallel sweep gate in `crates/bench/tests/engine_equivalence.rs`.

use std::time::Instant;

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

    /// Elapsed wall-clock milliseconds since start, fractional.
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_nanos() as f64 / 1e6
    }
}
