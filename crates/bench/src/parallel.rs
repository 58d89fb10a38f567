//! The parallel experiment driver.
//!
//! Every cell of a sweep (one workload x node-count x variant run) is an
//! independent, seeded, virtual-time simulation: nothing it computes
//! depends on wall-clock interleaving, so the cells can execute on any
//! number of worker threads and still produce bit-identical results. The
//! driver exploits that: jobs are numbered in the canonical (serial) order,
//! workers pull the next unclaimed index from an atomic counter, and
//! results are collected *by index*, so the output vector is byte-for-byte
//! the one the serial loop would have produced — only the wall-clock order
//! of execution changes (DESIGN.md §13).
//!
//! Worker count: `SVM_BENCH_THREADS` if set, else the machine's available
//! parallelism, always clamped to the job count. `threads <= 1` runs the
//! jobs inline on the calling thread with no pool at all, which keeps the
//! serial path available as the baseline of the identity and speedup gates
//! in `tests/engine_equivalence.rs`.
//!
//! Memory behavior: the engine's scratch arenas (`svm_mem::pool` byte
//! vectors, the machine's service-segment vectors, the scheduler's event
//! slab) are **thread-local**, so a worker that runs many cells reuses
//! the same arenas across all of them — the first cell pays the
//! allocations, later cells recycle. Handout is bounded to one job per
//! worker at a time (the atomic counter claims a single index, never a
//! batch), so peak live memory is `workers x (one cell's live state)`
//! plus the per-thread pools, each of which has a hard cap (e.g.
//! `svm_mem::pool`'s `MAX_POOLED_VECS`, the machine's
//! `MAX_POOLED_SEG_VECS`) —
//! peak memory stays bounded no matter how many cells a sweep has.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads to use for `jobs` independent runs: the explicit
/// `SVM_BENCH_THREADS` override, else available parallelism, clamped to
/// the job count (and to at least 1).
pub fn workers(jobs: usize) -> usize {
    let configured = std::env::var("SVM_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    configured.clamp(1, jobs.max(1))
}

/// Run `f(0..n)` across `threads` scoped workers and return the results in
/// index order — deterministically, regardless of which worker ran which
/// job or in what wall-clock order they finished.
///
/// With `threads <= 1` the jobs run inline on the calling thread (no pool,
/// no synchronization): this is the serial baseline path.
///
/// # Panics
///
/// Propagates the first worker panic (the scope joins all workers first).
pub fn run_ordered<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    let workers = threads.min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                done.lock()
                    .expect("worker panicked holding results lock")
                    .push((i, out));
            });
        }
    });
    let mut done = done
        .into_inner()
        .expect("worker panicked holding results lock");
    assert_eq!(done.len(), n, "every job must report exactly once");
    // Indices are unique, so an unstable sort is deterministic here.
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = run_ordered(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(run_ordered(2, 16, |i| i), vec![0, 1]);
        assert_eq!(run_ordered(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parallel_equals_serial_for_sim_runs() {
        use svm_core::{ProtocolName, SvmConfig};
        let bench = svm_apps::sor::Sor {
            rows: 24,
            cols: 48,
            iters: 2,
            ..svm_apps::sor::Sor::scaled(0.05)
        };
        let cfgs: Vec<SvmConfig> = [ProtocolName::Lrc, ProtocolName::Hlrc]
            .iter()
            .flat_map(|&p| [2usize, 4].map(|n| SvmConfig::new(p, n)))
            .collect();
        let serial = run_ordered(cfgs.len(), 1, |i| {
            use svm_apps::Benchmark;
            bench.run(&cfgs[i]).report.outcome.total_time
        });
        let parallel = run_ordered(cfgs.len(), 4, |i| {
            use svm_apps::Benchmark;
            bench.run(&cfgs[i]).report.outcome.total_time
        });
        assert_eq!(
            serial, parallel,
            "virtual time must not depend on threading"
        );
    }

    #[test]
    fn workers_respects_job_clamp() {
        assert_eq!(workers(0), 1);
        assert!(workers(1) == 1);
        assert!(workers(1000) >= 1);
    }
}
