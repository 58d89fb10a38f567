//! Layer kernels, timed on the host: the scheduler, the app↔kernel
//! rendezvous, diff and twin operations, vector-time operations,
//! `causal_sort`, and the protocol micro-scenarios. These are the bodies of
//! the harness benches in `crates/bench/benches/`, called through the same
//! public functions, so their numbers are recorded on every traced run.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use svm_apps::sor::Sor;
use svm_apps::Benchmark;
use svm_core::msg::DiffPacket;
use svm_core::protocol::fault::causal_sort;
use svm_core::{run, BarrierId, LockId, ProtocolName, SvmConfig, VectorTime};
use svm_machine::NodeId;
use svm_mem::{Diff, PageBuf};
use svm_sim::{spawn_process, Scheduler, SimDuration, Yielded};

use crate::report::{median, Metric};
use crate::spans::Tracer;

const PAGE: usize = 8192;
const BATCHES: usize = 5;

/// Median over batches of the mean host time per call, in nanoseconds.
fn ns_per_op<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&per)
}

/// As [`ns_per_op`], for calls that consume an input built outside the
/// timed section.
fn ns_per_batched<S, R>(iters: u32, mut make: impl FnMut() -> S, mut f: impl FnMut(S) -> R) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let inputs: Vec<S> = (0..iters).map(|_| make()).collect();
            let t = Instant::now();
            for s in inputs {
                black_box(f(s));
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&per)
}

/// A twin and a copy with `words` evenly spaced 4-byte words changed.
fn dirty_page(words: usize) -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0x5Au8; PAGE];
    let mut cur = twin.clone();
    let step = (PAGE / 4) / words.max(1);
    for w in 0..words {
        let off = (w * step * 4) % (PAGE - 4);
        cur[off..off + 4].copy_from_slice(&(w as u32).to_le_bytes());
    }
    (twin, cur)
}

/// Ten thousand scheduler events; host ns per event.
fn sched_ns(iters: u32) -> f64 {
    const EVENTS: u64 = 10_000;
    ns_per_op(iters, || {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut world = 0u64;
        for i in 0..EVENTS {
            s.after(SimDuration::from_nanos(i % 97), |_, w: &mut u64| *w += 1);
        }
        s.run(&mut world);
        world
    }) / EVENTS as f64
}

/// Host ns per `ProcessPort::request` round trip with a kernel that
/// answers at once.
fn rendezvous_ns(trips: u64) -> f64 {
    ns_per_op(1, || {
        let mut p = spawn_process::<u64, u64, _>("rendezvous", move |port| {
            for i in 0..trips {
                black_box(port.request(i));
            }
        });
        let mut y = p.next_yield();
        while let Yielded::Request(r) = y {
            y = p.resume(r + 1);
        }
        assert!(
            matches!(y, Yielded::Finished(Ok(()))),
            "rendezvous body failed"
        );
    }) / trips as f64
}

/// Packets from 64 writers, two intervals each, where each writer's second
/// interval saw its neighbour's first: the chain-merge case `causal_sort`
/// meets on a homeless 64-node fault.
fn packets64() -> Vec<DiffPacket> {
    const W: usize = 64;
    let mut out = Vec::with_capacity(2 * W);
    for interval in (1..=2u32).rev() {
        for w in (0..W).rev() {
            let mut vt = VectorTime::zero(W);
            vt.set(NodeId(w as u16), interval);
            if interval == 2 {
                vt.set(NodeId(((w + 1) % W) as u16), 1);
            }
            out.push(DiffPacket {
                writer: NodeId(w as u16),
                interval,
                vt: Rc::new(vt),
                diff: Rc::new(Diff::default()),
            });
        }
    }
    out
}

fn vt64(mul: usize, add: usize) -> VectorTime {
    let mut vt = VectorTime::zero(64);
    for i in 0..64 {
        vt.set(NodeId(i as u16), (i * mul + add) as u32);
    }
    vt
}

/// One remote page miss: node 1 reads a page homed at node 0.
fn page_miss(protocol: ProtocolName) -> f64 {
    let report = run(
        &SvmConfig::new(protocol, 2),
        |s| {
            let a = s.alloc_array_pages::<u64>(1024, "page");
            s.assign_home(&a, 0..1024, 0);
            a
        },
        |ctx, a| {
            if ctx.node() == 1 {
                let _ = a.get(ctx, 0);
            }
            ctx.barrier(BarrierId(0));
        },
    );
    report.secs()
}

/// Ten lock handoffs between two nodes.
fn lock_pingpong(protocol: ProtocolName) -> f64 {
    let report = run(
        &SvmConfig::new(protocol, 2),
        |s| s.alloc_array::<u64>(1, "x"),
        |ctx, x| {
            for _ in 0..10 {
                ctx.lock(LockId(0));
                let v = x.get(ctx, 0);
                x.set(ctx, 0, v + 1);
                ctx.unlock(LockId(0));
                ctx.compute_us(200);
            }
            ctx.barrier(BarrierId(0));
        },
    );
    report.secs()
}

/// Time every kernel, each inside its own span. Diff kernels run on 8 KiB
/// pages dirtied to `mean_diff_bytes` (the workload's mean diff payload).
/// `quick` divides every iteration count by 100, for smoke tests. Returns
/// the metrics and the payload bytes of the diff the kernels used.
pub fn run_kernels(mean_diff_bytes: u64, quick: bool, tr: &mut Tracer) -> (Vec<Metric>, usize) {
    let n = |iters: u32| if quick { iters.div_ceil(100) } else { iters };
    let mut m = Vec::new();
    let words = usize::try_from(mean_diff_bytes / 4)
        .unwrap_or(usize::MAX)
        .clamp(1, PAGE / 4);

    m.push(Metric::new(
        "sim.sched_ns",
        tr.scope("sim.scheduler", |_| sched_ns(n(4))),
        "ns",
    ));
    m.push(Metric::new(
        "sim.rendezvous_ns",
        tr.scope("sim.rendezvous", |_| rendezvous_ns(n(1_000).into())),
        "ns",
    ));

    let (twin, cur) = dirty_page(words);
    let d = Diff::create(&twin, &cur);
    let create = tr.scope("mem.diff_create", |_| {
        ns_per_op(n(2_000), || Diff::create(black_box(&twin), black_box(&cur)))
    });
    m.push(Metric::new("mem.diff_create_ns", create, "ns"));
    let apply = tr.scope("mem.diff_apply", |_| {
        ns_per_batched(
            n(2_000),
            || twin.clone(),
            |mut dst| d.apply(black_box(&mut dst)),
        )
    });
    m.push(Metric::new("mem.diff_apply_ns", apply, "ns"));
    let undo = Diff::create(&cur, &twin);
    let merge = tr.scope("mem.diff_merge", |_| {
        ns_per_op(n(1_000), || d.merge(black_box(&undo), PAGE))
    });
    m.push(Metric::new("mem.diff_merge_ns", merge, "ns"));
    let mut page = PageBuf::new_zeroed(PAGE);
    let twin_copy = tr.scope("mem.twin_copy", |_| ns_per_op(n(2_000), || page.to_vec()));
    m.push(Metric::new("mem.twin_copy_ns", twin_copy, "ns"));

    let sort = tr.scope("core.causal_sort", |_| {
        ns_per_batched(n(200), packets64, |mut v| causal_sort(black_box(&mut v)))
    });
    m.push(Metric::new("core.causal_sort_ns", sort, "ns"));
    let (a, b) = (vt64(3, 0), vt64(2, 1));
    let vt_merge = tr.scope("core.vt_merge", |_| {
        ns_per_batched(n(20_000), || a.clone(), |mut x| x.merge(black_box(&b)))
    });
    m.push(Metric::new("core.vt_merge_ns", vt_merge, "ns"));
    let vt_dom = tr.scope("core.vt_dominates", |_| {
        ns_per_op(n(20_000), || black_box(&a).dominates(black_box(&b)))
    });
    m.push(Metric::new("core.vt_dominates_ns", vt_dom, "ns"));

    for p in ProtocolName::ALL {
        let l = p.label().to_ascii_lowercase();
        let miss = tr.scope(format!("core.page_miss.{l}"), |_| {
            ns_per_op(n(10), || page_miss(p))
        });
        m.push(Metric::new(
            format!("core.page_miss_us.{l}"),
            miss / 1e3,
            "us",
        ));
        let ping = tr.scope(format!("core.lock_pingpong.{l}"), |_| {
            ns_per_op(n(10), || lock_pingpong(p))
        });
        m.push(Metric::new(
            format!("core.lock_pingpong_us.{l}"),
            ping / 1e3,
            "us",
        ));
    }

    let sor = Sor {
        rows: 64,
        cols: 128,
        iters: 3,
        ..Sor::scaled(0.1)
    };
    for p in [ProtocolName::Lrc, ProtocolName::Ohlrc] {
        let l = p.label().to_ascii_lowercase();
        let ms = tr.scope(format!("sim.sor_run.{l}"), |_| {
            ns_per_op(1, || sor.run(&SvmConfig::new(p, 8)).report.secs())
        });
        m.push(Metric::new(format!("sim.sor_run_ms.{l}"), ms / 1e6, "ms"));
    }
    (m, d.payload_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_set_sorts_into_causal_order() {
        let mut v = packets64();
        causal_sort(&mut v);
        // Every first interval precedes every second interval that saw it.
        let pos = |w: usize, i: u32| {
            v.iter()
                .position(|p| p.writer == NodeId(w as u16) && p.interval == i)
                .expect("packet present")
        };
        for w in 0..64 {
            assert!(pos((w + 1) % 64, 1) < pos(w, 2));
            assert!(pos(w, 1) < pos(w, 2));
        }
    }

    #[test]
    fn dirty_page_diff_has_requested_size() {
        let (t, c) = dirty_page(16);
        assert_eq!(Diff::create(&t, &c).payload_bytes(), 64);
    }
}
