//! Figures 1 and 2: protocol message timelines on the paper's three-node
//! example — node 0 writes x under a lock, node 1 acquires and reads x,
//! node 2 is the page's home. Run with the four protocols and print the
//! message sequence (requires the trace hook, enabled here).

use svm_bench::cli;
use svm_core::{run, BarrierId, LockId, ProtocolName, SvmConfig};

fn main() {
    cli::sweep_options(&[]);
    for protocol in ProtocolName::ALL {
        eprintln!("\n==== {protocol}: write(x) on n0; acquire+read(x) on n1; home = n2 ====");
        let mut cfg = SvmConfig::new(protocol, 3);
        cfg.home_policy = svm_core::HomePolicy::Explicit;
        cfg.trace.debug_log = true;
        run(
            &cfg,
            |s| {
                let x = s.alloc_array_pages::<u64>(1, "x");
                s.assign_home(&x, 0..1, 2); // node 2 is the home (Figure 1c)
                x
            },
            |ctx, x| {
                match ctx.node() {
                    0 => {
                        ctx.lock(LockId(0));
                        x.set(ctx, 0, 42);
                        ctx.unlock(LockId(0));
                        ctx.compute_us(100);
                    }
                    1 => {
                        ctx.compute_us(2_000); // let n0 go first
                        ctx.lock(LockId(0));
                        assert_eq!(x.get(ctx, 0), 42);
                        ctx.unlock(LockId(0));
                    }
                    _ => {}
                }
                ctx.barrier(BarrierId(0));
            },
        );
    }
}
