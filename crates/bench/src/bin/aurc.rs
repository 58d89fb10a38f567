//! AURC versus HLRC (paper Section 2.2): the bandwidth-versus-overhead
//! tradeoff between hardware automatic update and software diffs.
//!
//! Expected shapes: AURC spends no time on twins/diffs (lower protocol
//! overhead, often slightly faster) but moves more update bytes
//! (write-through amplification); HLRC trades a little software overhead
//! for less traffic. "The major tradeoff between AURC and LRC is between
//! bandwidth and protocol overhead."

use svm_bench::{cli, mb, Table};
use svm_core::{ProtocolName, SvmConfig};
use svm_machine::{Category, TrafficClass};

fn main() {
    let mut opts = cli::sweep_options();
    opts.protocols = vec![ProtocolName::Hlrc, ProtocolName::Aurc];
    println!("\nAURC vs HLRC (scale {})\n", opts.scale);
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "T HLRC s",
        "T AURC s",
        "Proto% HLRC",
        "Proto% AURC",
        "Update MB HLRC",
        "Update MB AURC",
    ]);
    for bench in opts.suite() {
        for &nodes in &opts.nodes {
            let get = |p: ProtocolName| {
                eprintln!("running {} under {p} x{nodes}...", bench.name());
                bench.run(&SvmConfig::new(p, nodes)).report
            };
            let h = get(ProtocolName::Hlrc);
            let a = get(ProtocolName::Aurc);
            let proto_pct = |r: &svm_core::RunReport| {
                let b = r.avg_breakdown();
                b[Category::Protocol].as_secs_f64() / b.total().as_secs_f64() * 100.0
            };
            t.row(vec![
                bench.name().into(),
                nodes.to_string(),
                format!("{:.3}", h.secs()),
                format!("{:.3}", a.secs()),
                format!("{:.1}", proto_pct(&h)),
                format!("{:.1}", proto_pct(&a)),
                mb(h.outcome.traffic.total(TrafficClass::Data).bytes),
                mb(a.outcome.traffic.total(TrafficClass::Data).bytes),
            ]);
        }
    }
    t.print();
}
