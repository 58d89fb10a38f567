//! Architectural sensitivity (paper Section 4.8 discussion): with fast
//! interrupts and low-latency messages "the performance gap between the
//! home-based and the homeless protocols would probably be smaller". This
//! ablation reruns the sweep under a modern-network cost model and compares
//! the HLRC-over-LRC advantage.

use svm_bench::{cli, Table};
use svm_core::{ProtocolName, SvmConfig};
use svm_machine::CostModel;

fn main() {
    let opts = cli::sweep_options();
    println!(
        "\nSection 4.8 sensitivity: HLRC advantage over LRC, Paragon vs fast network (scale {})\n",
        opts.scale
    );
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "Paragon: LRC s",
        "HLRC s",
        "gap %",
        "Fast net: LRC s",
        "HLRC s",
        "gap %",
    ]);
    for bench in opts.suite() {
        for &nodes in &opts.nodes {
            let mut row = vec![bench.name().to_string(), nodes.to_string()];
            for cost in [CostModel::paragon(), CostModel::fast_network()] {
                let mut lrc_cfg = SvmConfig::new(ProtocolName::Lrc, nodes);
                lrc_cfg.cost = cost.clone();
                let mut hlrc_cfg = SvmConfig::new(ProtocolName::Hlrc, nodes);
                hlrc_cfg.cost = cost.clone();
                eprintln!("running {} x{nodes}...", bench.name());
                let lrc = bench.run(&lrc_cfg).report.secs();
                let hlrc = bench.run(&hlrc_cfg).report.secs();
                row.push(format!("{lrc:.3}"));
                row.push(format!("{hlrc:.3}"));
                row.push(format!("{:.1}", (lrc / hlrc - 1.0) * 100.0));
            }
            t.row(row);
        }
    }
    t.print();
    println!("\nExpected shape: the gap column shrinks under the fast network.");
}
