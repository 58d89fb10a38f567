//! Architectural sensitivity (paper Section 4.8 discussion): with fast
//! interrupts and low-latency messages "the performance gap between the
//! home-based and the homeless protocols would probably be smaller". This
//! ablation reruns the sweep under a modern-network cost model and compares
//! the HLRC-over-LRC advantage.

use svm_bench::cli::{self, Flag};
use svm_bench::{Record, Table, Variant};
use svm_core::ProtocolName;
use svm_machine::CostModel;

/// Run time of the row's cell `v`: LRC then HLRC, Paragon then fast network.
fn t(row: &[Record], v: usize) -> f64 {
    row[v].run.report.secs()
}

fn main() {
    let opts = cli::sweep_options(&[Flag::Scale, Flag::Nodes, Flag::Apps]);
    println!(
        "\nSection 4.8 sensitivity: HLRC advantage over LRC, Paragon vs fast network (scale {})\n",
        opts.scale
    );
    let variants = [CostModel::paragon(), CostModel::fast_network()]
        .into_iter()
        .flat_map(|cost| {
            [ProtocolName::Lrc, ProtocolName::Hlrc].map(|p| {
                let cost = cost.clone();
                Variant::with(p, move |cfg| cfg.cost = cost.clone())
            })
        });
    let records = opts.sweep(variants).run();
    let mut table = Table::new()
        .col("Application", |row: &[Record]| row[0].app.into())
        .col("Nodes", |row| row[0].nodes.to_string());
    for (net, lrc) in [("Paragon", 0), ("Fast net", 2)] {
        table = table
            .col(format!("{net}: LRC s"), move |row| {
                format!("{:.3}", t(row, lrc))
            })
            .col("HLRC s", move |row| format!("{:.3}", t(row, lrc + 1)))
            .col("gap %", move |row| {
                format!("{:.1}", (t(row, lrc) / t(row, lrc + 1) - 1.0) * 100.0)
            });
    }
    table.print(records.chunks(4));
    println!("\nExpected shape: the gap column shrinks under the fast network.");
}
