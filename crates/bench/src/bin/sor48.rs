//! Section 4.8: SOR with a zero interior — the LRC-favourable extreme
//! (diffs empty or tiny for many iterations). The paper finds HLRC still
//! ~10% faster; the shape to reproduce is "HLRC >= LRC even here".

use svm_apps::sor::Sor;
use svm_apps::Benchmark;
use svm_bench::cli::{self, Flag};
use svm_bench::{Record, Sweep, Table};
use svm_core::ProtocolName;

fn main() {
    let opts = cli::sweep_options(&[Flag::Scale, Flag::Nodes]);
    let sor = Sor::zero_interior(opts.scale);
    println!(
        "\nSection 4.8: SOR with zero interior ({}), scale {}\n",
        sor.size_label(),
        opts.scale
    );
    let records = Sweep::new(
        vec![Box::new(sor)],
        opts.nodes.clone(),
        [ProtocolName::Lrc, ProtocolName::Hlrc],
    )
    .run();
    let t = |row: &[Record], v: usize| row[v].run.report.secs();
    Table::new()
        .col("Nodes", |row: &[Record]| row[0].nodes.to_string())
        .col("T LRC (s)", |row| format!("{:.3}", t(row, 0)))
        .col("T HLRC (s)", |row| format!("{:.3}", t(row, 1)))
        .col("HLRC advantage %", |row| {
            format!("{:.1}", (t(row, 0) / t(row, 1) - 1.0) * 100.0)
        })
        .print(records.chunks(2));
}
