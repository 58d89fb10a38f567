//! Table 6: memory requirements — application memory versus protocol
//! memory (twins, diffs, write notices) high-water marks, LRC vs HLRC.
//!
//! To expose the paper's growth effect, LRC runs with garbage collection
//! effectively disabled here (as in the paper's measurement, which reports
//! memory "if a garbage collection is triggered only at a barrier").

use svm_bench::cli::{self, Flag};
use svm_bench::{mb, Record, Table, Variant};
use svm_core::ProtocolName;

/// The worst node's protocol memory in the row's cell `v` (0 LRC, 1 HLRC).
fn proto(row: &[Record], v: usize) -> u64 {
    row[v].run.report.counters.max_protocol_memory()
}

/// That memory over the application's.
fn ratio(row: &[Record], v: usize) -> f64 {
    proto(row, v) as f64 / row[0].run.report.app_bytes as f64
}

fn main() {
    let opts = cli::sweep_options(&[Flag::Scale, Flag::Nodes, Flag::Apps]);
    println!(
        "\nTable 6: memory requirements, worst node (scale {})\n",
        opts.scale
    );
    let lrc_no_gc = Variant::with(ProtocolName::Lrc, |cfg| cfg.gc_threshold_bytes = u64::MAX);
    let records = opts.sweep([lrc_no_gc, ProtocolName::Hlrc.into()]).run();
    Table::new()
        .col("Application", |row: &[Record]| row[0].app.into())
        .col("Nodes", |row| row[0].nodes.to_string())
        .col("App MB", |row| mb(row[0].run.report.app_bytes))
        .col("Proto MB LRC", |row| mb(proto(row, 0)))
        .col("Proto MB HLRC", |row| mb(proto(row, 1)))
        .col("LRC/app", |row| format!("{:.2}", ratio(row, 0)))
        .col("HLRC/app", |row| format!("{:.3}", ratio(row, 1)))
        .print(records.chunks(2));
    println!(
        "\nExpected shapes: HLRC protocol memory a small fraction of the\n\
         application's; LRC's grows toward (or beyond) it, and grows with the\n\
         machine size for lock-intensive apps (paper Section 4.7)."
    );
}
