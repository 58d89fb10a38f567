//! Table 5: communication traffic — message counts, update-related data,
//! and protocol data — LRC versus HLRC.

use svm_bench::cli::{self, Flag};
use svm_bench::{mb, Record, Table};
use svm_core::ProtocolName;
use svm_machine::TrafficClass;

/// Messages and bytes of `class` in the row's cell `v` (0 LRC, 1 HLRC).
fn traffic(row: &[Record], v: usize, class: TrafficClass) -> (u64, u64) {
    let t = row[v].run.report.outcome.traffic.total(class);
    (t.messages, t.bytes)
}

fn msgs(v: usize) -> impl Fn(&[Record]) -> String {
    move |row| {
        (traffic(row, v, TrafficClass::Data).0 + traffic(row, v, TrafficClass::Protocol).0)
            .to_string()
    }
}

fn mbytes(v: usize, class: TrafficClass) -> impl Fn(&[Record]) -> String {
    move |row| mb(traffic(row, v, class).1)
}

fn main() {
    let opts = cli::sweep_options(&[Flag::Scale, Flag::Nodes, Flag::Apps]);
    let records = opts.sweep([ProtocolName::Lrc, ProtocolName::Hlrc]).run();

    println!("\nTable 5: communication traffic (scale {})\n", opts.scale);
    Table::new()
        .col("Application", |row: &[Record]| row[0].app.into())
        .col("Nodes", |row| row[0].nodes.to_string())
        .col("Msgs LRC", msgs(0))
        .col("Msgs HLRC", msgs(1))
        .col("Update MB LRC", mbytes(0, TrafficClass::Data))
        .col("Update MB HLRC", mbytes(1, TrafficClass::Data))
        .col("Proto MB LRC", mbytes(0, TrafficClass::Protocol))
        .col("Proto MB HLRC", mbytes(1, TrafficClass::Protocol))
        .print(records.chunks(2));
    println!(
        "\nExpected shapes: HLRC's protocol traffic consistently below LRC's\n\
         (no vector timestamps in write notices); update traffic usually lower\n\
         under HLRC except fine-grained sharing (Raytrace), where HLRC ships\n\
         whole pages (paper Section 4.6)."
    );
}
