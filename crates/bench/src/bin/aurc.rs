//! AURC versus HLRC (paper Section 2.2): the bandwidth-versus-overhead
//! tradeoff between hardware automatic update and software diffs.
//!
//! Expected shapes: AURC spends no time on twins/diffs (lower protocol
//! overhead, often slightly faster) but moves more update bytes
//! (write-through amplification); HLRC trades a little software overhead
//! for less traffic. "The major tradeoff between AURC and LRC is between
//! bandwidth and protocol overhead."

use svm_bench::cli::{self, Flag};
use svm_bench::{mb, pct, Record, Table};
use svm_core::{ProtocolName, RunReport};
use svm_machine::{Category, TrafficClass};

/// The report of the row's cell `v` (0 HLRC, 1 AURC).
fn report(row: &[Record], v: usize) -> &RunReport {
    &row[v].run.report
}

fn proto_pct(row: &[Record], v: usize) -> String {
    pct(&report(row, v).avg_breakdown(), Category::Protocol)
}

fn update_mb(row: &[Record], v: usize) -> String {
    let data = report(row, v).outcome.traffic.total(TrafficClass::Data);
    mb(data.bytes)
}

fn main() {
    let opts = cli::sweep_options(&[Flag::Scale, Flag::Nodes, Flag::Apps]);
    println!("\nAURC vs HLRC (scale {})\n", opts.scale);
    let records = opts.sweep([ProtocolName::Hlrc, ProtocolName::Aurc]).run();
    Table::new()
        .col("Application", |row: &[Record]| row[0].app.into())
        .col("Nodes", |row| row[0].nodes.to_string())
        .col("T HLRC s", |row| format!("{:.3}", report(row, 0).secs()))
        .col("T AURC s", |row| format!("{:.3}", report(row, 1).secs()))
        .col("Proto% HLRC", |row| proto_pct(row, 0))
        .col("Proto% AURC", |row| proto_pct(row, 1))
        .col("Update MB HLRC", |row| update_mb(row, 0))
        .col("Update MB AURC", |row| update_mb(row, 1))
        .print(records.chunks(2));
}
