//! Table 4: average per-node operation counts — read misses, diffs created
//! and applied, lock acquires, barriers — for LRC versus HLRC at the
//! smallest and largest machine sizes (the "home effect" table).

use svm_bench::cli::{self, Flag};
use svm_bench::{Record, Table};
use svm_core::{NodeCounters, ProtocolName};

/// The per-node average of counter `f` in the row's cell `v` (0 LRC, 1 HLRC).
fn avg(v: usize, f: fn(&NodeCounters) -> u64) -> impl Fn(&[Record]) -> String {
    move |row| format!("{:.0}", row[v].run.report.counters.avg(f))
}

fn main() {
    let mut opts = cli::sweep_options(&[Flag::Scale, Flag::Nodes, Flag::Apps]);
    if opts.nodes.len() > 2 {
        opts.nodes = vec![*opts.nodes.first().unwrap(), *opts.nodes.last().unwrap()];
    }
    let records = opts.sweep([ProtocolName::Lrc, ProtocolName::Hlrc]).run();

    println!(
        "\nTable 4: average per-node operation counts (scale {})\n",
        opts.scale
    );
    Table::new()
        .col("Application", |row: &[Record]| row[0].app.into())
        .col("Nodes", |row| row[0].nodes.to_string())
        .col("Misses LRC", avg(0, |c| c.read_misses))
        .col("Misses HLRC", avg(1, |c| c.read_misses))
        .col("DiffsCr LRC", avg(0, |c| c.diffs_created))
        .col("DiffsCr HLRC", avg(1, |c| c.diffs_created))
        .col("DiffsAp LRC", avg(0, |c| c.diffs_applied))
        .col("DiffsAp HLRC", avg(1, |c| c.diffs_applied))
        .col("LockAcq", avg(1, |c| c.lock_acquires))
        .col("Barriers", avg(1, |c| c.barriers))
        .print(records.chunks(2));
    println!(
        "\nExpected shapes: zero HLRC diffs for single-writer apps with owner\n\
         homes (LU, SOR); fewer HLRC diff applications (applied once, at the\n\
         home); no faults at homes (paper Section 4.4)."
    );
}
