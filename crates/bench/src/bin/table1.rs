//! Table 1: benchmark applications, problem sizes, and sequential times.
//!
//! The "measured" column runs each workload on a single simulated node
//! (protocol overheads are nearly zero there, so it lands on the
//! calibrated sequential time).

use svm_bench::cli::{self, Flag};
use svm_bench::{secs, Record, Sweep, Table};
use svm_core::ProtocolName;

fn main() {
    let opts = cli::sweep_options(&[Flag::Scale, Flag::Apps]);
    let records = Sweep::new(opts.suite(), vec![1], [ProtocolName::Hlrc])
        .run_map(|bench, _, run| (bench.size_label(), run.report.secs()));
    println!("Table 1: applications, problem sizes, sequential execution times");
    println!("(scale {}; paper sizes at --paper)\n", opts.scale);
    Table::new()
        .col("Application", |r: &Record<(String, f64)>| r.app.into())
        .col("Problem size", |r| r.run.0.clone())
        .col("T_seq calibrated (s)", |r| secs(r.seq_secs))
        .col("T_1-node simulated (s)", |r| secs(r.run.1))
        .print(&records);
}
