//! Table 1: benchmark applications, problem sizes, and sequential times.
//!
//! The "measured" column runs each workload on a single simulated node
//! (protocol overheads are nearly zero there, so it lands on the
//! calibrated sequential time).

use svm_bench::{cli, secs, Table};
use svm_core::{ProtocolName, SvmConfig};

fn main() {
    let opts = cli::sweep_options();
    let mut t = Table::new(&[
        "Application",
        "Problem size",
        "T_seq calibrated (s)",
        "T_1-node simulated (s)",
    ]);
    for bench in opts.suite() {
        let run = bench.run(&SvmConfig::new(ProtocolName::Hlrc, 1));
        t.row(vec![
            bench.name().into(),
            bench.size_label(),
            secs(bench.seq_secs()),
            secs(run.report.secs()),
        ]);
    }
    println!("Table 1: applications, problem sizes, sequential execution times");
    println!("(scale {}; paper sizes at --paper)\n", opts.scale);
    t.print();
}
