//! Table 2: speedups for all four protocols at each machine size.

use svm_bench::cli::{self, Flag};
use svm_bench::{Record, Table};

fn main() {
    let opts = cli::sweep_options(&Flag::ALL);
    let records = opts.sweep(opts.protocols.clone()).run();

    println!(
        "\nTable 2: speedups on the simulated Paragon (scale {})\n",
        opts.scale
    );
    // One row per workload: its cells for every node count x protocol.
    let per_app = opts.nodes.len() * opts.protocols.len();
    let mut t = Table::new().col("Application", |row: &[Record]| row[0].app.into());
    for (j, r) in records[..per_app].iter().enumerate() {
        t = t.col(format!("{}@{}", r.protocol.label(), r.nodes), move |row| {
            format!("{:.2}", row[j].run.report.speedup_vs(row[j].seq_secs))
        });
    }
    t.print(records.chunks(per_app));
    println!(
        "\nExpected shapes: HLRC/OHLRC >= LRC/OLRC, gap grows with nodes;\n\
         overlap adds a modest increment (paper Section 4.2)."
    );
}
