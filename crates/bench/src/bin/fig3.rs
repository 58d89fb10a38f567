//! Figure 3: average execution-time breakdowns — computation, data
//! transfer, garbage collection, lock, barrier, protocol overhead — per
//! application, protocol, and machine size (printed as percentage stacks).

use svm_bench::cli::{self, Flag};
use svm_bench::{pct, Record, Table};
use svm_machine::Category;

/// The cell's average share of time in category `c`.
fn share(c: Category) -> impl Fn(&Record) -> String {
    move |r| pct(&r.run.report.avg_breakdown(), c)
}

fn main() {
    let opts = cli::sweep_options(&Flag::ALL);
    let records = opts.sweep(opts.protocols.clone()).run();

    println!(
        "\nFigure 3: average per-node execution time breakdowns (scale {})\n",
        opts.scale
    );
    Table::new()
        .col("Application", |r: &Record| r.app.into())
        .col("Proto", |r| r.protocol.label().into())
        .col("Nodes", |r| r.nodes.to_string())
        .col("Total s", |r| format!("{:.3}", r.run.report.secs()))
        .col("Compute%", share(Category::Compute))
        .col("Data%", share(Category::DataTransfer))
        .col("Lock%", share(Category::Lock))
        .col("Barrier%", share(Category::Barrier))
        .col("Proto%", share(Category::Protocol))
        .col("GC%", share(Category::Gc))
        .print(&records);
    println!(
        "\nExpected shapes: home-based runs shrink the data-transfer, lock and\n\
         protocol segments; GC appears only under LRC/OLRC; synchronization\n\
         dominates at large machine sizes (paper Section 4.5)."
    );
}
