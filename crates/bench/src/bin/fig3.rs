//! Figure 3: average execution-time breakdowns — computation, data
//! transfer, garbage collection, lock, barrier, protocol overhead — per
//! application, protocol, and machine size (printed as percentage stacks).

use svm_bench::{cli, run_sweep, Table};
use svm_machine::Category;

fn main() {
    let opts = cli::sweep_options();
    let records = run_sweep(&opts);

    println!(
        "\nFigure 3: average per-node execution time breakdowns (scale {})\n",
        opts.scale
    );
    let mut t = Table::new(&[
        "Application",
        "Proto",
        "Nodes",
        "Total s",
        "Compute%",
        "Data%",
        "Lock%",
        "Barrier%",
        "Proto%",
        "GC%",
    ]);
    for r in &records {
        let b = r.run.report.avg_breakdown();
        let total = b.total().as_secs_f64();
        let pct = |c: Category| format!("{:.1}", b[c].as_secs_f64() / total * 100.0);
        t.row(vec![
            r.app.into(),
            r.protocol.label().into(),
            r.nodes.to_string(),
            format!("{:.3}", r.run.report.secs()),
            pct(Category::Compute),
            pct(Category::DataTransfer),
            pct(Category::Lock),
            pct(Category::Barrier),
            pct(Category::Protocol),
            pct(Category::Gc),
        ]);
    }
    t.print();
    println!(
        "\nExpected shapes: home-based runs shrink the data-transfer, lock and\n\
         protocol segments; GC appears only under LRC/OLRC; synchronization\n\
         dominates at large machine sizes (paper Section 4.5)."
    );
}
