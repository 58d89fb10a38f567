//! Figure 4: per-processor execution-time breakdowns for Water-Nsquared
//! between two consecutive barriers (the paper uses barriers 9 and 10),
//! LRC versus HLRC — the lock-imbalance / hot-spot picture.

use svm_apps::water_ns::WaterNsq;
use svm_bench::cli::{self, Flag};
use svm_bench::{pct, Sweep, Table};
use svm_core::ProtocolName;
use svm_machine::{Breakdown, Category};

fn main() {
    let opts = cli::sweep_options(&[Flag::Scale, Flag::Nodes]);
    // Enough steps for the paper's barrier-9..10 window (3 barriers/step).
    let water = WaterNsq {
        steps: 4,
        ..WaterNsq::scaled(opts.scale)
    };
    let records = Sweep::new(
        vec![Box::new(water)],
        opts.nodes.clone(),
        [ProtocolName::Lrc, ProtocolName::Hlrc],
    )
    .run();

    for r in &records {
        let marks = &r.run.report.counters.barrier_marks;
        let lo = 9.min(marks[0].len() - 2);
        let hi = lo + 1;
        println!(
            "\nFigure 4: Water-Nsquared, {} x{}, between barriers {lo} and {hi} (scale {})\n",
            r.protocol, r.nodes, opts.scale
        );
        let windows: Vec<(usize, Breakdown)> = marks
            .iter()
            .map(|m| m[hi].2.sub(&m[lo].2))
            .enumerate()
            .collect();
        Table::new()
            .col("Node", |(i, _): &(usize, Breakdown)| i.to_string())
            .col("Window ms", |(_, w)| {
                format!("{:.2}", w.total().as_secs_f64() * 1e3)
            })
            .col("Compute%", |(_, w)| pct(w, Category::Compute))
            .col("Data%", |(_, w)| pct(w, Category::DataTransfer))
            .col("Lock%", |(_, w)| pct(w, Category::Lock))
            .col("Barrier%", |(_, w)| pct(w, Category::Barrier))
            .col("Proto%", |(_, w)| pct(w, Category::Protocol))
            .print(&windows);
    }
    println!(
        "\nExpected shapes: under LRC the lock-wait share is larger and more\n\
         imbalanced across nodes (serialized diff collection at hot nodes);\n\
         HLRC equalizes it (paper Section 4.5)."
    );
}
