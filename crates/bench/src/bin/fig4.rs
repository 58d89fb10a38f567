//! Figure 4: per-processor execution-time breakdowns for Water-Nsquared
//! between two consecutive barriers (the paper uses barriers 9 and 10),
//! LRC versus HLRC — the lock-imbalance / hot-spot picture.

use svm_apps::water_ns::WaterNsq;
use svm_apps::Benchmark;
use svm_bench::{cli, parallel, Table};
use svm_core::{ProtocolName, SvmConfig};
use svm_machine::Category;

fn main() {
    let opts = cli::sweep_options();
    // Enough steps for the paper's barrier-9..10 window (3 barriers/step).
    let mut w = WaterNsq::scaled(opts.scale);
    w.steps = 4;

    // Compute every (nodes x protocol) cell on the parallel driver, then
    // print in the canonical order — identical output to the serial loop.
    let mut jobs: Vec<(usize, ProtocolName)> = Vec::new();
    for &nodes in &opts.nodes {
        for protocol in [ProtocolName::Lrc, ProtocolName::Hlrc] {
            jobs.push((nodes, protocol));
        }
    }
    let runs = parallel::run_ordered(jobs.len(), parallel::workers(jobs.len()), |i| {
        let (nodes, protocol) = jobs[i];
        eprintln!("running Water-Nsquared under {protocol} x{nodes}...");
        w.run(&SvmConfig::new(protocol, nodes))
    });

    for ((nodes, protocol), run) in jobs.iter().zip(&runs) {
        let (nodes, protocol) = (*nodes, *protocol);
        {
            let marks = &run.report.counters.barrier_marks;
            let lo = 9.min(marks[0].len() - 2);
            let hi = lo + 1;
            println!(
                "\nFigure 4: Water-Nsquared, {protocol} x{nodes}, between barriers {lo} and {hi} (scale {})\n",
                opts.scale
            );
            let mut t = Table::new(&[
                "Node",
                "Window ms",
                "Compute%",
                "Data%",
                "Lock%",
                "Barrier%",
                "Proto%",
            ]);
            for (i, node_marks) in marks.iter().enumerate() {
                let a = &node_marks[lo].2;
                let b = &node_marks[hi].2;
                let w = b.sub(a);
                let total = w.total().as_secs_f64();
                let pct = |c: Category| format!("{:.1}", w[c].as_secs_f64() / total * 100.0);
                t.row(vec![
                    i.to_string(),
                    format!("{:.2}", total * 1e3),
                    pct(Category::Compute),
                    pct(Category::DataTransfer),
                    pct(Category::Lock),
                    pct(Category::Barrier),
                    pct(Category::Protocol),
                ]);
            }
            t.print();
        }
    }
    println!(
        "\nExpected shapes: under LRC the lock-wait share is larger and more\n\
         imbalanced across nodes (serialized diff collection at hot nodes);\n\
         HLRC equalizes it (paper Section 4.5)."
    );
}
