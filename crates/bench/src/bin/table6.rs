//! Table 6: memory requirements — application memory versus protocol
//! memory (twins, diffs, write notices) high-water marks, LRC vs HLRC.
//!
//! To expose the paper's growth effect, LRC runs with garbage collection
//! effectively disabled here (as in the paper's measurement, which reports
//! memory "if a garbage collection is triggered only at a barrier").

use svm_bench::{cli, mb, Table};
use svm_core::{ProtocolName, SvmConfig};

fn main() {
    let opts = cli::sweep_options();
    println!(
        "\nTable 6: memory requirements, worst node (scale {})\n",
        opts.scale
    );
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "App MB",
        "Proto MB LRC",
        "Proto MB HLRC",
        "LRC/app",
        "HLRC/app",
    ]);
    for bench in opts.suite() {
        for &n in &opts.nodes {
            let mut lrc_cfg = SvmConfig::new(ProtocolName::Lrc, n);
            lrc_cfg.gc_threshold_bytes = u64::MAX;
            let hlrc_cfg = SvmConfig::new(ProtocolName::Hlrc, n);
            eprintln!("running {} x{n}...", bench.name());
            let lrc = bench.run(&lrc_cfg);
            let hlrc = bench.run(&hlrc_cfg);
            let app_b = lrc.report.app_bytes;
            let lrc_m = lrc.report.counters.max_protocol_memory();
            let hlrc_m = hlrc.report.counters.max_protocol_memory();
            t.row(vec![
                bench.name().into(),
                n.to_string(),
                mb(app_b),
                mb(lrc_m),
                mb(hlrc_m),
                format!("{:.2}", lrc_m as f64 / app_b as f64),
                format!("{:.3}", hlrc_m as f64 / app_b as f64),
            ]);
        }
    }
    t.print();
    println!(
        "\nExpected shapes: HLRC protocol memory a small fraction of the\n\
         application's; LRC's grows toward (or beyond) it, and grows with the\n\
         machine size for lock-intensive apps (paper Section 4.7)."
    );
}
