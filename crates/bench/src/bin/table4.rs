//! Table 4: average per-node operation counts — read misses, diffs created
//! and applied, lock acquires, barriers — for LRC versus HLRC at the
//! smallest and largest machine sizes (the "home effect" table).

use svm_bench::{apps, cli, run_sweep, Table};
use svm_core::ProtocolName;

fn main() {
    let mut opts = cli::sweep_options();
    opts.protocols = vec![ProtocolName::Lrc, ProtocolName::Hlrc];
    if opts.nodes.len() > 2 {
        opts.nodes = vec![*opts.nodes.first().unwrap(), *opts.nodes.last().unwrap()];
    }
    let records = run_sweep(&opts);

    println!(
        "\nTable 4: average per-node operation counts (scale {})\n",
        opts.scale
    );
    let mut t = Table::new(&[
        "Application",
        "Nodes",
        "Misses LRC",
        "Misses HLRC",
        "DiffsCr LRC",
        "DiffsCr HLRC",
        "DiffsAp LRC",
        "DiffsAp HLRC",
        "LockAcq",
        "Barriers",
    ]);
    let cell =
        |app: &str, nodes: usize, p: ProtocolName, f: &dyn Fn(&svm_core::NodeCounters) -> u64| {
            records
                .iter()
                .find(|r| r.app == app && r.nodes == nodes && r.protocol == p)
                .map(|r| format!("{:.0}", r.run.report.counters.avg(f)))
                .unwrap_or_default()
        };
    for app in apps(&records) {
        for &n in &opts.nodes {
            t.row(vec![
                app.into(),
                n.to_string(),
                cell(app, n, ProtocolName::Lrc, &|c| c.read_misses),
                cell(app, n, ProtocolName::Hlrc, &|c| c.read_misses),
                cell(app, n, ProtocolName::Lrc, &|c| c.diffs_created),
                cell(app, n, ProtocolName::Hlrc, &|c| c.diffs_created),
                cell(app, n, ProtocolName::Lrc, &|c| c.diffs_applied),
                cell(app, n, ProtocolName::Hlrc, &|c| c.diffs_applied),
                cell(app, n, ProtocolName::Hlrc, &|c| c.lock_acquires),
                cell(app, n, ProtocolName::Hlrc, &|c| c.barriers),
            ]);
        }
    }
    t.print();
    println!(
        "\nExpected shapes: zero HLRC diffs for single-writer apps with owner\n\
         homes (LU, SOR); fewer HLRC diff applications (applied once, at the\n\
         home); no faults at homes (paper Section 4.4)."
    );
}
