//! Table 2: speedups for all four protocols at each machine size.

use svm_bench::{cli, index, run_sweep, Table};

fn main() {
    let opts = cli::sweep_options();
    let records = run_sweep(&opts);
    let idx = index(&records);

    println!(
        "\nTable 2: speedups on the simulated Paragon (scale {})\n",
        opts.scale
    );
    let mut header = vec!["Application".to_string()];
    for &n in &opts.nodes {
        for p in &opts.protocols {
            header.push(format!("{}@{n}", p.label()));
        }
    }
    let mut t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let apps: Vec<&str> = {
        let mut seen = Vec::new();
        for r in &records {
            if !seen.contains(&r.app) {
                seen.push(r.app);
            }
        }
        seen
    };
    for app in apps {
        let mut row = vec![app.to_string()];
        for &n in &opts.nodes {
            for p in &opts.protocols {
                let r = idx[&(app, n, p.label())];
                row.push(format!("{:.2}", r.run.report.speedup_vs(r.seq_secs)));
            }
        }
        t.row(row);
    }
    t.print();
    println!(
        "\nExpected shapes: HLRC/OHLRC >= LRC/OLRC, gap grows with nodes;\n\
         overlap adds a modest increment (paper Section 4.2)."
    );
}
