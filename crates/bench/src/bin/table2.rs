//! Table 2: speedups for all four protocols at each machine size.

use svm_bench::{apps, cli, index, run_sweep, Table};

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
    for app in apps(&records) {
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
