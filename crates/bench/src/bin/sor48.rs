//! Section 4.8: SOR with a zero interior — the LRC-favourable extreme
//! (diffs empty or tiny for many iterations). The paper finds HLRC still
//! ~10% faster; the shape to reproduce is "HLRC >= LRC even here".

use svm_apps::sor::Sor;
use svm_apps::Benchmark;
use svm_bench::{cli, Table};
use svm_core::{ProtocolName, SvmConfig};

fn main() {
    let opts = cli::sweep_options();
    let sor = Sor::zero_interior(opts.scale);
    println!(
        "\nSection 4.8: SOR with zero interior ({}), scale {}\n",
        sor.size_label(),
        opts.scale
    );
    let mut t = Table::new(&["Nodes", "T LRC (s)", "T HLRC (s)", "HLRC advantage %"]);
    for &nodes in &opts.nodes {
        eprintln!("running SOR-zero x{nodes}...");
        let lrc = sor.run(&SvmConfig::new(ProtocolName::Lrc, nodes));
        let hlrc = sor.run(&SvmConfig::new(ProtocolName::Hlrc, nodes));
        t.row(vec![
            nodes.to_string(),
            format!("{:.3}", lrc.report.secs()),
            format!("{:.3}", hlrc.report.secs()),
            format!(
                "{:.1}",
                (lrc.report.secs() / hlrc.report.secs() - 1.0) * 100.0
            ),
        ]);
    }
    t.print();
}
