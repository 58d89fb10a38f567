//! Table 3: costs of basic operations, and the paper's Section-4.3
//! minimum critical-path sums derived from them.

use svm_bench::cli;
use svm_machine::CostModel;
use svm_sim::SimDuration;

fn us(d: SimDuration) -> String {
    format!("{:.1}", d.as_micros_f64())
}

fn main() {
    cli::sweep_options(&[]);
    let c = CostModel::paragon();
    println!("Table 3: timings for basic operations (microseconds)\n");
    let rows: Vec<(&str, String)> = vec![
        ("Message latency", us(c.msg_latency)),
        (
            "Page transfer (8 KB)",
            us(c.transit(c.page_size) - c.msg_latency),
        ),
        ("Receive interrupt", us(c.receive_interrupt)),
        ("Twin copy (8 KB)", us(c.twin_copy(c.page_size))),
        ("Diff creation (8 KB page)", us(c.diff_create(c.page_size))),
        ("Diff application (1 word)", us(c.diff_apply(4))),
        (
            "Diff application (full page)",
            us(c.diff_apply(c.page_size)),
        ),
        ("Page fault", us(c.page_fault)),
        ("Page invalidation", us(c.page_invalidate)),
        ("Page protection", us(c.page_protect)),
        ("Co-processor dispatch/post", us(c.coproc_dispatch)),
    ];
    for (name, v) in rows {
        println!("  {name:<32} {v:>8}");
    }

    println!("\nDerived minimum costs (paper Section 4.3):");
    let hlrc = c.page_fault + c.msg_latency + c.receive_interrupt + c.transit(c.page_size);
    let ohlrc = c.page_fault + c.msg_latency + c.transit(c.page_size);
    let lrc = c.page_fault + c.msg_latency + c.receive_interrupt + c.transit(28) + c.diff_apply(4);
    let olrc = c.page_fault + c.msg_latency + c.transit(28) + c.diff_apply(4);
    let acquire = c.msg_latency * 3 + c.receive_interrupt * 2 + c.handler_overhead * 2;
    println!(
        "  HLRC page miss              {:>8} us  (paper: 1172)",
        us(hlrc)
    );
    println!(
        "  OHLRC page miss             {:>8} us  (paper:  482)",
        us(ohlrc)
    );
    println!(
        "  LRC page miss (1-word diff) {:>8} us  (paper: 1130)",
        us(lrc)
    );
    println!(
        "  OLRC page miss (1-word diff){:>8} us  (paper:  440)",
        us(olrc)
    );
    println!(
        "  Remote lock acquire         {:>8} us  (paper: 1550)",
        us(acquire)
    );
}
