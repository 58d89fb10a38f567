//! The benchmark's own tests: tiny-size smokes of every workload, metric
//! names and units, agreement with `BENCHMARK.json`, the correctness gate
//! against a seeded protocol bug, and the water64 pins against the
//! committed 64-node Table 2.

use perfbench::report::{valid_name, valid_unit};
use perfbench::spans::Tracer;
use perfbench::workloads::{app_cell, App, CellResult, Counts, Size, Workload};
use perfbench::{fingerprint, run, Opts, Outcome};
use svm_apps::sor::Sor;
use svm_core::{ProtocolName, SeededBug, SvmConfig};

#[global_allocator]
static ALLOC: svm_testkit::alloc::CountingAlloc = svm_testkit::alloc::CountingAlloc::new();

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Opts {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        host: perfbench::host::Host::unpinned(),
    })
}

/// `"name": "<n>"` entries of one section of `BENCHMARK.json`.
fn listed_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |i| i + 1);
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn assert_well_formed(o: &Outcome) {
    for m in &o.metrics {
        assert!(valid_name(&m.name), "bad metric name {}", m.name);
        assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    assert!(o.attempted >= 1);
    assert!(o.json().starts_with("{\"correct\": "));
    assert!(o.lines[0].starts_with("machine nproc="), "{}", o.lines[0]);
}

#[test]
fn every_workload_runs_clean_and_reports_the_end_to_end_metrics() {
    let want = listed_names("end_to_end");
    for w in Workload::ALL {
        let o = tiny(w, false);
        assert_well_formed(&o);
        assert!(o.correct && o.failed == 0, "{}: {:#?}", w.name(), o.lines);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, want, "{}", w.name());
        for m in &o.metrics {
            assert!(m.value > 0.0, "{}: {} must be nonzero", w.name(), m.name);
        }
        assert!(o
            .lines
            .iter()
            .any(|l| l.starts_with("metric error_rate 0 ")));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let want = listed_names("per_layer");
    for w in Workload::ALL {
        let o = tiny(w, true);
        assert_well_formed(&o);
        assert!(o.correct, "{}: {:#?}", w.name(), o.lines);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, want, "{}", w.name());
        let spans = o.spans_json.as_deref().expect("traced run keeps its spans");
        assert!(spans.contains("\"name\": \"bench.pass\""));
    }
}

fn sor_cell(cfg: &SvmConfig) -> CellResult {
    let app = App::new(Box::new(Sor {
        verify: true,
        ..Sor::scaled(0.02)
    }));
    app_cell(
        &app,
        cfg,
        true,
        "sor/hlrc".into(),
        &mut Tracer::new(false),
        &mut Counts::default(),
    )
}

#[test]
fn seeded_skip_diff_apply_makes_error_rate_nonzero() {
    let clean = SvmConfig::new(ProtocolName::Hlrc, 4);
    let ok = sor_cell(&clean);
    assert!(ok.failure.is_none(), "{:?}", ok.failure);

    let mut mutated = clean.clone();
    mutated.mutation = Some(SeededBug::SkipDiffApply { nth: 0 });
    let bad = sor_cell(&mutated);
    assert!(
        bad.failure.is_some(),
        "the gate missed a skipped diff application"
    );
    assert!(bad.attempted >= 1);
    assert_eq!(bad.failed, bad.attempted);
}

/// The `Water-Nsquared` cell of `column` in the committed 64-node Table 2.
fn table2_water(column: &str) -> String {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../results/table2_full64.txt"
    ))
    .expect("results/table2_full64.txt");
    let header: Vec<&str> = text
        .lines()
        .find(|l| l.contains("Application"))
        .expect("table header")
        .split_whitespace()
        .collect();
    let col = header.iter().position(|h| *h == column).expect("column");
    let row = text
        .lines()
        .find(|l| l.trim_start().starts_with("Water-Nsquared"))
        .expect("Water-Nsquared row");
    row.split_whitespace().nth(col).expect("cell").to_string()
}

#[test]
fn water64_pins_match_the_recorded_table2() {
    let pins = fingerprint::pinned();
    for (cell, column) in [("water64/lrc", "LRC@64"), ("water64/hlrc", "HLRC@64")] {
        let line = pins.get(cell).unwrap_or_else(|| panic!("{cell} is pinned"));
        let x100: u64 = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix("speedup_x100="))
            .expect("speedup_x100 field")
            .parse()
            .expect("integer");
        let pinned = format!("{}.{:02}", x100 / 100, x100 % 100);
        assert_eq!(pinned, table2_water(column), "{cell}");
    }
}
