//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures.
//!
//! Every report binary is three declarations and a print:
//!
//! 1. **Its flags.** [`cli::sweep_options`] takes the [`cli::Flag`]s the
//!    binary honours (`--scale`/`--paper`, `--nodes`, `--protocols`,
//!    `--apps`) and rejects every other flag: bad input exits 2 with the
//!    usage line before any run starts. The chaos, crash and check
//!    matrices take their own flags through [`cli::Args`].
//! 2. **Its [`Sweep`]:** a suite of workloads x node counts x
//!    [`Variant`]s, where a variant is a protocol plus any change to its
//!    `SvmConfig` (LRC without garbage collection, a fast network, a fault
//!    profile, a crash schedule). [`Sweep::run`] executes every cell on
//!    the parallel driver ([`parallel::run_ordered`]) and returns one
//!    [`Record`] per cell in canonical order — workload, then node count,
//!    then variant — so the variants of one (workload, nodes) point are
//!    `records.chunks(variants)`. [`Options::sweep`] of the `--protocols`
//!    is the protocol-only case.
//! 3. **Its [`Table`]:** columns, each a header and the function that
//!    renders the column's cell from a row, so a header and its cell
//!    cannot drift apart.
//!
//! Absolute numbers depend on the calibration (DESIGN.md §5); the *shapes*
//! — who wins, by what factor, where crossovers fall — are the
//! reproduction targets (EXPERIMENTS.md).

pub mod cli;
pub mod hist;
pub mod json;
pub mod parallel;

use svm_apps::{paper_suite, AppRun, Benchmark};
use svm_core::{ProtocolName, SvmConfig};
use svm_machine::{Breakdown, Category};

/// Command-line options shared by the generator binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Problem scale (1.0 = paper sizes).
    pub scale: f64,
    /// Node counts to sweep.
    pub nodes: Vec<usize>,
    /// Protocols to sweep.
    pub protocols: Vec<ProtocolName>,
    /// Workload name filter (empty = all five).
    pub apps: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.25,
            nodes: vec![8, 32, 64],
            protocols: ProtocolName::ALL.to_vec(),
            apps: Vec::new(),
        }
    }
}

impl Options {
    /// The selected workloads at the selected scale.
    pub fn suite(&self) -> Vec<Box<dyn Benchmark>> {
        paper_suite(self.scale)
            .into_iter()
            .filter(|b| self.apps.is_empty() || self.apps.iter().any(|a| selects(a, b.name())))
            .collect()
    }

    /// The selected workloads x node counts x `variants`; passing
    /// `protocols` gives the plain protocol sweep.
    pub fn sweep<V: Into<Variant>>(&self, variants: impl IntoIterator<Item = V>) -> Sweep {
        Sweep::new(self.suite(), self.nodes.clone(), variants)
    }
}

/// Whether the lowercase `--apps` entry `filter` selects the workload
/// named `name`: a case-insensitive substring match.
fn selects(filter: &str, name: &str) -> bool {
    name.to_lowercase().contains(filter)
}

/// One configuration variant of a sweep: a protocol plus any change to
/// the `SvmConfig` of every cell that runs it.
pub struct Variant {
    protocol: ProtocolName,
    tweak: Box<dyn Fn(&mut SvmConfig) + Send + Sync>,
}

impl Variant {
    /// `protocol`, with `tweak` applied to each cell's default config.
    pub fn with(
        protocol: ProtocolName,
        tweak: impl Fn(&mut SvmConfig) + Send + Sync + 'static,
    ) -> Variant {
        Variant {
            protocol,
            tweak: Box::new(tweak),
        }
    }
}

impl From<ProtocolName> for Variant {
    fn from(protocol: ProtocolName) -> Variant {
        Variant::with(protocol, |_| {})
    }
}

/// A sweep: every workload of `suite` x every node count x every variant.
pub struct Sweep {
    suite: Vec<Box<dyn Benchmark>>,
    nodes: Vec<usize>,
    variants: Vec<Variant>,
}

/// One sweep cell's result, keyed by its cell.
pub struct Record<T = AppRun> {
    /// Workload name.
    pub app: &'static str,
    /// Calibrated sequential time for speedups.
    pub seq_secs: f64,
    /// Protocol.
    pub protocol: ProtocolName,
    /// Node count.
    pub nodes: usize,
    /// Index of the cell's variant in the sweep's variant list.
    pub variant: usize,
    /// The run, or what [`Sweep::run_map`] reduced it to.
    pub run: T,
}

impl Sweep {
    /// The sweep of `suite` x `nodes` x `variants`.
    pub fn new<V: Into<Variant>>(
        suite: Vec<Box<dyn Benchmark>>,
        nodes: Vec<usize>,
        variants: impl IntoIterator<Item = V>,
    ) -> Sweep {
        Sweep {
            suite,
            nodes,
            variants: variants.into_iter().map(Into::into).collect(),
        }
    }

    fn len(&self) -> usize {
        self.suite.len() * self.nodes.len() * self.variants.len()
    }

    /// The workload and config of cell `i` in canonical order (workload,
    /// then node count, then variant).
    pub fn cell(&self, i: usize) -> (&dyn Benchmark, SvmConfig) {
        let (point, v) = (i / self.variants.len(), i % self.variants.len());
        let variant = &self.variants[v];
        let mut cfg = SvmConfig::new(variant.protocol, self.nodes[point % self.nodes.len()]);
        (variant.tweak)(&mut cfg);
        (self.suite[point / self.nodes.len()].as_ref(), cfg)
    }

    /// Run every cell on [`parallel::workers`] threads.
    pub fn run(&self) -> Vec<Record> {
        self.run_map(|_, _, run| run)
    }

    /// Run every cell on `threads` threads (`<= 1`: inline, serially).
    ///
    /// Each cell is an independent seeded virtual-time simulation, so the
    /// records are bit-identical for every thread count and come back in
    /// canonical order regardless of which worker ran what (DESIGN.md §13).
    pub fn run_on(&self, threads: usize) -> Vec<Record> {
        self.run_map_on(threads, |_, _, run| run)
    }

    /// Run every cell on [`parallel::workers`] threads and reduce each run
    /// with `f(workload, config, run)` on the worker that ran it, so a
    /// cell's bulky state (say, its access trace) never outlives it.
    pub fn run_map<T: Send>(
        &self,
        f: impl Fn(&dyn Benchmark, &SvmConfig, AppRun) -> T + Sync,
    ) -> Vec<Record<T>> {
        self.run_map_on(parallel::workers(self.len()), f)
    }

    fn run_map_on<T: Send>(
        &self,
        threads: usize,
        f: impl Fn(&dyn Benchmark, &SvmConfig, AppRun) -> T + Sync,
    ) -> Vec<Record<T>> {
        let n = self.len();
        parallel::run_ordered(n, threads, |i| {
            let (bench, cfg) = self.cell(i);
            eprintln!(
                "[{}/{n}] running {} under {} on {} nodes...",
                i + 1,
                bench.name(),
                cfg.protocol,
                cfg.nodes
            );
            let run = bench.run(&cfg);
            Record {
                app: bench.name(),
                seq_secs: bench.seq_secs(),
                protocol: cfg.protocol,
                nodes: cfg.nodes,
                variant: i % self.variants.len(),
                run: f(bench, &cfg, run),
            }
        })
    }
}

/// A fixed-width table: columns of rows of type `R`, each column a header
/// and the function that renders its cell from a row.
pub struct Table<'a, R: ?Sized> {
    columns: Vec<Column<'a, R>>,
}

/// A header and the function rendering its cell from a row.
type Column<'a, R> = (String, Box<dyn Fn(&R) -> String + 'a>);

impl<'a, R: ?Sized> Default for Table<'a, R> {
    fn default() -> Self {
        Table {
            columns: Vec::new(),
        }
    }
}

impl<'a, R: ?Sized> Table<'a, R> {
    /// A table with no columns yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the column `header`, whose cell in each row is `cell(row)`.
    pub fn col(mut self, header: impl Into<String>, cell: impl Fn(&R) -> String + 'a) -> Self {
        self.columns.push((header.into(), Box::new(cell)));
        self
    }

    /// Render `rows` right-aligned under a header and a dashed rule.
    pub fn print<'r>(&self, rows: impl IntoIterator<Item = &'r R>)
    where
        R: 'r,
    {
        let header = self.columns.iter().map(|(h, _)| h.clone()).collect();
        let mut lines: Vec<Vec<String>> = vec![header];
        lines.extend(
            rows.into_iter()
                .map(|r| self.columns.iter().map(|(_, cell)| cell(r)).collect()),
        );
        let mut widths = vec![0; self.columns.len()];
        for line in &lines {
            for (w, c) in widths.iter_mut().zip(line) {
                *w = (*w).max(c.len());
            }
        }
        for (i, cells) in lines.iter().enumerate() {
            let line: String = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}  "))
                .collect();
            println!("{}", line.trim_end());
            if i == 0 {
                println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum()));
            }
        }
    }
}

/// Format seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Format a byte count as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

/// Format category `c`'s share of breakdown `b` as a percentage.
pub fn pct(b: &Breakdown, c: Category) -> String {
    format!(
        "{:.1}",
        b[c].as_secs_f64() / b.total().as_secs_f64() * 100.0
    )
}
