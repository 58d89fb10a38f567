//! The one command-line parser shared by every harness binary.
//!
//! A binary states its flag synopsis once and walks its arguments with
//! [`Args`]:
//!
//! ```no_run
//! let mut args = svm_bench::cli::Args::new("[--fast] [--seed S]");
//! let (mut fast, mut seed) = (false, 1u64);
//! while let Some(flag) = args.next_flag() {
//!     match flag.as_str() {
//!         "--fast" => fast = true,
//!         "--seed" => seed = args.value(),
//!         _ => args.unknown(),
//!     }
//! }
//! ```
//!
//! The table and figure binaries instead call [`sweep_options`] with the
//! [`Flag`]s they honour; their usage line names exactly those flags.
//!
//! `-h`/`--help` prints the usage line to stdout and exits 0. Malformed
//! input — an unknown flag (including a sweep flag the binary does not
//! honour), a missing value, an unparsable number, `--nodes` outside
//! 1..=65535, a non-finite or non-positive `--scale`, an `--apps` entry
//! that names no workload — prints the problem and the usage line to
//! stderr and exits 2 before any run starts.

use std::fmt::Display;
use std::str::FromStr;

use svm_apps::paper_suite;
use svm_core::ProtocolName;

use crate::Options;

/// The process arguments, consumed flag by flag.
pub struct Args {
    usage: String,
    rest: std::vec::IntoIter<String>,
    /// The flag whose value is being read (for error messages).
    flag: String,
}

impl Args {
    /// The process arguments of a binary taking `flags` (its synopsis,
    /// printed after the program name in the usage line).
    pub fn new(flags: &str) -> Args {
        let mut argv = std::env::args();
        let prog = argv.next().unwrap_or_default();
        let prog = std::path::Path::new(&prog)
            .file_stem()
            .map_or(prog.clone(), |s| s.to_string_lossy().into_owned());
        Args {
            usage: format!("usage: {prog} {flags}").trim_end().to_string(),
            rest: argv.collect::<Vec<_>>().into_iter(),
            flag: String::new(),
        }
    }

    /// The next flag, or `None` when the arguments are exhausted. Answers
    /// `-h`/`--help` itself.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.rest.next()?;
        if flag == "-h" || flag == "--help" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        self.flag.clone_from(&flag);
        Some(flag)
    }

    /// Reject the current flag as one this binary does not take.
    pub fn unknown(&self) -> ! {
        self.fail(format_args!("unknown option {}", self.flag))
    }

    /// The current flag's value, verbatim.
    pub fn string(&mut self) -> String {
        match self.rest.next() {
            Some(v) => v,
            None => self.fail(format_args!("{} needs a value", self.flag)),
        }
    }

    /// The current flag's value, parsed.
    pub fn value<T: FromStr>(&mut self) -> T {
        let raw = self.string();
        self.parse(&raw)
    }

    /// The current flag's value as a comma-separated list.
    pub fn list<T: FromStr>(&mut self) -> Vec<T> {
        let raw = self.string();
        raw.split(',').map(|s| self.parse(s)).collect()
    }

    /// A problem scale: finite and positive.
    pub fn scale(&mut self) -> f64 {
        let scale: f64 = self.value();
        if !(scale.is_finite() && scale > 0.0) {
            self.fail(format_args!("{} must be a positive number", self.flag));
        }
        scale
    }

    /// A node count in 1..=65535.
    pub fn nodes(&mut self) -> usize {
        let n = self.value();
        self.check_nodes(n)
    }

    /// A comma-separated list of node counts, each in 1..=65535.
    fn node_list(&mut self) -> Vec<usize> {
        let ns: Vec<usize> = self.list();
        ns.into_iter().map(|n| self.check_nodes(n)).collect()
    }

    /// A comma-separated list of protocol labels, case-insensitive.
    fn protocols(&mut self) -> Vec<ProtocolName> {
        let raw = self.string();
        raw.split(',')
            .map(|s| {
                ProtocolName::WITH_AURC
                    .into_iter()
                    .find(|p| p.label().eq_ignore_ascii_case(s))
                    .unwrap_or_else(|| self.fail(format_args!("unknown protocol {s:?}")))
            })
            .collect()
    }

    /// Print `msg` and the usage line to stderr and exit 2.
    fn fail(&self, msg: impl Display) -> ! {
        eprintln!("error: {msg}\n{}", self.usage);
        std::process::exit(2)
    }

    fn parse<T: FromStr>(&self, raw: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| self.fail(format_args!("{} cannot take {raw:?}", self.flag)))
    }

    fn check_nodes(&self, n: usize) -> usize {
        if !(1..=usize::from(u16::MAX)).contains(&n) {
            self.fail(format_args!("{} must be in 1..=65535, got {n}", self.flag));
        }
        n
    }
}

/// A sweep flag a report binary may take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--scale X`, or `--paper` for scale 1.
    Scale,
    /// `--nodes a,b`.
    Nodes,
    /// `--protocols A,B`.
    Protocols,
    /// `--apps x,y`.
    Apps,
}

impl Flag {
    /// Every sweep flag.
    pub const ALL: [Flag; 4] = [Flag::Scale, Flag::Nodes, Flag::Protocols, Flag::Apps];

    fn synopsis(self) -> &'static str {
        match self {
            Flag::Scale => "[--scale X | --paper]",
            Flag::Nodes => "[--nodes a,b]",
            Flag::Protocols => "[--protocols A,B]",
            Flag::Apps => "[--apps x,y]",
        }
    }
}

/// The sweep options of a table or figure binary that honours exactly
/// `flags`; any other flag is rejected with the usage line naming `flags`.
pub fn sweep_options(flags: &[Flag]) -> Options {
    let mut o = Options::default();
    let synopsis: Vec<&str> = flags.iter().map(|f| f.synopsis()).collect();
    let mut args = Args::new(&synopsis.join(" "));
    let takes = |f| flags.contains(&f);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--paper" if takes(Flag::Scale) => o.scale = 1.0,
            "--scale" if takes(Flag::Scale) => o.scale = args.scale(),
            "--nodes" if takes(Flag::Nodes) => o.nodes = args.node_list(),
            "--protocols" if takes(Flag::Protocols) => o.protocols = args.protocols(),
            "--apps" if takes(Flag::Apps) => {
                o.apps = args.string().split(',').map(str::to_lowercase).collect()
            }
            _ => args.unknown(),
        }
    }
    // An entry that selects nothing would print an empty table and exit 0.
    let suite = paper_suite(o.scale);
    if let Some(a) = o
        .apps
        .iter()
        .find(|a| !suite.iter().any(|b| crate::selects(a, b.name())))
    {
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        args.fail(format_args!(
            "--apps {a:?} matches no workload (one of: {})",
            names.join(", ")
        ));
    }
    o
}
