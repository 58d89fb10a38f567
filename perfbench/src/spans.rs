//! In-memory span recorder for the traced run.
//!
//! A span covers one call the benchmark makes into a layer. Span names are
//! `<layer>.<call>[.<detail>]`; the layer is the part before the first dot.
//! Spans are kept in memory and written out once, when the run ends. When
//! the recorder is disabled, `open`/`close` return before reading the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>[.<detail>]`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which unit of work the span belongs to: `<workload>#pass<n>`,
    /// `<workload>#setup` or `<workload>#kernels`.
    pub group: String,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    group: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, enabled or not.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            group: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off. Only legal between top-level spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    /// Tag the spans opened from now on with `group`.
    pub fn set_group(&mut self, group: String) {
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            group: self.group.clone(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = self.now_ns();
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans until `depth` remain (after a caught panic).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open(name);
        let r = f(self);
        self.close();
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer within `group`, in nanoseconds: each span's
    /// duration minus the durations of its direct children.
    pub fn self_ns(&self, group: &str) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            if s.group == group {
                *out.entry(s.layer().to_string()).or_insert(0) += s.dur_ns().saturating_sub(*c);
            }
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"group\": \"{}\"}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.group,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_group("g".into());
        t.scope("bench.pass", |t| {
            t.scope("core.run.lrc", |t| {
                t.scope("checker.check_trace", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let self_ns = t.self_ns("g");
        let total: u64 = self_ns.values().sum();
        assert_eq!(
            total,
            t.spans()[0].dur_ns(),
            "self times partition the root span"
        );
        assert!(self_ns["checker"] >= 2_000_000);
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        t.scope("core.run.lrc", |_| ());
        assert!(t.spans().is_empty());
    }
}
