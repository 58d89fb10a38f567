//! The per-page memory model: race detection and read legality.
//!
//! Each page carries the *expected image* — the golden initial bytes
//! overlaid with every write in replay order. Because the replay order is
//! a linearization of happens-before, the last overlay on each byte is the
//! HB-maximal write among those processed, so for a race-free read the
//! expected bytes under the read range are exactly the legal value.
//!
//! Races are found with the interned episode clocks: a prior access to an
//! overlapping range by another node races with the current one iff its
//! episode does not happen-before the current one (the current access can
//! never happen-before an already-processed one, by linearization).
//!
//! **Deferred verdicts.** A read can be found racy *after* it was value
//! checked: a concurrent write later in the linearization races it
//! retroactively, and a racy read has no unique legal value. So a failed
//! value check is held as a *pending* violation tagged with the read's
//! identity, and `Memory::into_report` drops the pending violations of
//! every read that ended up racy. Each read is value checked exactly when
//! no earlier-linearized write races it, and its violation survives
//! exactly when no write races it at all — the verdict a checker that knew
//! the full racy set up front would reach, in one pass.
//!
//! **Retirement.** Only accesses that may still race are kept *live* for
//! the race scans; the replay retires the rest at barrier departures (see
//! `Memory::retire`). The counterexample anchor of an illegal read is
//! taken from a separate per-page write history, so it does not depend on
//! what was retired.

use std::collections::HashSet;

use svm_core::trace::{fnv1a64, FNV_BASIS};
use svm_core::AccessTrace;

use crate::replay::EpCtx;
use crate::{CheckReport, Race, RaceKind, Violation, MAX_RACES, MAX_VIOLATIONS};

/// A read's identity: `(node, per-node read ordinal)`.
type ReadId = (u16, u64);

/// One recorded access range: who, in which episode, which bytes.
#[derive(Clone, Copy)]
struct Run {
    node: u16,
    ep: u32,
    /// The episode clock's own component for `node`: the access
    /// happens-before episode `e` iff `vcs[e][node] >= clk`.
    clk: u32,
    lo: u32,
    hi: u32,
    /// Read ordinal (reads only; unused for writes).
    id: u64,
}

impl Run {
    fn overlaps(&self, lo: u32, hi: u32) -> bool {
        self.lo < hi && lo < self.hi
    }

    /// Does this access, by another node, race with an access by `node`
    /// whose episode clock is `cur`?
    fn races(&self, node: u16, cur: &[u32]) -> bool {
        self.node != node && cur[self.node as usize] < self.clk
    }
}

struct PageState {
    expected: Vec<u8>,
    /// Writes that may still race with a future access.
    writes: Vec<Run>,
    /// Reads that may still race with a future write.
    reads: Vec<Run>,
    /// Every write in linearization order, for counterexample anchors.
    history: Vec<Run>,
}

pub(crate) struct Memory<'t> {
    page_size: usize,
    initial: &'t [u8],
    /// Page → state, created on first access; indices below the image's
    /// page count only.
    pages: Vec<Option<PageState>>,
    report: CheckReport,
    /// Dedup key for detailed races: (page, kind, node a, node b).
    race_seen: HashSet<(u32, u8, u16, u16)>,
    /// Next read ordinal per node.
    read_seq: Vec<u64>,
    /// Reads that race with some write, earlier or later linearized.
    racy: HashSet<ReadId>,
    /// Every violation in discovery order; a read-legality violation
    /// carries its read's identity so it can be dropped if the read turns
    /// out racy.
    pending: Vec<(Option<ReadId>, Violation)>,
}

impl<'t> Memory<'t> {
    pub fn new(trace: &'t AccessTrace) -> Self {
        let ps = trace.page_size;
        // The addressable pages: the declared count, as far as the
        // initial image actually covers it.
        let num_pages = match trace.initial.len().checked_div(ps) {
            Some(covered) => covered.min(trace.num_pages as usize),
            None => 0,
        };
        Memory {
            page_size: ps,
            initial: &trace.initial,
            pages: (0..num_pages).map(|_| None).collect(),
            report: CheckReport::default(),
            race_seen: HashSet::new(),
            read_seq: vec![0; trace.nodes],
            racy: HashSet::new(),
            pending: Vec::new(),
        }
    }

    /// Settle the deferred verdicts: drop the value violations of reads
    /// found racy, then count and cap what remains.
    pub fn into_report(mut self) -> CheckReport {
        let racy = &self.racy;
        let kept = self
            .pending
            .into_iter()
            .filter(|(read, _)| read.is_none_or(|id| !racy.contains(&id)))
            .map(|(_, v)| v);
        for v in kept {
            self.report.violations_total += 1;
            if self.report.violations.len() < MAX_VIOLATIONS {
                self.report.violations.push(v);
            }
        }
        self.report.racy_reads = self.racy.len() as u64;
        self.report
    }

    /// Record a violation that no later event can excuse.
    pub fn violation(&mut self, v: Violation) {
        self.pending.push((None, v));
    }

    /// Drop every live access whose own clock component is at most
    /// `frontier` for its node.
    ///
    /// The replay passes `frontier[a] = min over m != a of node_vc[m][a]`.
    /// Every future episode of node `m` dominates `node_vc[m]`, so such an
    /// access happens-before every future access of every other node and
    /// can never race again; same-node accesses never race. Retirement
    /// therefore changes no race and no verdict, only the scan lengths.
    pub fn retire(&mut self, frontier: &[u32]) {
        let live = |r: &Run| r.clk > frontier[r.node as usize];
        for st in self.pages.iter_mut().flatten() {
            st.writes.retain(live);
            st.reads.retain(live);
        }
    }

    fn race(&mut self, ctx: &EpCtx, kind: RaceKind, page: u32, a: (u16, u32), b: (u16, u32)) {
        match kind {
            RaceKind::ReadWrite => self.report.race_pairs += 1,
            RaceKind::WriteWrite => self.report.ww_races += 1,
        }
        let key = (page, kind as u8, a.0, b.0);
        if self.race_seen.insert(key) && self.report.races.len() < MAX_RACES {
            self.report.races.push(Race {
                kind,
                page,
                first: (a.0, ctx.time(a.1)),
                second: (b.0, ctx.time(b.1)),
            });
        }
    }

    /// The byte range `[off, off + len)` of `page`, or `None` after
    /// reporting the trace malformed when it lies outside the image.
    fn range(&mut self, node: u16, page: u32, off: u32, len: usize) -> Option<(u32, u32)> {
        let hi = (off as usize)
            .checked_add(len)
            .filter(|&hi| hi <= self.page_size)
            .and_then(|hi| u32::try_from(hi).ok());
        match hi {
            Some(hi) if (page as usize) < self.pages.len() => Some((off, hi)),
            _ => {
                self.violation(Violation::MalformedTrace {
                    reason: format!(
                        "node {node} accessed page {page} bytes [{off}, {off} + {len}), \
                         outside the {}-page image of {}-byte pages",
                        self.pages.len(),
                        self.page_size
                    ),
                });
                None
            }
        }
    }

    fn page(&mut self, page: u32) -> &mut PageState {
        let ps = self.page_size;
        let initial = self.initial;
        self.pages[page as usize].get_or_insert_with(|| {
            let base = page as usize * ps;
            PageState {
                expected: initial[base..base + ps].to_vec(),
                writes: Vec::new(),
                reads: Vec::new(),
                history: Vec::new(),
            }
        })
    }

    /// Replay a read: race it against live writes, and for a read no
    /// earlier write races, compare the recorded digest with the expected
    /// image (the verdict is settled in `Memory::into_report`).
    #[allow(clippy::too_many_arguments)] // a read's identity is naturally wide
    pub fn read(
        &mut self,
        ctx: &EpCtx,
        node: u16,
        ep: u32,
        page: u32,
        off: u32,
        len: u32,
        digest: u64,
    ) {
        let Some((lo, hi)) = self.range(node, page, off, len as usize) else {
            return;
        };
        self.report.reads += 1;
        let id = self.read_seq[node as usize];
        self.read_seq[node as usize] += 1;
        let cur = &ctx.vcs[ep as usize];
        let st = self.page(page);
        let racing: Vec<(u16, u32)> = st
            .writes
            .iter()
            .filter(|w| w.overlaps(lo, hi) && w.races(node, cur))
            .map(|w| (w.node, w.ep))
            .collect();
        let verdict = if racing.is_empty() {
            let want = fnv1a64(FNV_BASIS, &st.expected[lo as usize..hi as usize]);
            (want != digest).then(|| Violation::ReadValue {
                node,
                page,
                off,
                len,
                at: ctx.time(ep),
                got: digest,
                want,
                // The last overlapping write the read sees: same-node or
                // happens-before, retired or not.
                last_write: st
                    .history
                    .iter()
                    .rev()
                    .find(|w| w.overlaps(lo, hi) && !w.races(node, cur))
                    .map(|w| (w.node, ctx.time(w.ep))),
            })
        } else {
            None
        };
        st.reads.push(Run {
            node,
            ep,
            clk: cur[node as usize],
            lo,
            hi,
            id,
        });
        if !racing.is_empty() {
            self.racy.insert((node, id));
        }
        for other in racing {
            self.race(ctx, RaceKind::ReadWrite, page, other, (node, ep));
        }
        if let Some(v) = verdict {
            self.pending.push((Some((node, id)), v));
        }
    }

    /// Replay one write run: race it against live conflicting accesses,
    /// then overlay it on the expected image.
    pub fn write(&mut self, ctx: &EpCtx, node: u16, ep: u32, page: u32, off: u32, bytes: &[u8]) {
        let Some((lo, hi)) = self.range(node, page, off, bytes.len()) else {
            return;
        };
        self.report.writes += 1;
        let cur = &ctx.vcs[ep as usize];
        let st = self.page(page);
        let ww: Vec<(u16, u32)> = st
            .writes
            .iter()
            .filter(|w| w.overlaps(lo, hi) && w.races(node, cur))
            .map(|w| (w.node, w.ep))
            .collect();
        let wr: Vec<(u16, u32, u64)> = st
            .reads
            .iter()
            .filter(|r| r.overlaps(lo, hi) && r.races(node, cur))
            .map(|r| (r.node, r.ep, r.id))
            .collect();
        st.expected[lo as usize..hi as usize].copy_from_slice(bytes);
        let run = Run {
            node,
            ep,
            clk: cur[node as usize],
            lo,
            hi,
            id: 0,
        };
        st.writes.push(run);
        st.history.push(run);
        for other in ww {
            self.race(ctx, RaceKind::WriteWrite, page, other, (node, ep));
        }
        for (r, rep, id) in wr {
            self.racy.insert((r, id));
            self.race(ctx, RaceKind::ReadWrite, page, (r, rep), (node, ep));
        }
    }
}
