//! Word-granularity run-length diffs.
//!
//! A diff records the words of a dirty page that differ from its twin, as
//! maximal runs of changed 4-byte words (TreadMarks used the same
//! granularity). Diffs are the unit of update propagation in every protocol
//! here: homeless LRC stores and serves them until garbage collection,
//! home-based LRC ships them to the page's home, which applies and discards
//! them (paper Section 2.3).
//!
//! Storage is flattened: one contiguous payload buffer plus a small index of
//! `(offset, len)` run descriptors, instead of one `Vec<u8>` per run. Real
//! diffs average ~20 runs, so the flat form turns ~21 allocations per diff
//! into at most two — and zero once the buffers cycle through the
//! thread-local [`pool`](crate::pool) via [`Diff::recycle`].

use crate::pool;

/// Diff granularity in bytes: one 32-bit word, as in TreadMarks.
pub const DIFF_WORD: usize = 4;

/// Wire/heap overhead charged per run (offset + length headers).
const RUN_HEADER_BYTES: usize = 8;
/// Wire/heap overhead charged per diff (page id, writer, interval, count).
const DIFF_HEADER_BYTES: usize = 16;

/// One run's descriptor: byte offset within the page and payload length.
/// The payload itself lives in the diff's shared data buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct RunRef {
    offset: u32,
    len: u32,
}

/// A borrowed view of one maximal run of modified bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunView<'a> {
    /// Byte offset of the run within the page (word-aligned).
    pub offset: u32,
    /// The new bytes (length is a multiple of [`DIFF_WORD`]).
    pub bytes: &'a [u8],
}

/// A set of page updates: the difference between a twin and a dirty copy.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Diff {
    runs: Vec<RunRef>,
    /// Concatenated run payloads, in run order.
    data: Vec<u8>,
}

thread_local! {
    /// Pool of run-descriptor vectors, mirroring [`pool`]'s byte pool.
    static RUN_POOL: std::cell::RefCell<Vec<Vec<RunRef>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

const MAX_POOLED_RUN_VECS: usize = 64;

fn take_runs() -> Vec<RunRef> {
    RUN_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

fn put_runs(mut v: Vec<RunRef>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    RUN_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED_RUN_VECS {
            p.push(v);
        }
    });
}

impl Diff {
    /// Compute the diff of `current` against `twin` at word granularity.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the length is not a multiple
    /// of [`DIFF_WORD`].
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        assert_eq!(twin.len() % DIFF_WORD, 0, "page size must be word-multiple");
        let words = twin.len() / DIFF_WORD;
        // Hot path: this runs once per twin at every release/flush. Scan
        // two words per step via u64 loads (XOR + halves test classifies
        // both words at once) and reuse pooled buffers — real diffs are
        // a handful of runs. The runs produced are exactly those of the
        // word-at-a-time scan (pinned by chunk_equivalence tests).
        let mut runs = take_runs();
        runs.reserve(8);
        let mut data = pool::take_bytes();

        // Do 32-bit words `w` and `w+1` differ? Little-endian load order
        // puts word `w` in the low half regardless of host endianness.
        #[inline]
        fn chunk(twin: &[u8], current: &[u8], w: usize) -> (bool, bool) {
            let b = w * DIFF_WORD;
            let t = u64::from_le_bytes(twin[b..b + 8].try_into().expect("8-byte chunk"));
            let c = u64::from_le_bytes(current[b..b + 8].try_into().expect("8-byte chunk"));
            let x = t ^ c;
            (x & 0xFFFF_FFFF != 0, x >> 32 != 0)
        }
        #[inline]
        fn word_differs(twin: &[u8], current: &[u8], w: usize) -> bool {
            let b = w * DIFF_WORD;
            twin[b..b + DIFF_WORD] != current[b..b + DIFF_WORD]
        }

        let mut w = 0;
        loop {
            // Skip equal words, two at a time, until `w` differs.
            while w + 1 < words {
                let (lo, hi) = chunk(twin, current, w);
                if lo {
                    break;
                }
                if hi {
                    w += 1;
                    break;
                }
                w += 2;
            }
            if w + 1 == words && !word_differs(twin, current, w) {
                w += 1;
            }
            if w >= words {
                break;
            }
            // `w` differs: extend the run through consecutive differing
            // words, again two at a time.
            let start = w;
            while w + 1 < words {
                let (lo, hi) = chunk(twin, current, w);
                if !lo {
                    break;
                }
                if !hi {
                    w += 1;
                    break;
                }
                w += 2;
            }
            if w + 1 == words && word_differs(twin, current, w) {
                w += 1;
            }
            let bytes = &current[start * DIFF_WORD..w * DIFF_WORD];
            runs.push(RunRef {
                offset: (start * DIFF_WORD) as u32,
                len: bytes.len() as u32,
            });
            data.extend_from_slice(bytes);
        }
        Diff { runs, data }
    }

    /// Build a diff from explicit `(offset, bytes)` runs.
    ///
    /// For tests and wire decoding; no validation beyond flattening, so
    /// malformed runs (overlapping, out of bounds) surface later through
    /// [`Diff::apply`]'s named bounds check.
    pub fn from_runs<I, B>(runs: I) -> Diff
    where
        I: IntoIterator<Item = (u32, B)>,
        B: AsRef<[u8]>,
    {
        let mut d = Diff::default();
        for (offset, bytes) in runs {
            let bytes = bytes.as_ref();
            d.runs.push(RunRef {
                offset,
                len: bytes.len() as u32,
            });
            d.data.extend_from_slice(bytes);
        }
        d
    }

    /// Apply the diff onto `dst` (a page copy).
    ///
    /// # Panics
    ///
    /// Panics with a named "diff run out of bounds" message if any run
    /// falls outside `dst`.
    pub fn apply(&self, dst: &mut [u8]) {
        for run in self.runs() {
            let off = run.offset as usize;
            let end = off.checked_add(run.bytes.len());
            assert!(
                end.is_some_and(|e| e <= dst.len()),
                "diff run out of bounds: offset {off} + {} bytes > page size {}",
                run.bytes.len(),
                dst.len()
            );
            dst[off..off + run.bytes.len()].copy_from_slice(run.bytes);
        }
    }

    /// Whether the diff records no changes.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The runs, for inspection, in page order.
    pub fn runs(&self) -> Runs<'_> {
        Runs {
            diff: self,
            next: 0,
            cursor: 0,
        }
    }

    /// Total bytes of changed data.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes this diff occupies on the wire (payload + encoding headers).
    ///
    /// This is what the traffic tables (paper Table 5) charge per diff
    /// message in addition to the message envelope.
    pub fn wire_bytes(&self) -> usize {
        DIFF_HEADER_BYTES + self.runs.len() * RUN_HEADER_BYTES + self.payload_bytes()
    }

    /// Bytes this diff occupies in memory while stored (paper Table 6).
    pub fn heap_bytes(&self) -> usize {
        // Stored form ~ wire form plus allocator/run-vector overhead. The
        // charge is part of the model (it drives the GC threshold, hence
        // virtual time), so it is pinned to the historical per-run layout
        // even though the flat storage is cheaper in host memory.
        DIFF_HEADER_BYTES + self.runs.len() * (RUN_HEADER_BYTES + 16) + self.payload_bytes()
    }

    /// Merge `later` into `self`: the result applied once equals applying
    /// `self` then `later`.
    ///
    /// Used by the home to coalesce, and by tests as an algebraic check.
    ///
    /// # Panics
    ///
    /// Panics with a named "diff run out of bounds in merge" message if
    /// either diff has a run that does not fit inside `page_size`.
    pub fn merge(&self, later: &Diff, page_size: usize) -> Diff {
        // Both diffs' runs must fit the scratch page; validate up front so
        // a corrupt run fails with a named panic instead of a raw slice
        // error deep in `apply`.
        for d in [self, later] {
            for run in d.runs() {
                let end = (run.offset as usize).checked_add(run.bytes.len());
                assert!(
                    end.is_some_and(|e| e <= page_size),
                    "diff run out of bounds in merge: offset {} + {} bytes > page size {page_size}",
                    run.offset,
                    run.bytes.len()
                );
            }
        }
        // Materialize both diffs on a scratch page and rebuild runs from the
        // union of touched words. Diffs are short-lived; not a hot path, but
        // the scratch page still comes from the pool.
        let words = page_size / DIFF_WORD;
        let mut touched = vec![false; words];
        let mut cur = pool::take_bytes();
        cur.resize(page_size, 0);
        for d in [self, later] {
            d.apply(&mut cur);
            for run in &d.runs {
                let first = run.offset as usize / DIFF_WORD;
                for t in &mut touched[first..first + run.len as usize / DIFF_WORD] {
                    *t = true;
                }
            }
        }
        let mut out = Diff {
            runs: take_runs(),
            data: pool::take_bytes(),
        };
        let mut w = 0;
        while w < words {
            if !touched[w] {
                w += 1;
                continue;
            }
            let start = w;
            while w < words && touched[w] {
                w += 1;
            }
            let bytes = &cur[start * DIFF_WORD..w * DIFF_WORD];
            out.runs.push(RunRef {
                offset: (start * DIFF_WORD) as u32,
                len: bytes.len() as u32,
            });
            out.data.extend_from_slice(bytes);
        }
        pool::put_bytes(cur);
        out
    }

    /// Return this diff's buffers to the thread-local pools.
    ///
    /// Call where a diff's lifetime provably ends (the home after applying
    /// a flush, garbage collection); plain `drop` remains correct anywhere
    /// else.
    pub fn recycle(self) {
        put_runs(self.runs);
        pool::put_bytes(self.data);
    }
}

/// Iterator over a diff's runs as [`RunView`]s.
pub struct Runs<'a> {
    diff: &'a Diff,
    next: usize,
    cursor: usize,
}

impl<'a> Iterator for Runs<'a> {
    type Item = RunView<'a>;

    fn next(&mut self) -> Option<RunView<'a>> {
        let r = self.diff.runs.get(self.next)?;
        let bytes = &self.diff.data[self.cursor..self.cursor + r.len as usize];
        self.next += 1;
        self.cursor += r.len as usize;
        Some(RunView {
            offset: r.offset,
            bytes,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.diff.runs.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Runs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(vals: &[(usize, u8)], size: usize) -> Vec<u8> {
        let mut p = vec![0u8; size];
        for &(i, v) in vals {
            p[i] = v;
        }
        p
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let twin = vec![7u8; 64];
        let d = Diff::create(&twin, &twin);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = vec![0u8; 64];
        let cur = page(&[(10, 5)], 64);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        let run = d.runs().next().expect("one run");
        assert_eq!(run.offset, 8, "run must be word-aligned");
        assert_eq!(d.payload_bytes(), 4);
        let mut out = twin.clone();
        d.apply(&mut out);
        assert_eq!(out, cur);
    }

    #[test]
    fn adjacent_words_coalesce_into_one_run() {
        let twin = vec![0u8; 64];
        let cur = page(&[(4, 1), (8, 2), (12, 3)], 64);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.runs().next().expect("one run").offset, 4);
        assert_eq!(d.payload_bytes(), 12);
    }

    #[test]
    fn separate_runs_for_gaps() {
        let twin = vec![0u8; 64];
        let cur = page(&[(0, 1), (32, 2)], 64);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.run_count(), 2);
    }

    #[test]
    fn apply_roundtrip_whole_page_change() {
        let twin = vec![0xAAu8; 128];
        let cur: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let d = Diff::create(&twin, &cur);
        let mut out = twin.clone();
        d.apply(&mut out);
        assert_eq!(out, cur);
    }

    #[test]
    fn from_runs_matches_create() {
        let twin = vec![0u8; 64];
        let cur = page(&[(0, 1), (32, 2)], 64);
        let created = Diff::create(&twin, &cur);
        let rebuilt = Diff::from_runs(
            created
                .runs()
                .map(|r| (r.offset, r.bytes.to_vec()))
                .collect::<Vec<_>>(),
        );
        assert_eq!(created, rebuilt);
    }

    #[test]
    fn runs_iterator_is_exact_size() {
        let twin = vec![0u8; 64];
        let d = Diff::create(&twin, &page(&[(0, 1), (32, 2)], 64));
        let mut it = d.runs();
        assert_eq!(it.len(), 2);
        it.next();
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn recycled_buffers_do_not_leak_into_new_diffs() {
        let twin = vec![0u8; 64];
        let d = Diff::create(&twin, &page(&[(0, 9), (32, 9)], 64));
        d.recycle();
        let empty = Diff::create(&twin, &twin);
        assert!(empty.is_empty());
        assert_eq!(empty.payload_bytes(), 0);
    }

    #[test]
    fn wire_and_heap_sizes_grow_with_runs() {
        let twin = vec![0u8; 64];
        let one = Diff::create(&twin, &page(&[(0, 1)], 64));
        let two = Diff::create(&twin, &page(&[(0, 1), (32, 2)], 64));
        assert!(two.wire_bytes() > one.wire_bytes());
        assert!(two.heap_bytes() > one.heap_bytes());
        assert!(one.heap_bytes() >= one.wire_bytes());
    }

    #[test]
    fn merge_equals_sequential_application() {
        let size = 64;
        let base = vec![0x11u8; size];
        let mut a_page = base.clone();
        a_page[8..12].copy_from_slice(&[1, 2, 3, 4]);
        let a = Diff::create(&base, &a_page);
        let mut b_page = a_page.clone();
        b_page[8..12].copy_from_slice(&[9, 9, 9, 9]); // overwrite a's word
        b_page[40..44].copy_from_slice(&[5, 6, 7, 8]);
        let b = Diff::create(&a_page, &b_page);

        let merged = a.merge(&b, size);
        let mut via_merge = base.clone();
        merged.apply(&mut via_merge);
        let mut via_seq = base.clone();
        a.apply(&mut via_seq);
        b.apply(&mut via_seq);
        assert_eq!(via_merge, via_seq);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn create_rejects_mismatched_lengths() {
        let _ = Diff::create(&[0u8; 8], &[0u8; 12]);
    }

    /// An oversized run (e.g. from a corrupt wire decode) must fail the
    /// named bounds check, not a raw slice panic inside the copy.
    fn oversized() -> Diff {
        Diff::from_runs([(60u32, vec![1u8, 2, 3, 4, 5, 6, 7, 8])])
    }

    #[test]
    #[should_panic(expected = "diff run out of bounds: offset 60 + 8 bytes > page size 64")]
    fn apply_rejects_run_past_page_end() {
        oversized().apply(&mut [0u8; 64]);
    }

    #[test]
    #[should_panic(expected = "diff run out of bounds in merge")]
    fn merge_rejects_oversized_run_in_earlier_diff() {
        let _ = oversized().merge(&Diff::default(), 64);
    }

    #[test]
    #[should_panic(expected = "diff run out of bounds in merge")]
    fn merge_rejects_oversized_run_in_later_diff() {
        let _ = Diff::default().merge(&oversized(), 64);
    }
}
