//! Thread-local bounded buffer pools for the hot simulation engine.
//!
//! Diff creation, twin capture, and page-reply marshalling all need
//! short-lived byte buffers on the sweep hot path. Allocating each one
//! fresh made the engine allocation-bound (~4M run/twin vectors per
//! 60-cell sweep); instead, finished buffers are returned here and handed
//! back out cleared. Pools are per-thread (simulation runs are
//! single-threaded; parallel sweeps get one pool per worker, which is the
//! per-worker arena reuse of `svm_bench::parallel`) and bounded in both
//! count and retained capacity so peak memory stays flat.
//!
//! Pooling never changes observable values: buffers are handed out with
//! `len == 0` (or fully overwritten by `take_bytes_copy`), so a recycled
//! buffer is indistinguishable from a fresh one.

use std::cell::RefCell;

/// Most vectors retained per thread. Bounds idle pool memory.
const MAX_POOLED_VECS: usize = 64;
/// Largest capacity worth retaining (twins and page payloads are 8 KiB;
/// anything bigger is an outlier we'd rather give back to the allocator).
const MAX_POOLED_CAP: usize = 64 * 1024;

thread_local! {
    static BYTE_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Hand out an empty byte vector, reusing a pooled allocation when one is
/// available.
pub fn take_bytes() -> Vec<u8> {
    BYTE_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Hand out a byte vector holding a copy of `src` (the pooled replacement
/// for `src.to_vec()`).
pub fn take_bytes_copy(src: &[u8]) -> Vec<u8> {
    let mut v = take_bytes();
    v.extend_from_slice(src);
    v
}

/// Return a byte vector to this thread's pool (or drop it, when it is empty,
/// oversized, or the pool is full).
pub fn put_bytes(mut v: Vec<u8>) {
    if v.capacity() == 0 || v.capacity() > MAX_POOLED_CAP {
        return;
    }
    v.clear();
    BYTE_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED_VECS {
            p.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_empty_and_copy_matches_source() {
        let v = take_bytes();
        assert!(v.is_empty());
        let c = take_bytes_copy(&[1, 2, 3]);
        assert_eq!(c, [1, 2, 3]);
        put_bytes(c);
        // A reused buffer must come back empty regardless of its history.
        assert!(take_bytes().is_empty());
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOLED_VECS * 2) {
            put_bytes(Vec::with_capacity(16));
        }
        let held = BYTE_POOL.with(|p| p.borrow().len());
        assert!(held <= MAX_POOLED_VECS);
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        put_bytes(Vec::with_capacity(MAX_POOLED_CAP + 1));
        let any_giant =
            BYTE_POOL.with(|p| p.borrow().iter().any(|v| v.capacity() > MAX_POOLED_CAP));
        assert!(!any_giant);
    }
}
