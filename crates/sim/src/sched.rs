//! The deterministic event scheduler.
//!
//! Events are closures over a caller-supplied world type `W`. Two events at
//! the same instant fire in the order they were scheduled (a monotonically
//! increasing sequence number breaks ties), so runs are fully reproducible.
//! Events can be cancelled by [`EventId`]; cancellation is implemented as a
//! tombstone set consulted at pop time.
//!
//! Storage is allocation-free on the hot path: closures small enough for a
//! slot's inline buffer are written in place into a slab of reusable slots,
//! and the priority queue is an index heap of `(time, seq, slot)` keys over
//! that slab. Only oversized closures fall back to a `Box`.

use std::collections::BTreeSet;
use std::mem::MaybeUninit;

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// Marks ids minted outside the scheduler (see [`EventId::synthetic`]).
    const SYNTHETIC_BIT: u64 = 1 << 63;

    /// Mint an id no scheduled event will ever carry.
    ///
    /// Explore-mode machines park timers instead of scheduling them but must
    /// still hand their callers an `EventId`. Synthetic ids live in a
    /// reserved range (bit 63 set, far above any reachable sequence number),
    /// so passing one to [`Scheduler::cancel`] is a safe no-op: the
    /// sequence-bound check rejects it before it can tombstone a real event.
    pub fn synthetic(key: u64) -> EventId {
        debug_assert!(key & Self::SYNTHETIC_BIT == 0, "synthetic key too large");
        EventId(Self::SYNTHETIC_BIT | key)
    }

    /// Whether this id came from [`EventId::synthetic`].
    pub fn is_synthetic(self) -> bool {
        self.0 & Self::SYNTHETIC_BIT != 0
    }

    /// The `key` this synthetic id was minted with.
    pub fn synthetic_key(self) -> u64 {
        debug_assert!(self.is_synthetic());
        self.0 & !Self::SYNTHETIC_BIT
    }
}

type EventFn<W> = Box<dyn FnOnce(&mut Scheduler<W>, &mut W)>;

/// Inline closure capacity per slot. Sized for the protocol's send/timer
/// closures (message + addressing captures); the occasional bigger closure
/// takes the `Box` fallback.
const INLINE_BYTES: usize = 192;
/// Maximum supported alignment for inline closures.
const INLINE_ALIGN: usize = 16;

/// The inline closure buffer. `#[repr(align(16))]` so any closure whose
/// alignment is <= [`INLINE_ALIGN`] can be written at offset 0.
#[repr(align(16))]
#[derive(Copy, Clone)]
struct InlineBuf([MaybeUninit<u8>; INLINE_BYTES]);

impl InlineBuf {
    fn ptr(&mut self) -> *mut u8 {
        self.0.as_mut_ptr() as *mut u8
    }
}

/// Type-erased storage for one event closure.
enum Stored<W> {
    /// The closure's bytes live in `buf`; `call` reads it out (taking
    /// ownership) and runs it, `drop_fn` drops it in place without running.
    Inline {
        buf: InlineBuf,
        call: unsafe fn(*mut u8, &mut Scheduler<W>, &mut W),
        drop_fn: unsafe fn(*mut u8),
    },
    /// Fallback for closures too big (or too aligned) for the buffer.
    Boxed(EventFn<W>),
    /// Free slot (the closure was taken or never set).
    Empty,
}

impl<W> Stored<W> {
    fn new<F: FnOnce(&mut Scheduler<W>, &mut W) + 'static>(f: F) -> Stored<W> {
        if std::mem::size_of::<F>() > INLINE_BYTES || std::mem::align_of::<F>() > INLINE_ALIGN {
            return Stored::Boxed(Box::new(f));
        }
        unsafe fn call_impl<W, F: FnOnce(&mut Scheduler<W>, &mut W)>(
            p: *mut u8,
            s: &mut Scheduler<W>,
            w: &mut W,
        ) {
            // SAFETY: `p` points at a valid `F` written by `Stored::new`;
            // `read` takes ownership and the caller never touches the bytes
            // again (invoke consumes the `Stored`).
            let f = unsafe { (p as *mut F).read() };
            f(s, w)
        }
        unsafe fn drop_impl<F>(p: *mut u8) {
            // SAFETY: `p` points at a valid `F` that will not be read again.
            unsafe { std::ptr::drop_in_place(p as *mut F) }
        }
        let mut buf = InlineBuf([MaybeUninit::uninit(); INLINE_BYTES]);
        // SAFETY: size and alignment were checked above; the buffer is
        // exclusively ours and uninitialized.
        unsafe { (buf.ptr() as *mut F).write(f) };
        Stored::Inline {
            buf,
            call: call_impl::<W, F>,
            drop_fn: drop_impl::<F>,
        }
    }

    /// Run the stored closure. Consumes the storage (inline closures are
    /// moved out of the buffer; moving the buffer itself is fine because
    /// Rust values relocate by plain memcpy).
    fn invoke(self, sched: &mut Scheduler<W>, world: &mut W) {
        match self {
            Stored::Inline { mut buf, call, .. } => {
                // SAFETY: `buf` holds the closure written at schedule time;
                // `call` reads it out exactly once. `self` is consumed, so no
                // second read or drop can happen.
                unsafe { call(buf.ptr(), sched, world) }
            }
            Stored::Boxed(f) => f(sched, world),
            Stored::Empty => unreachable!("invoke on empty slot"),
        }
    }

    /// Drop the stored closure without running it (cancelled events,
    /// scheduler teardown).
    fn dispose(self) {
        match self {
            Stored::Inline {
                mut buf, drop_fn, ..
            } => {
                // SAFETY: `buf` holds a valid closure that was never invoked;
                // `self` is consumed, so this is the single drop.
                unsafe { drop_fn(buf.ptr()) }
            }
            Stored::Boxed(f) => drop(f),
            Stored::Empty => {}
        }
    }
}

struct Slot<W> {
    /// Sequence number of the occupying event (debug cross-check).
    seq: u64,
    stored: Stored<W>,
}

/// Index-heap key: total order is `(at, seq)`; `slot` locates the closure.
#[derive(Copy, Clone)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    fn order(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A discrete-event scheduler over a world of type `W`.
///
/// The world is owned by the caller and passed by `&mut` into every event;
/// event closures therefore never capture world references and the borrow
/// checker stays happy even though events freely mutate global state.
///
/// # Examples
///
/// ```
/// use svm_sim::{Scheduler, SimDuration};
///
/// let mut sched: Scheduler<Vec<u32>> = Scheduler::new();
/// let mut world = Vec::new();
/// sched.after(SimDuration::from_micros(2), |_, w: &mut Vec<u32>| w.push(2));
/// sched.after(SimDuration::from_micros(1), |s, w: &mut Vec<u32>| {
///     w.push(1);
///     s.after(SimDuration::from_micros(5), |_, w: &mut Vec<u32>| w.push(3));
/// });
/// sched.run(&mut world);
/// assert_eq!(world, vec![1, 2, 3]);
/// ```
pub struct Scheduler<W> {
    now: SimTime,
    next_seq: u64,
    /// Min-heap of `(at, seq)` keys into `slots`.
    heap: Vec<HeapKey>,
    /// Slab of event slots; freed slots are reused via `free`.
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    cancelled: BTreeSet<u64>,
    executed: u64,
}

impl<W> Default for Scheduler<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Scheduler<W> {
    /// Create an empty scheduler at t = 0.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            cancelled: BTreeSet::new(),
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (diagnostics).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Schedule `f` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; debug builds panic, release
    /// builds clamp to `now` so the event still runs.
    pub fn at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Scheduler<W>, &mut W) + 'static,
    ) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let stored = Stored::new(f);
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                debug_assert!(matches!(sl.stored, Stored::Empty), "free slot occupied");
                sl.seq = seq;
                sl.stored = stored;
                s
            }
            None => {
                self.slots.push(Slot { seq, stored });
                (self.slots.len() - 1) as u32
            }
        };
        self.heap_push(HeapKey { at, seq, slot });
        EventId(seq)
    }

    /// Schedule `f` after a delay from now.
    pub fn after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Scheduler<W>, &mut W) + 'static,
    ) -> EventId {
        self.at(self.now + delay, f)
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        // We cannot cheaply check whether the event is still queued, so the
        // tombstone set may briefly hold ids of already-fired events; they are
        // swept when the heap drains past them. Double-cancel returns false.
        self.cancelled.insert(id.0)
    }

    /// Run a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(key) = self.heap_pop() {
            let slot = &mut self.slots[key.slot as usize];
            debug_assert_eq!(slot.seq, key.seq, "slot/heap desync");
            let stored = std::mem::replace(&mut slot.stored, Stored::Empty);
            self.free.push(key.slot);
            // Tombstones are rare (only cancelled timers); skip the set
            // probe entirely on the common empty-set path.
            if !self.cancelled.is_empty() && self.cancelled.remove(&key.seq) {
                stored.dispose();
                continue;
            }
            debug_assert!(key.at >= self.now, "time went backwards");
            self.now = key.at;
            self.executed += 1;
            stored.invoke(self, world);
            return true;
        }
        false
    }

    /// Run until no events remain.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run until no events remain or virtual time would pass `limit`.
    ///
    /// Returns `true` if the queue drained, `false` if the limit stopped it
    /// (the first event past the limit stays queued).
    pub fn run_until(&mut self, world: &mut W, limit: SimTime) -> bool {
        loop {
            match self.heap.first() {
                None => return true,
                Some(e) if e.at > limit => {
                    // Skip over tombstoned entries past the limit check.
                    if !self.cancelled.is_empty() && self.cancelled.contains(&e.seq) {
                        let key = *e;
                        self.heap_pop();
                        self.cancelled.remove(&key.seq);
                        let slot = &mut self.slots[key.slot as usize];
                        debug_assert_eq!(slot.seq, key.seq, "slot/heap desync");
                        std::mem::replace(&mut slot.stored, Stored::Empty).dispose();
                        self.free.push(key.slot);
                        continue;
                    }
                    return false;
                }
                Some(_) => {
                    self.step(world);
                }
            }
        }
    }

    // --- index heap (min-heap on `(at, seq)`) -------------------------------

    fn heap_push(&mut self, key: HeapKey) {
        self.heap.push(key);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].order() < self.heap[parent].order() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_pop(&mut self) -> Option<HeapKey> {
        let len = self.heap.len();
        if len == 0 {
            return None;
        }
        self.heap.swap(0, len - 1);
        let key = self.heap.pop();
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let child = if r < len && self.heap[r].order() < self.heap[l].order() {
                r
            } else {
                l
            };
            if self.heap[child].order() < self.heap[i].order() {
                self.heap.swap(i, child);
                i = child;
            } else {
                break;
            }
        }
        key
    }
}

impl<W> Drop for Scheduler<W> {
    fn drop(&mut self) {
        // Undrained events (halted runs, crash teardown) hold captured
        // resources; dispose them explicitly since inline closures have no
        // automatic drop.
        for slot in self.slots.drain(..) {
            slot.stored.dispose();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        let mut w = Vec::new();
        s.after(SimDuration::from_nanos(30), |sc, w: &mut Vec<u64>| {
            w.push(sc.now().as_nanos())
        });
        s.after(SimDuration::from_nanos(10), |sc, w: &mut Vec<u64>| {
            w.push(sc.now().as_nanos())
        });
        s.after(SimDuration::from_nanos(20), |sc, w: &mut Vec<u64>| {
            w.push(sc.now().as_nanos())
        });
        s.run(&mut w);
        assert_eq!(w, vec![10, 20, 30]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let mut w = Vec::new();
        for i in 0..10u32 {
            s.after(SimDuration::from_nanos(5), move |_, w: &mut Vec<u32>| {
                w.push(i)
            });
        }
        s.run(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        s.after(SimDuration::from_nanos(1), |sc, w: &mut u32| {
            *w += 1;
            sc.after(SimDuration::from_nanos(1), |_, w: &mut u32| *w += 10);
        });
        s.run(&mut w);
        assert_eq!(w, 11);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        let id = s.after(SimDuration::from_nanos(5), |_, w: &mut u32| *w += 1);
        s.after(SimDuration::from_nanos(6), |_, w: &mut u32| *w += 100);
        assert!(s.cancel(id));
        assert!(!s.cancel(id), "double cancel must report false");
        s.run(&mut w);
        assert_eq!(w, 100);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        let mut w = Vec::new();
        for t in [10u64, 20, 30] {
            s.at(SimTime::from_nanos(t), move |_, w: &mut Vec<u64>| w.push(t));
        }
        let drained = s.run_until(&mut w, SimTime::from_nanos(20));
        assert!(!drained);
        assert_eq!(w, vec![10, 20]);
        s.run(&mut w);
        assert_eq!(w, vec![10, 20, 30]);
    }

    #[test]
    fn now_advances_monotonically() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        let mut w = Vec::new();
        s.at(SimTime::from_nanos(7), |sc, _w: &mut Vec<u64>| {
            assert_eq!(sc.now().as_nanos(), 7);
        });
        s.run(&mut w);
        assert_eq!(s.now().as_nanos(), 7);
        // Scheduling after the run keeps the final clock.
        s.after(SimDuration::from_nanos(3), |sc, _| {
            assert_eq!(sc.now().as_nanos(), 10);
        });
        s.run(&mut w);
    }

    #[test]
    fn synthetic_ids_are_inert() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        let real = s.after(SimDuration::from_nanos(1), |_, w: &mut u32| *w += 1);
        let fake = EventId::synthetic(real.0); // same low bits as a live event
        assert!(fake.is_synthetic());
        assert!(!real.is_synthetic());
        assert_eq!(fake.synthetic_key(), real.0);
        // Cancelling the synthetic id must not tombstone the real event.
        assert!(!s.cancel(fake));
        s.run(&mut w);
        assert_eq!(w, 1, "real event still fired");
    }

    #[test]
    fn pending_counts_exclude_cancelled() {
        let mut s: Scheduler<()> = Scheduler::new();
        let a = s.after(SimDuration::from_nanos(1), |_, _| {});
        let _b = s.after(SimDuration::from_nanos(2), |_, _| {});
        assert_eq!(s.pending(), 2);
        s.cancel(a);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn slots_are_reused_after_events_fire() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        for round in 0..100u32 {
            s.after(SimDuration::from_nanos(u64::from(round) + 1), |_, w| {
                *w += 1
            });
            s.step(&mut w);
        }
        assert_eq!(w, 100);
        assert!(
            s.slots.len() <= 2,
            "sequential schedule/fire must recycle slots, used {}",
            s.slots.len()
        );
    }

    /// Captured resources must be released in every path: run, cancel, and
    /// scheduler drop with events still queued.
    #[test]
    fn closures_are_dropped_exactly_once() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut s: Scheduler<u32> = Scheduler::new();
        let mut w = 0u32;
        let t1 = token.clone();
        s.after(SimDuration::from_nanos(1), move |_, w: &mut u32| {
            let _k = &t1;
            *w += 1;
        });
        let t2 = token.clone();
        let id = s.after(SimDuration::from_nanos(2), move |_, _w: &mut u32| {
            let _k = &t2;
        });
        s.cancel(id);
        let t3 = token.clone();
        s.after(SimDuration::from_nanos(3), move |_, _w: &mut u32| {
            let _k = &t3;
        });
        s.step(&mut w); // fires t1
        assert_eq!(w, 1);
        drop(s); // t2 (tombstoned) and t3 (queued) disposed at teardown
        assert_eq!(Rc::strong_count(&token), 1, "all captures released");
    }

    /// Closures bigger than the inline buffer take the box fallback and
    /// still run correctly.
    #[test]
    fn oversized_closures_fall_back_to_box() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut w = 0u64;
        let big = [7u64; 64]; // 512 bytes of captures, > INLINE_BYTES
        s.after(SimDuration::from_nanos(1), move |_, w: &mut u64| {
            *w = big.iter().sum();
        });
        s.run(&mut w);
        assert_eq!(w, 7 * 64);
    }

    /// Equal-time events pop in schedule order: 20 events at times
    /// `i % 5 + 1` come out grouped by time, each group in ascending `i`.
    #[test]
    fn pop_order_is_time_then_schedule_order() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let mut w = Vec::new();
        for i in 0..20u32 {
            let t = u64::from(i % 5) + 1;
            s.after(SimDuration::from_nanos(t), move |_, w: &mut Vec<u32>| {
                w.push(i)
            });
        }
        s.run(&mut w);
        assert_eq!(
            w,
            [0, 5, 10, 15, 1, 6, 11, 16, 2, 7, 12, 17, 3, 8, 13, 18, 4, 9, 14, 19]
        );
    }
}
