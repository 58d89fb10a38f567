//! Deterministic, dependency-free property testing for the HLRC workspace.
//!
//! The build environment is hermetic: nothing may come from a package
//! registry, so the usual `proptest`/`criterion` stack is unavailable. This
//! crate provides the small subset the workspace actually needs, built on
//! the same [`SplitMix64`](svm_sim::SplitMix64) generator the simulator
//! uses for workload synthesis:
//!
//! * [`Source`] — a stream of random *choices* that generators draw from.
//!   Every draw is recorded, so a failing input is fully described by its
//!   choice sequence and can be replayed bit-for-bit.
//! * [`check`] / [`Config`] — the property runner. It derives a stable
//!   default seed from the property name, runs `TESTKIT_CASES` generated
//!   cases (64 by default), and on failure greedily shrinks the recorded
//!   choice sequence and prints the seed that reproduces the run.
//! * [`bench`] — the wall-clock [`Stopwatch`](bench::Stopwatch), the one
//!   sanctioned `Instant::now` for host-side stage timing.
//! * [`alloc`] — a counting global allocator for allocation budgets.
//!
//! # Writing a property
//!
//! A generator is any `FnMut(&mut Source) -> T`; a property is a closure
//! that panics (plain `assert!`) when the input violates the invariant:
//!
//! ```
//! use svm_testkit::{check, Source};
//!
//! fn pair(src: &mut Source) -> (u64, u64) {
//!     (src.below(1000), src.below(1000))
//! }
//!
//! check("addition_commutes", pair, |&(a, b)| {
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! # Reproducing a failure
//!
//! A failing property prints a line of the form
//! `TESTKIT_SEED=0x… TESTKIT_CASES=n`; exporting those variables and
//! re-running the same test reproduces the identical generated inputs and
//! the identical failure. `TESTKIT_CASES` raises (or narrows) the case
//! count; `TESTKIT_MAX_SHRINK` bounds the shrink search.
//!
//! # Shrinking
//!
//! Shrinking operates on the recorded choice sequence (in the style of
//! Hypothesis), not on the value: spans of choices are deleted or zeroed
//! and individual choices are minimized by binary search, re-running the
//! property after each edit. Generators therefore shrink "for free" —
//! including closures and `map`-style derived values — as long as they
//! draw smaller/simpler values from smaller choices, which every
//! combinator in [`Source`] does.

mod runner;
mod shrink;
mod source;

pub mod alloc;
pub mod bench;

pub use runner::{check, check_cfg, Config};
pub use source::Source;
