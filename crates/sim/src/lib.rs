//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the execution substrate for the shared-virtual-memory
//! simulator: virtual time, a deterministic event scheduler, simulated
//! processes (application programs running on their own OS threads, resumed
//! one at a time in strict rendezvous with the event kernel), a
//! [`HandoffCell`] for state shared between the kernel and a parked process,
//! and a small deterministic RNG for workload generation.
//!
//! Determinism is the point: two events scheduled for the same virtual time
//! fire in scheduling order, only one simulated process ever runs at a time,
//! and nothing reads wall-clock time, so a simulation run is a pure function
//! of its inputs.

pub mod handoff;
pub mod process;
pub mod rng;
pub mod sched;
pub mod time;

pub use handoff::HandoffCell;
pub use process::{spawn_process, ProcessPort, SimProcess, Yielded};
pub use rng::SplitMix64;
pub use sched::{EventId, Scheduler};
pub use time::{SimDuration, SimTime};
