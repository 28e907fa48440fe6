//! # skip-des — deterministic discrete-event simulation core
//!
//! This crate is the timing substrate for the whole `skip-rs` stack. Every
//! latency the reproduction reports — kernel launch overheads, queueing
//! delays, TTFT — is computed on the deterministic nanosecond clock defined
//! here, so that every table and figure of the paper regenerates
//! bit-identically from the same inputs.
//!
//! The crate provides four building blocks:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated
//!   timestamps and durations with checked arithmetic.
//! * [`EventQueue`] — a priority queue of timestamped events with a
//!   deterministic FIFO tiebreak for simultaneous events.
//! * [`Simulator`] — an event loop driving handlers that may schedule
//!   further events.
//! * [`FifoResource`] — a serial resource (a GPU stream, a CPU dispatch
//!   thread) that admits work in first-come-first-served order and tracks
//!   busy time for utilization accounting.
//!
//! # Example
//!
//! ```
//! use skip_des::{SimDuration, SimTime, Simulator};
//!
//! // Count ticks of a self-rescheduling event until the horizon.
//! let mut sim = Simulator::new();
//! sim.schedule(SimTime::ZERO, ());
//! let mut ticks = 0u32;
//! sim.run_until(SimTime::from_nanos(1_000), |ctx, ()| {
//!     ticks += 1;
//!     let next = ctx.now() + SimDuration::from_nanos(100);
//!     ctx.schedule(next, ());
//! });
//! assert_eq!(ticks, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod ids;
mod resource;
mod sim;
mod stats;
mod time;

pub use event::{EventQueue, Scheduled};
pub use ids::IdAllocator;
pub use resource::{Busy, FifoResource};
pub use sim::{SimContext, Simulator};
pub use stats::{mean, percentile, Summary};
pub use time::{SimDuration, SimTime};
