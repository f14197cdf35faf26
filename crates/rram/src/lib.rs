//! # rlim-rram — RRAM device, crossbar array and wear models
//!
//! The memory substrate of the `rlim` workspace. A Resistive Random Access
//! Memory (RRAM) cell stores one bit as a low/high internal resistance
//! state; switching that state is a *write*, and cells endure only a finite
//! number of writes (≈10¹⁰–10¹¹ for the best devices cited by the DATE 2017
//! paper). Logic-in-memory computing performs every `RM3` operation as a
//! write, so the per-cell write distribution decides the array's lifetime.
//!
//! * [`Crossbar`] — a growable array of bipolar resistive switches with
//!   per-cell write counters and an optional endurance limit.
//! * [`WriteStats`] — min / max / standard deviation of write counts, the
//!   paper's evaluation metrics.
//! * [`FleetWriteStats`] — the same metrics aggregated over a fleet of
//!   arrays, per array and pooled per cell.
//! * [`Geometry`] / [`WearMap`] — the physical rows × columns view and an
//!   ASCII wear heat map.
//! * [`lifetime`] — how many program executions an array survives.
//! * [`Allocation`] — the freed-cell reuse policy (LIFO or the paper's
//!   minimum write count strategy) shared by the RM3 and IMPLY compilers.
//! * [`FaultModel`] / [`WriteFault`] — deterministic per-cell fault
//!   injection (sampled endurance limits, mid-life stuck-at faults) with
//!   write-verify readback as the detection primitive.
//!
//! ## Example
//!
//! ```
//! use rlim_rram::{Crossbar, WriteStats};
//!
//! let mut array = Crossbar::new();
//! let a = array.alloc(false);
//! let b = array.alloc(true);
//! array.write(a, true).unwrap();
//! array.write(a, false).unwrap();
//! array.write(b, false).unwrap();
//! let stats = WriteStats::from_counts(array.write_counts());
//! assert_eq!(stats.min, 1);
//! assert_eq!(stats.max, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod crossbar;
mod fault;
mod geometry;
mod stats;

pub mod lifetime;
pub mod variability;

pub use allocation::Allocation;
pub use crossbar::{CellId, Crossbar, EnduranceError};
pub use fault::{CellProfile, FaultModel, StuckAtError, StuckFault, WriteFault};
pub use geometry::{Geometry, WearMap};
pub use stats::{FleetWriteStats, WriteStats};
