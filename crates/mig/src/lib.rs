//! # rlim-mig — Majority-Inverter Graphs for resistive logic-in-memory
//!
//! This crate provides the logic-representation substrate of the `rlim`
//! workspace, a reproduction of *"Endurance Management for Resistive
//! Logic-In-Memory Computing Architectures"* (DATE 2017):
//!
//! * [`Mig`] — the Majority-Inverter Graph: 3-input majority nodes with
//!   complemented edges, structural hashing and Ω.M simplification built in.
//! * [`Signal`] / [`NodeId`] — complement-edge references.
//! * [`rewrite`] — the paper's MIG Boolean-algebra passes (Ω.M, Ω.D, Ω.A,
//!   Ψ.C, the Ω.I inverter-propagation family) and the two pass schedules:
//!   Algorithm 1 (baseline PLiM-compiler rewriting) and Algorithm 2
//!   (endurance-aware rewriting).
//! * [`simulate`] — 64-way bit-parallel simulation and
//!   random equivalence checking (available as inherent methods on [`Mig`]).
//! * [`view`] — reusable structural views: levels, fanout, bitset live
//!   mask and a CSR parent index, derived together in two linear sweeps.
//! * [`strash`] — the open-addressing structural-hashing table behind
//!   [`Mig::add_maj`] deduplication, reusable across graph rebuilds.
//! * [`random`] — seeded random-MIG generation for tests and synthetic
//!   workloads.
//! * [`dot`] — Graphviz export.
//!
//! ## Example
//!
//! ```
//! use rlim_mig::{Mig, rewrite::{rewrite, Algorithm}};
//!
//! // f = maj(a, b, c) XOR d
//! let mut mig = Mig::new(4);
//! let [a, b, c, d] = [mig.input(0), mig.input(1), mig.input(2), mig.input(3)];
//! let m = mig.add_maj(a, b, c);
//! let f = mig.xor(m, d);
//! mig.add_output(f);
//!
//! let optimized = rewrite(&mig, Algorithm::EnduranceAware, 5);
//! assert!(optimized.num_gates() <= mig.num_gates());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mig;
mod signal;
pub mod strash;

pub mod blif;
pub mod dot;
pub mod random;
pub mod rewrite;
pub mod simulate;
pub mod view;

pub use crate::mig::{Mig, NodeKind};
pub use crate::signal::{NodeId, Signal};
pub use crate::simulate::{equiv_random, Equivalence};
pub use crate::strash::Strash;
pub use crate::view::{BitSet, StructuralView};
