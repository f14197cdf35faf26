//! `rlim-egraph`: a small in-tree equality-saturation engine over
//! majority-inverter graphs, with endurance-cost extraction.
//!
//! The engine reuses `rlim-mig`'s packed [`Signal`]/[`NodeId`]
//! representation and its open-addressed [`Strash`] for hashconsing,
//! so an e-graph is structurally a `Mig` whose node ids name
//! *e-classes* instead of gates:
//!
//! * [`UnionFind`] — parity (complement-aware) union-find: every parent
//!   pointer carries a complement bit, so `a ≡ ¬b` is a first-class
//!   assertion and Ω.I duals share one class.
//! * [`EGraph`] — hashconsed e-nodes with the Ω.M simplifications and
//!   the Ω.I minimum-complement polarity canonicalization applied
//!   natively at interning, plus congruence closure via
//!   [`EGraph::rebuild`].
//! * [`saturate`]/[`Budget`] — deterministic rule saturation driven by
//!   the shared Ω rule descriptions in `rlim_mig::rewrite::rules`,
//!   bounded by node and iteration budgets.
//! * [`extract()`]/[`CostWeights`] — a weighted-cost extractor that
//!   rebuilds a plain [`Mig`](rlim_mig::Mig) from the cheapest
//!   representative of each class. Its cost model (per-gate base,
//!   estimated RM3 write cost, complemented edges) and its class levels
//!   are the only per-class analysis the engine keeps.
//!
//! Everything is deterministic: insertion-ordered iteration, fixed
//! permutation tables, smaller-root-wins unions. Two runs over the same
//! input with the same budgets produce byte-identical graphs.
//!
//! [`Signal`]: rlim_mig::Signal
//! [`NodeId`]: rlim_mig::NodeId
//! [`Strash`]: rlim_mig::Strash

mod graph;
mod saturate;
mod unionfind;

pub mod extract;

pub use extract::{extract, extract_around, CostWeights};
pub use graph::EGraph;
pub use saturate::{saturate, Budget, SaturationReport};
pub use unionfind::UnionFind;
