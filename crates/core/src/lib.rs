//! # rlim-compiler — the endurance-aware MIG→PLiM compiler
//!
//! The primary contribution of *"Endurance Management for Resistive
//! Logic-In-Memory Computing Architectures"* (DATE 2017), reimplemented from
//! scratch: a compiler that translates Majority-Inverter Graphs into PLiM
//! `RM3` programs while balancing the write traffic over the RRAM crossbar.
//!
//! The paper's four jointly applied techniques map to:
//!
//! 1. **Minimum write count strategy** — [`Allocation::MinWrite`]: freed
//!    cells are handed out least-worn first.
//! 2. **Maximum write count strategy** —
//!    [`CompileOptions::with_max_writes`]: cells are retired at a write
//!    budget, trading extra instructions/cells for a hard per-cell bound.
//! 3. **Endurance-aware MIG rewriting** — Algorithm 2, selected via
//!    [`CompileOptions::endurance_rewriting`] (implemented in
//!    `rlim_mig::rewrite`).
//! 4. **Endurance-aware node selection** — Algorithm 3,
//!    [`Selection::EnduranceAware`]: computable nodes with the smallest
//!    fanout level index (shortest storage duration) first.
//!
//! The ready-made [`CompileOptions`] constructors correspond one-to-one to
//! the columns of the paper's Table I.
//!
//! ## Example
//!
//! ```
//! use rlim_compiler::{compile, CompileOptions};
//! use rlim_mig::Mig;
//! use rlim_plim::Machine;
//!
//! let mut mig = Mig::new(3);
//! let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
//! let (sum, carry) = mig.full_adder(a, b, c);
//! mig.add_output(sum);
//! mig.add_output(carry);
//!
//! let naive = compile(&mig, &CompileOptions::naive());
//! let balanced = compile(&mig, &CompileOptions::endurance_aware());
//!
//! // Both programs compute the same function…
//! let mut m1 = Machine::for_program(&naive.program);
//! let mut m2 = Machine::for_program(&balanced.program);
//! let inputs = [true, false, true];
//! assert_eq!(
//!     m1.run(&naive.program, &inputs).unwrap(),
//!     m2.run(&balanced.program, &inputs).unwrap(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
mod compiler;
mod frontend;
mod options;
mod peephole;
mod pipeline;
mod select;
mod translate;
pub mod values;

pub use cells::CellManager;
pub use compiler::{compile, compile_front, CompileResult};
pub use frontend::{FrontEnd, FrontKey, WearSummary};
pub use options::{Allocation, CompileOptions, Selection, DEFAULT_ESAT_ITERS, DEFAULT_ESAT_NODES};
pub use peephole::{elide_dead_writes, elide_redundant_writes, PeepholePass};
pub use pipeline::{
    EsatPass, FinalizePass, Pass, PassManager, PipelineState, RewritePass, Schedule, SchedulePass,
    ESAT_ROUNDS,
};
pub use select::Candidate;
pub use translate::TranslatePass;
