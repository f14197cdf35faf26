//! # rlim-plim — the Programmable Logic-in-Memory architecture
//!
//! PLiM (Gaillardon et al., DATE 2016) wraps a standard RRAM crossbar with a
//! small controller. When computation is enabled, the controller streams
//! `RM3` instructions: `RM3(P, Q, Z)` reads operands `P` and `Q` (from
//! memory cells or constants) and performs the *resistive majority*
//! operation on destination cell `Z`:
//!
//! ```text
//! Z ← ⟨P, Q̄, Z⟩   (3-input majority; the second operand is inverted)
//! ```
//!
//! The write to `Z` is the only state change per instruction, so the
//! per-cell write distribution of a program is fully determined by its
//! destination sequence — the quantity the DATE 2017 endurance paper
//! balances.
//!
//! This crate provides the RM3 ISA ([`Instruction`], [`Operand`],
//! implementing [`rlim_isa::Isa`]), the [`Program`] container (the shared
//! [`rlim_isa::Program`] instantiated at RM3, produced by
//! `rlim-compiler`), the [`Machine`] that executes programs against an
//! [`rlim_rram::Crossbar`], the bit-parallel [`WideMachine`] that runs up
//! to 64 input vectors per instruction with identical wear accounting,
//! the self-hosted [`Controller`] FSM, and the multi-crossbar [`Fleet`]
//! runtime with endurance-aware dispatch ([`DispatchPolicy`]). Every
//! fleet batch runs through one plan → execute → collect loop with a
//! per-array executor the fleet picks itself: word-level lanes on ideal
//! arrays, the scalar [`Machine`] wherever a write can fail or a program
//! reads a cell it has not written, or online fault recovery
//! ([`RecoveryConfig`], [`FaultRecorder`], [`patch_program`]) over
//! injected device faults ([`rlim_rram::FaultModel`]). Every executor
//! leaves the scalar crossbars with the outputs, write counts and cell
//! values a one-job-at-a-time [`Machine`] run gives. The workspace's one
//! worker pool lives in
//! [`parallel`]. What a program does to its cells is read off the
//! instruction stream in [`analysis`]: liveness spans, blocked cells and
//! the longest run of writes to one cell, with no execution needed.
//!
//! ## Example
//!
//! ```
//! use rlim_plim::{Instruction, Machine, Operand, Program};
//! use rlim_rram::CellId;
//!
//! // AND of two preloaded cells, computed into a third (zeroed) cell:
//! //   set0 z; z ← ⟨a, 1̄=… ⟩ — here directly: z ← ⟨a, b̄… ⟩ needs care, so
//! // use the canonical AND recipe: z ← ⟨a, q=1 (Q̄=0), z=b⟩? Simpler:
//! // maj(a, b, 0) via z preloaded 0 and RM3(a, !b is not expressible) —
//! // the compiler handles operand polarity; here we just show execution.
//! let a = CellId::new(0);
//! let b = CellId::new(1);
//! let z = CellId::new(2);
//! let program = Program {
//!     instructions: vec![
//!         // z ← ⟨a, Q̄, z⟩ with Q = constant true ⇒ z ← ⟨a, 0, 0⟩ = a ∧ … = 0∨(a∧0)…
//!         Instruction { p: Operand::Cell(a), q: Operand::Const(false), z },
//!     ],
//!     num_cells: 3,
//!     input_cells: vec![a, b],
//!     output_cells: vec![z],
//! };
//! program.validate().unwrap();
//! let mut machine = Machine::for_program(&program);
//! let out = machine.run(&program, &[true, false]).unwrap();
//! // z started 0; z ← ⟨1, !0=1, 0⟩ = 1
//! assert_eq!(out, vec![true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod asm;
mod controller;
mod fleet;
mod isa;
mod machine;
pub mod parallel;
mod recovery;
mod wide;

pub use controller::{Controller, State};
pub use fleet::{ArrayStats, DispatchPolicy, Fleet, FleetConfig, FleetError, FleetStats, Job};
pub use isa::{Instruction, Operand, Program, ProgramError};
pub use machine::{run_once, Machine};
pub use recovery::{
    patch_program, FaultEvent, FaultKind, FaultRecorder, RecoveryAction, RecoveryConfig,
};
pub use wide::{run_once_wide, WideMachine, LANES};
