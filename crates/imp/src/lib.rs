//! Material-implication (IMPLY) logic-in-memory baseline.
//!
//! The paper's §II surveys why in-memory computing styles based on
//! material implication (`p IMP q = p̄ ∨ q`) concentrate writes on work
//! devices: IMP is not commutative, so every operation rewrites its second
//! operand, and NAND-based synthesis funnels each gate's writes into one
//! cell. This crate implements that baseline end to end — instruction set
//! ([`ImpOp`] / [`ImpProgram`]), executor ([`ImpMachine`]) and NAND-based
//! synthesis from an MIG ([`synthesize`]) — so its write traffic can be
//! measured with the same statistics as the PLiM/RM3 flow and compared
//! like for like (see the `imp_vs_rm3` eval binary and example).
//!
//! # Examples
//!
//! ```
//! use rlim_imp::{synthesize, ImpMachine, ImpSynthOptions};
//! use rlim_mig::Mig;
//! use rlim_rram::WriteStats;
//!
//! let mut mig = Mig::new(3);
//! let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
//! let m = mig.add_maj(a, b, c);
//! mig.add_output(m);
//!
//! let program = synthesize(&mig, &ImpSynthOptions::min_write());
//! let mut machine = ImpMachine::for_program(&program);
//! let out = machine.run(&program, &[true, false, true]).unwrap();
//! assert_eq!(out, vec![true]);
//!
//! let stats = WriteStats::from_counts(program.write_counts());
//! assert!(stats.max >= 3, "each NAND writes its work cell 3+ times");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod isa;
mod machine;
mod synth;

pub use isa::{ImpOp, ImpProgram, ImpProgramError};
pub use machine::ImpMachine;
pub use synth::{synthesize, ImpSynthOptions};
