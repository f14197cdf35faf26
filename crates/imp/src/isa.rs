//! The stateful material-implication instruction set, plugged into the
//! shared [`rlim_isa`] program container.
//!
//! IMPLY logic [Borghetti et al., Nature 2010] computes with two
//! operations on resistive cells:
//!
//! * `FALSE q` — unconditionally reset cell `q` to 0;
//! * `p IMP q` — conditionally set: `q ← p̄ ∨ q` (material implication of
//!   the value stored in `p` into the value stored in `q`).
//!
//! Both operations pulse the destination cell, so — exactly as for RM3 —
//! every instruction is one write on its destination. Unlike RM3, *only*
//! the work cell `q` is ever written: the paper's §II observes that this
//! lack of commutativity concentrates the write traffic on work devices.

use std::fmt;

use rlim_isa::Isa;
use rlim_rram::CellId;

/// One IMPLY-logic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImpOp {
    /// `FALSE q`: reset the cell to 0.
    False(CellId),
    /// `p IMP q`: `q ← p̄ ∨ q`.
    Imply {
        /// Condition cell (read only).
        p: CellId,
        /// Work cell (read and rewritten).
        q: CellId,
    },
}

impl fmt::Display for ImpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImpOp::False(q) => write!(f, "FALSE r{}", q.index()),
            ImpOp::Imply { p, q } => write!(f, "r{} IMP r{}", p.index(), q.index()),
        }
    }
}

impl Isa for ImpOp {
    const NAME: &'static str = "IMPLY";
    // An IMP read of a never-written, non-input cell would observe
    // whatever the array happened to hold, so validation rejects it.
    const REQUIRES_DEFINED_READS: bool = true;

    fn destination(&self) -> CellId {
        match *self {
            ImpOp::False(q) | ImpOp::Imply { q, .. } => q,
        }
    }

    fn reads(&self) -> impl Iterator<Item = CellId> {
        match *self {
            // FALSE is unconditional: no data dependency.
            ImpOp::False(_) => None,
            // IMP reads the condition and the work cell's previous value.
            ImpOp::Imply { p, q } => Some([p, q]),
        }
        .into_iter()
        .flatten()
    }
}

impl ImpOp {
    /// The cell this operation writes (inherent mirror of
    /// [`Isa::destination`] so callers don't need the trait in scope).
    pub fn destination(self) -> CellId {
        Isa::destination(&self)
    }
}

/// A compiled IMPLY program: the shared container instantiated at the
/// IMPLY instruction set, giving it the same `write_counts()` /
/// `write_stats()` accounting surface as the RM3 program.
pub type ImpProgram = rlim_isa::Program<ImpOp>;

/// Structural validation error of an [`ImpProgram`] (shared across ISAs).
pub use rlim_isa::ProgramError as ImpProgramError;

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    #[test]
    fn destination_and_display() {
        let f = ImpOp::False(c(3));
        let i = ImpOp::Imply { p: c(1), q: c(2) };
        assert_eq!(f.destination(), c(3));
        assert_eq!(i.destination(), c(2));
        assert_eq!(f.to_string(), "FALSE r3");
        assert_eq!(i.to_string(), "r1 IMP r2");
    }

    #[test]
    fn reads_model_imp_data_dependencies() {
        assert_eq!(ImpOp::False(c(3)).reads().count(), 0);
        assert!(ImpOp::Imply { p: c(1), q: c(2) }.reads().eq([c(1), c(2)]));
    }

    #[test]
    fn write_counts_count_destinations() {
        let p = ImpProgram {
            instructions: vec![
                ImpOp::False(c(2)),
                ImpOp::Imply { p: c(0), q: c(2) },
                ImpOp::Imply { p: c(1), q: c(2) },
            ],
            num_cells: 3,
            input_cells: vec![c(0), c(1)],
            output_cells: vec![c(2)],
        };
        assert_eq!(p.write_counts(), vec![0, 0, 3]);
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.num_instructions(), 3);
        assert_eq!(p.num_rrams(), 3);
        assert_eq!(p.write_stats().max, 3, "shared WriteStats surface");
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let p = ImpProgram {
            instructions: vec![ImpOp::False(c(5))],
            num_cells: 3,
            input_cells: vec![],
            output_cells: vec![],
        };
        assert!(matches!(
            p.validate(),
            Err(ImpProgramError::CellOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_undefined_read() {
        // r1 is read before anything defines it.
        let p = ImpProgram {
            instructions: vec![ImpOp::Imply { p: c(1), q: c(0) }],
            num_cells: 2,
            input_cells: vec![c(0)],
            output_cells: vec![],
        };
        assert!(matches!(
            p.validate(),
            Err(ImpProgramError::UndefinedRead { op: 0, cell }) if cell == c(1)
        ));
    }

    #[test]
    fn recycling_dead_input_is_legal() {
        // r0 is a (dead) input recycled as a work cell, then read.
        let p = ImpProgram {
            instructions: vec![ImpOp::False(c(0)), ImpOp::Imply { p: c(0), q: c(1) }],
            num_cells: 2,
            input_cells: vec![c(0), c(1)],
            output_cells: vec![c(1)],
        };
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = ImpProgramError::UndefinedRead { op: 7, cell: c(2) };
        assert!(e.to_string().contains("instruction 7"));
        assert!(e.to_string().contains("r2"));
    }
}
