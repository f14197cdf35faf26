//! The RM3 instruction set, plugged into the shared [`rlim_isa`] program
//! container.

use std::fmt;

use rlim_isa::Isa;
use rlim_rram::CellId;

/// A read operand of an RM3 instruction. The PLiM controller can feed each
/// of `P` and `Q` either from a memory cell or from a hard-wired constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A constant logic level.
    Const(bool),
    /// The current value of a crossbar cell.
    Cell(CellId),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(false) => write!(f, "0"),
            Operand::Const(true) => write!(f, "1"),
            Operand::Cell(c) => write!(f, "{c}"),
        }
    }
}

/// One RM3 instruction: `Z ← ⟨P, Q̄, Z⟩`.
///
/// The destination `Z` is always a cell; its previous content is the third
/// majority operand, and the result overwrites it (one RRAM write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// First operand, used uncomplemented.
    pub p: Operand,
    /// Second operand, complemented by the operation.
    pub q: Operand,
    /// Destination cell: third operand and write target.
    pub z: CellId,
}

impl Instruction {
    /// The constant-set recipe: `set0(z)` = `RM3(0, 1, z)` or `set1(z)` =
    /// `RM3(1, 0, z)`, writing `bit` regardless of the old destination.
    pub fn set_const(z: CellId, bit: bool) -> Self {
        Instruction {
            p: Operand::Const(bit),
            q: Operand::Const(!bit),
            z,
        }
    }

    /// The load half of the `copy` recipe: `RM3(src, 0, z)` computes
    /// `⟨v, 1, 0⟩ = v` when `z` was just set to 0.
    pub fn load(src: CellId, z: CellId) -> Self {
        Instruction {
            p: Operand::Cell(src),
            q: Operand::Const(false),
            z,
        }
    }

    /// The load half of the `copy_inv` recipe: `RM3(0, src, z)` computes
    /// `⟨0, !v, 1⟩ = !v` when `z` was just set to 1.
    pub fn load_inv(src: CellId, z: CellId) -> Self {
        Instruction {
            p: Operand::Const(false),
            q: Operand::Cell(src),
            z,
        }
    }

    /// Recognises the constant-set recipes, returning the constant they
    /// write (`None` for every other instruction).
    pub fn as_set_const(&self) -> Option<bool> {
        match (self.p, self.q) {
            (Operand::Const(p), Operand::Const(q)) if p != q => Some(p),
            _ => None,
        }
    }

    /// Whether the result is independent of the destination's previous
    /// value. True exactly for the constant-set recipes `set0` =
    /// `RM3(0, 1, z)` and `set1` = `RM3(1, 0, z)`: `⟨b, b, z⟩ = b`.
    pub fn ignores_old_destination(&self) -> bool {
        self.as_set_const().is_some()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RM3({}, {}, {})", self.p, self.q, self.z)
    }
}

impl Isa for Instruction {
    const NAME: &'static str = "PLiM";
    // RM3 programs establish destination values with set0/set1 recipes, so
    // reading an untouched cell through the Z operand is by design.
    const REQUIRES_DEFINED_READS: bool = false;

    fn destination(&self) -> CellId {
        self.z
    }

    fn reads(&self) -> impl Iterator<Item = CellId> {
        let cell = |op| match op {
            Operand::Cell(c) => Some(c),
            Operand::Const(_) => None,
        };
        let z = (!self.ignores_old_destination()).then_some(self.z);
        cell(self.p).into_iter().chain(cell(self.q)).chain(z)
    }
}

/// A compiled PLiM program: the shared container instantiated at the RM3
/// instruction set.
///
/// Produced by `rlim-compiler`; executed by [`crate::Machine`]. See
/// [`rlim_isa::Program`] for the accounting and validation surface.
pub type Program = rlim_isa::Program<Instruction>;

/// Structural validation error of a [`Program`] (shared across ISAs).
pub use rlim_isa::ProgramError;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program {
            instructions: vec![Instruction {
                p: Operand::Cell(CellId::new(0)),
                q: Operand::Const(true),
                z: CellId::new(2),
            }],
            num_cells: 3,
            input_cells: vec![CellId::new(0), CellId::new(1)],
            output_cells: vec![CellId::new(2)],
        }
    }

    #[test]
    fn metrics() {
        let p = sample();
        assert_eq!(p.num_instructions(), 1);
        assert_eq!(p.num_rrams(), 3);
        assert_eq!(p.write_counts(), vec![0, 0, 1]);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut p = sample();
        p.instructions.push(Instruction {
            p: Operand::Const(false),
            q: Operand::Cell(CellId::new(9)),
            z: CellId::new(0),
        });
        assert!(matches!(
            p.validate(),
            Err(ProgramError::CellOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_inputs() {
        let mut p = sample();
        p.input_cells.push(CellId::new(0));
        assert_eq!(
            p.validate(),
            Err(ProgramError::DuplicateInputCell(CellId::new(0)))
        );
    }

    #[test]
    fn validate_checks_output_range() {
        let mut p = sample();
        p.output_cells.push(CellId::new(7));
        assert!(matches!(
            p.validate(),
            Err(ProgramError::CellOutOfRange { .. })
        ));
    }

    #[test]
    fn display_and_disassembly() {
        let p = sample();
        assert_eq!(p.instructions[0].to_string(), "RM3(r0, 1, r2)");
        let text = p.disassemble();
        assert!(text.contains("PLiM program"));
        assert!(text.contains("1 instructions"));
        assert!(text.contains("RM3(r0, 1, r2)"));
        assert_eq!(
            Instruction {
                p: Operand::Const(false),
                q: Operand::Const(true),
                z: CellId::new(1)
            }
            .to_string(),
            "RM3(0, 1, r1)"
        );
    }

    #[test]
    fn reads_model_rm3_data_dependencies() {
        use rlim_isa::Isa as _;
        let set0 = Instruction {
            p: Operand::Const(false),
            q: Operand::Const(true),
            z: CellId::new(4),
        };
        assert!(set0.ignores_old_destination());
        assert_eq!(set0.reads().count(), 0, "set0 is value-independent");

        let general = Instruction {
            p: Operand::Cell(CellId::new(0)),
            q: Operand::Cell(CellId::new(1)),
            z: CellId::new(2),
        };
        assert!(!general.ignores_old_destination());
        assert!(
            general
                .reads()
                .eq([CellId::new(0), CellId::new(1), CellId::new(2)]),
            "general RM3 reads P, Q and the old destination"
        );
        assert_eq!(general.destination(), CellId::new(2));
    }

    #[test]
    fn recipe_constructors_round_trip() {
        let z = CellId::new(3);
        let set0 = Instruction::set_const(z, false);
        assert_eq!(set0.to_string(), "RM3(0, 1, r3)");
        assert_eq!(set0.as_set_const(), Some(false));
        assert!(set0.ignores_old_destination());
        let set1 = Instruction::set_const(z, true);
        assert_eq!(set1.to_string(), "RM3(1, 0, r3)");
        assert_eq!(set1.as_set_const(), Some(true));

        let src = CellId::new(1);
        let load = Instruction::load(src, z);
        assert_eq!(load.to_string(), "RM3(r1, 0, r3)");
        assert_eq!(load.as_set_const(), None);
        assert!(!load.ignores_old_destination());
        let load_inv = Instruction::load_inv(src, z);
        assert_eq!(load_inv.to_string(), "RM3(0, r1, r3)");
        assert_eq!(load_inv.as_set_const(), None);
    }

    #[test]
    fn error_display() {
        let e = ProgramError::DuplicateInputCell(CellId::new(4));
        assert_eq!(e.to_string(), "duplicate input cell r4");
    }
}
