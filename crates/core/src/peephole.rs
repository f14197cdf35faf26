//! The peephole write-elision pass: deletes provably redundant
//! destination writes from an emitted program.
//!
//! Every deleted instruction is one fewer RRAM write, so — unlike every
//! other technique in the paper's stack, which only *redistributes*
//! traffic — this pass can reduce `#I` and the maximum per-cell write
//! count simultaneously. It never adds instructions, never renumbers
//! cells and never changes the program's observable behaviour (outputs
//! and every value read along the way), so per-cell write counts can
//! only shrink. [`elide_redundant_writes`] additionally preserves every
//! cell's final value; [`elide_dead_writes`] may leave a dead scratch
//! cell holding its previous content instead of an unread overwrite.
//!
//! Two sound elisions are performed, both justified by a conservative
//! abstract-value analysis over the straight-line instruction stream
//! (cells start as opaque unknowns — crucially, *not* as zeros, because a
//! fleet re-dispatches programs onto arrays still holding a previous
//! job's values):
//!
//! * **Redundant constant sets** — `set0(c)` / `set1(c)` when `c`
//!   provably already holds that constant.
//! * **Redundant re-materialisations** — a full `copy` / `copy_inv`
//!   chain (`set; load`) into a cell that provably already holds the
//!   chain's result, e.g. the inverse of a still-live child that the
//!   translator materialised into the same recycled temp cell a few
//!   gates earlier. The pair is judged as a unit: its first half
//!   temporarily destroys the destination, so neither half is redundant
//!   alone.
//!
//! A generic dead-write elision over any [`Isa`] ([`elide_dead_writes`])
//! complements the RM3-specific rules: an instruction whose destination
//! value is never read again and does not survive into an output cell is
//! dropped.

use rlim_isa::{Isa, Program as IsaProgram};
use rlim_plim::{Instruction, Program};

use crate::pipeline::{Pass, PipelineState};
use crate::values::{chain_result, Values};

/// Runs [`elide_redundant_writes`] and then the generic
/// [`elide_dead_writes`] over the pipeline's emitted program.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeepholePass;

impl Pass for PeepholePass {
    fn name(&self) -> &'static str {
        "peephole"
    }

    fn run(&self, state: &mut PipelineState<'_>) {
        let program = state.program.as_mut().expect("peephole needs a program");
        elide_redundant_writes(program);
        elide_dead_writes(program);
    }
}

/// Deletes RM3 instructions that provably rewrite a cell with the value
/// it already holds. Returns the number of instructions elided.
///
/// Sound by construction: an elided write leaves the machine in exactly
/// the state the write would have produced, for every initial array
/// content — the analysis never assumes cells start at zero.
pub fn elide_redundant_writes(program: &mut Program) -> usize {
    let mut values = Values::new(program.num_cells);
    let mut kept: Vec<Instruction> = Vec::with_capacity(program.instructions.len());
    let instructions = std::mem::take(&mut program.instructions);
    let mut i = 0;
    while i < instructions.len() {
        let inst = instructions[i];
        // Try the two-instruction copy/copy_inv chain first: its first
        // half destroys the destination, so redundancy of the *pair* is
        // invisible to the single-instruction rule.
        if i + 1 < instructions.len() {
            if let Some(result) = chain_result(&inst, &instructions[i + 1], &values) {
                if values.get(inst.z) == Some(result) {
                    i += 2; // both halves elided: the cell already holds it
                    continue;
                }
            }
        }
        let result = values.rm3_result(&inst);
        if values.get(inst.z) == Some(result) {
            i += 1; // write of the value already present: elide
            continue;
        }
        values.set(inst.z, result);
        kept.push(inst);
        i += 1;
    }
    let elided = instructions.len() - kept.len();
    program.instructions = kept;
    elided
}

/// Generic dead-write elision over any [`Isa`]: drops instructions whose
/// destination value is never read by a later instruction and does not
/// survive into an output cell. Returns the number of instructions
/// elided.
///
/// The backward liveness walk is exact for straight-line code: a write is
/// live iff its destination is in the live-out set, and an instruction
/// that stays contributes its reads (which, per [`Isa::reads`], include
/// the destination's previous value whenever the operation depends on
/// it).
///
/// # Examples
///
/// ```
/// use rlim_compiler::elide_dead_writes;
/// use rlim_imp::{ImpOp, ImpProgram};
/// use rlim_rram::CellId;
///
/// let c = CellId::new;
/// let mut program = ImpProgram {
///     instructions: vec![
///         ImpOp::False(c(1)),                    // dead: overwritten unread
///         ImpOp::False(c(1)),
///         ImpOp::Imply { p: c(0), q: c(1) },
///     ],
///     num_cells: 2,
///     input_cells: vec![c(0)],
///     output_cells: vec![c(1)],
/// };
/// assert_eq!(elide_dead_writes(&mut program), 1);
/// assert_eq!(program.num_instructions(), 2);
/// program.validate().unwrap();
/// ```
pub fn elide_dead_writes<I: Isa>(program: &mut IsaProgram<I>) -> usize {
    let mut live = vec![false; program.num_cells];
    for &c in &program.output_cells {
        live[c.index()] = true;
    }
    let mut kept_rev: Vec<I> = Vec::with_capacity(program.instructions.len());
    for inst in program.instructions.iter().rev() {
        let dest = inst.destination();
        // Reading your own destination keeps you alive only through a
        // *later* reader, so clear the destination before adding reads.
        if !live[dest.index()] {
            continue; // dead: value overwritten (or discarded) unread
        }
        live[dest.index()] = false;
        for c in inst.reads() {
            live[c.index()] = true;
        }
        kept_rev.push(*inst);
    }
    let elided = program.instructions.len() - kept_rev.len();
    kept_rev.reverse();
    program.instructions = kept_rev;
    elided
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_plim::Operand;
    use rlim_rram::CellId;

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    fn set0(z: CellId) -> Instruction {
        Instruction {
            p: Operand::Const(false),
            q: Operand::Const(true),
            z,
        }
    }

    fn set1(z: CellId) -> Instruction {
        Instruction {
            p: Operand::Const(true),
            q: Operand::Const(false),
            z,
        }
    }

    fn load(s: CellId, z: CellId) -> Instruction {
        Instruction {
            p: Operand::Cell(s),
            q: Operand::Const(false),
            z,
        }
    }

    fn load_inv(s: CellId, z: CellId) -> Instruction {
        Instruction {
            p: Operand::Const(false),
            q: Operand::Cell(s),
            z,
        }
    }

    fn program(instructions: Vec<Instruction>, num_cells: usize) -> Program {
        Program {
            instructions,
            num_cells,
            input_cells: vec![c(0)],
            output_cells: vec![c(1)],
        }
    }

    #[test]
    fn repeated_set_const_is_elided() {
        let mut p = program(vec![set0(c(1)), set0(c(1))], 2);
        assert_eq!(elide_redundant_writes(&mut p), 1);
        assert_eq!(p.instructions, vec![set0(c(1))]);
    }

    #[test]
    fn alternating_set_consts_stay() {
        let mut p = program(vec![set0(c(1)), set1(c(1)), set0(c(1))], 2);
        assert_eq!(elide_redundant_writes(&mut p), 0);
    }

    #[test]
    fn rematerialised_inverse_chain_is_elided() {
        // copy_inv(1 ← 0); copy_inv(1 ← 0): the second chain rewrites r1
        // with the inverse it already holds.
        let mut p = program(
            vec![
                set1(c(1)),
                load_inv(c(0), c(1)),
                set1(c(1)),
                load_inv(c(0), c(1)),
            ],
            2,
        );
        assert_eq!(elide_redundant_writes(&mut p), 2);
        assert_eq!(p.instructions, vec![set1(c(1)), load_inv(c(0), c(1))]);
    }

    #[test]
    fn rematerialised_copy_chain_is_elided() {
        let mut p = program(
            vec![set0(c(1)), load(c(0), c(1)), set0(c(1)), load(c(0), c(1))],
            2,
        );
        assert_eq!(elide_redundant_writes(&mut p), 2);
        assert_eq!(p.instructions.len(), 2);
    }

    #[test]
    fn chain_with_changed_source_stays() {
        // The source cell is overwritten between the two chains, so the
        // second chain is NOT redundant.
        let clobber = Instruction {
            p: Operand::Cell(c(2)),
            q: Operand::Const(false),
            z: c(0), // r0 ← r2 ∨ r0: r0 becomes unknown
        };
        let mut p = Program {
            instructions: vec![
                set1(c(1)),
                load_inv(c(0), c(1)),
                clobber,
                set1(c(1)),
                load_inv(c(0), c(1)),
            ],
            num_cells: 3,
            input_cells: vec![],
            output_cells: vec![c(1)],
        };
        assert_eq!(elide_redundant_writes(&mut p), 0);
    }

    #[test]
    fn no_zero_init_assumption() {
        // set0 on a never-written cell must NOT be elided: a fleet may
        // re-dispatch onto an array holding a previous job's values.
        let mut p = program(vec![set0(c(1))], 2);
        assert_eq!(elide_redundant_writes(&mut p), 0);
    }

    #[test]
    fn rewrite_of_own_value_is_elided() {
        // ⟨p, p̄, z⟩ = z: a write of the old value.
        let mut p = program(
            vec![Instruction {
                p: Operand::Cell(c(0)),
                q: Operand::Cell(c(0)),
                z: c(1),
            }],
            2,
        );
        assert_eq!(elide_redundant_writes(&mut p), 1);
        assert!(p.instructions.is_empty());
    }

    #[test]
    fn semantics_preserved_on_random_programs() {
        // Differential check: random instruction soups over a small cell
        // set, executed from random initial array contents, must produce
        // identical outputs before and after elision.
        use rand::{Rng, SeedableRng};
        use rlim_plim::Machine;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xE11D);
        for _ in 0..200 {
            let num_cells = 4usize;
            let len = rng.gen_range(0..20);
            let rand_op = |rng: &mut rand_chacha::ChaCha8Rng| {
                if rng.gen_bool(0.4) {
                    Operand::Const(rng.gen())
                } else {
                    Operand::Cell(c(rng.gen_range(0..num_cells as u32)))
                }
            };
            let instructions: Vec<Instruction> = (0..len)
                .map(|_| Instruction {
                    p: rand_op(&mut rng),
                    q: rand_op(&mut rng),
                    z: c(rng.gen_range(0..num_cells as u32)),
                })
                .collect();
            let original = Program {
                instructions,
                num_cells,
                input_cells: (0..num_cells as u32).map(c).collect(),
                output_cells: (0..num_cells as u32).map(c).collect(),
            };
            let mut optimised = original.clone();
            elide_redundant_writes(&mut optimised);
            for _ in 0..4 {
                let inputs: Vec<bool> = (0..num_cells).map(|_| rng.gen()).collect();
                let mut m1 = Machine::for_program(&original);
                let mut m2 = Machine::for_program(&optimised);
                assert_eq!(
                    m1.run(&original, &inputs).unwrap(),
                    m2.run(&optimised, &inputs).unwrap(),
                    "elision changed semantics for {original:?}"
                );
            }
        }
    }

    #[test]
    fn dead_write_elision_drops_unread_overwritten_values() {
        // r1 is set, never read, then set again: the first set is dead.
        let mut p = program(vec![set1(c(1)), set0(c(1))], 2);
        assert_eq!(elide_dead_writes(&mut p), 1);
        assert_eq!(p.instructions, vec![set0(c(1))]);
    }

    #[test]
    fn dead_write_elision_respects_z_dependency() {
        // The load reads the destination's previous value (set0 recipe),
        // so the set0 is NOT dead.
        let mut p = program(vec![set0(c(1)), load(c(0), c(1))], 2);
        assert_eq!(elide_dead_writes(&mut p), 0);
    }

    #[test]
    fn dead_write_elision_keeps_outputs() {
        let mut p = program(vec![set1(c(1))], 2);
        assert_eq!(elide_dead_writes(&mut p), 0, "output cells are live-out");
    }
}
