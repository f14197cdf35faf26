//! The PLiM machine: a controller FSM executing RM3 programs on a crossbar.
//!
//! The real PLiM controller is a wrapper around the RRAM array's read/write
//! peripheral circuitry: it fetches an instruction, reads operands `P` and
//! `Q` (memory or constants), and performs the majority write on `Z` in the
//! same array. This model reproduces that behaviour cycle by cycle —
//! every instruction is exactly one destination write, performed as a
//! write-verify cycle — and surfaces endurance exhaustion and stuck-at
//! faults as [`WriteFault`] errors, enabling lifetime and chaos
//! experiments.

use rlim_rram::{Crossbar, FaultModel, WriteFault};

use crate::isa::{Instruction, Operand, Program};

/// Bitwise majority of three booleans.
#[inline]
fn maj(a: bool, b: bool, c: bool) -> bool {
    (a && b) || (c && (a || b))
}

/// A PLiM machine owning a crossbar array.
///
/// The array persists across runs so wear accumulates, which is what the
/// lifetime experiments need; use [`Machine::for_program`] to start fresh.
///
/// # Examples
///
/// ```
/// use rlim_plim::{Instruction, Machine, Operand, Program};
/// use rlim_rram::CellId;
///
/// // One instruction: set1 on cell r0 (RM3(1, 0, z) = ⟨1, 1, z⟩ = 1).
/// let program = Program {
///     instructions: vec![Instruction {
///         p: Operand::Const(true),
///         q: Operand::Const(false),
///         z: CellId::new(0),
///     }],
///     num_cells: 1,
///     input_cells: vec![],
///     output_cells: vec![CellId::new(0)],
/// };
/// let mut machine = Machine::for_program(&program);
/// assert_eq!(machine.run(&program, &[]).unwrap(), vec![true]);
/// machine.run(&program, &[]).unwrap(); // wear accumulates across runs
/// assert_eq!(machine.array().writes(CellId::new(0)), 2);
/// assert_eq!(machine.cycles(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    array: Crossbar,
    cycles: u64,
}

impl Machine {
    /// A machine whose array is sized for `program`, without an endurance
    /// limit. All cells start at logic 0 with zero wear.
    pub fn for_program(program: &Program) -> Self {
        let mut array = Crossbar::new();
        array.grow_to(program.num_cells);
        Machine { array, cycles: 0 }
    }

    /// Like [`Machine::for_program`] but cells fail after `limit` writes.
    pub fn with_endurance(program: &Program, limit: u64) -> Self {
        let mut array = Crossbar::with_endurance(limit);
        array.grow_to(program.num_cells);
        Machine { array, cycles: 0 }
    }

    /// Like [`Machine::for_program`] but under fault injection: per-cell
    /// endurance limits and latent stuck-at faults sampled from `model`.
    pub fn with_faults(program: &Program, model: FaultModel) -> Self {
        let mut array = Crossbar::with_faults(model);
        array.grow_to(program.num_cells);
        Machine { array, cycles: 0 }
    }

    /// A machine executing on a caller-provided array — the entry point for
    /// long-lived arrays whose wear spans many programs (see
    /// [`Fleet`](crate::Fleet)). The array is grown on demand by
    /// [`Machine::ensure_cells`]; existing wear and values are preserved.
    pub fn with_array(array: Crossbar) -> Self {
        Machine { array, cycles: 0 }
    }

    /// Grows the array to at least `num_cells` cells (new cells preloaded
    /// with logic 0, zero wear). Never shrinks.
    pub fn ensure_cells(&mut self, num_cells: usize) {
        self.array.grow_to(num_cells);
    }

    /// The underlying crossbar (wear counters, stored values).
    pub fn array(&self) -> &Crossbar {
        &self.array
    }

    /// Mutable access for the fleet's lane executor, which commits
    /// word-level overlays back into the machine's array. Not public: all
    /// other wear mutation flows through [`Machine::step`].
    pub(crate) fn array_mut(&mut self) -> &mut Crossbar {
        &mut self.array
    }

    /// Total RM3 instructions executed since construction.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Preloads the primary inputs (wear-free, models the RAM load phase),
    /// verifying each cell by readback so stuck input cells surface
    /// instead of silently corrupting the computation.
    ///
    /// # Errors
    ///
    /// Returns [`WriteFault::Stuck`] for the first input cell whose
    /// readback disagrees with the loaded value.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != program.input_cells.len()`.
    pub fn load_inputs(&mut self, program: &Program, inputs: &[bool]) -> Result<(), WriteFault> {
        assert_eq!(
            inputs.len(),
            program.input_cells.len(),
            "input value count must match the program's input cells"
        );
        for (&cell, &value) in program.input_cells.iter().zip(inputs) {
            self.array.preload_verified(cell, value)?;
        }
        Ok(())
    }

    /// Executes a single RM3 instruction as a write-verify cycle.
    ///
    /// # Errors
    ///
    /// Returns [`WriteFault::Worn`] if the destination cell is worn out
    /// (machine state unchanged), or [`WriteFault::Stuck`] when the
    /// readback disagrees with the majority result (the pulse was
    /// absorbed, so wear advanced).
    pub fn step(&mut self, inst: &Instruction) -> Result<(), WriteFault> {
        let p = self.operand_value(inst.p);
        let q = self.operand_value(inst.q);
        let z = self.array.read(inst.z);
        let result = maj(p, !q, z);
        self.array.write_verified(inst.z, result)?;
        self.cycles += 1;
        Ok(())
    }

    /// Executes all instructions of `program` in order.
    ///
    /// # Errors
    ///
    /// Stops at the first write fault and returns it.
    pub fn execute(&mut self, program: &Program) -> Result<(), WriteFault> {
        for inst in &program.instructions {
            self.step(inst)?;
        }
        Ok(())
    }

    /// Reads the primary outputs.
    pub fn outputs(&self, program: &Program) -> Vec<bool> {
        program
            .output_cells
            .iter()
            .map(|&c| self.array.read(c))
            .collect()
    }

    /// Convenience: load inputs, execute, read outputs.
    ///
    /// # Errors
    ///
    /// Propagates the first write fault.
    pub fn run(&mut self, program: &Program, inputs: &[bool]) -> Result<Vec<bool>, WriteFault> {
        self.load_inputs(program, inputs)?;
        self.execute(program)?;
        Ok(self.outputs(program))
    }

    fn operand_value(&self, op: Operand) -> bool {
        match op {
            Operand::Const(b) => b,
            Operand::Cell(c) => self.array.read(c),
        }
    }
}

/// Executes `program` once on a fresh array and returns `(outputs, per-cell
/// write counts)`. The standard entry point for one-shot evaluation.
pub fn run_once(program: &Program, inputs: &[bool]) -> (Vec<bool>, Vec<u64>) {
    let mut machine = Machine::for_program(program);
    let outputs = machine
        .run(program, inputs)
        .expect("no endurance limit configured");
    (outputs, machine.array().write_counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_rram::CellId;

    fn cell(i: u32) -> CellId {
        CellId::new(i)
    }

    /// z starts 0; RM3(p=a, q=1, z) computes ⟨a, 0, z⟩ = a ∧ z; with z
    /// preloaded by a previous set we can build AND/OR; here we check the
    /// primitive recipes used by the compiler.
    #[test]
    fn rm3_primitive_semantics() {
        let program = Program {
            instructions: vec![],
            num_cells: 2,
            input_cells: vec![cell(0)],
            output_cells: vec![cell(1)],
        };
        let mut m = Machine::for_program(&program);
        // set1: RM3(1, 0, z) = ⟨1, 1, z⟩ = 1
        m.step(&Instruction {
            p: Operand::Const(true),
            q: Operand::Const(false),
            z: cell(1),
        })
        .unwrap();
        assert!(m.array().read(cell(1)));
        // set0: RM3(0, 1, z) = ⟨0, 0, z⟩ = 0
        m.step(&Instruction {
            p: Operand::Const(false),
            q: Operand::Const(true),
            z: cell(1),
        })
        .unwrap();
        assert!(!m.array().read(cell(1)));
        // load: with z = 0, RM3(v, 0, z) = ⟨v, 1, 0⟩ = v
        m.load_inputs(&program, &[true]).unwrap();
        m.step(&Instruction {
            p: Operand::Cell(cell(0)),
            q: Operand::Const(false),
            z: cell(1),
        })
        .unwrap();
        assert!(m.array().read(cell(1)));
        assert_eq!(m.cycles(), 3);
    }

    #[test]
    fn load_complement_recipe() {
        // set1 z; RM3(0, src, z) = ⟨0, !src, 1⟩ = !src
        let program = Program {
            instructions: vec![
                Instruction {
                    p: Operand::Const(true),
                    q: Operand::Const(false),
                    z: cell(1),
                },
                Instruction {
                    p: Operand::Const(false),
                    q: Operand::Cell(cell(0)),
                    z: cell(1),
                },
            ],
            num_cells: 2,
            input_cells: vec![cell(0)],
            output_cells: vec![cell(1)],
        };
        for v in [false, true] {
            let mut m = Machine::for_program(&program);
            let out = m.run(&program, &[v]).unwrap();
            assert_eq!(out, vec![!v]);
        }
    }

    #[test]
    fn rm3_truth_table() {
        // Exhaustive over p, q, z: result = maj(p, !q, z).
        for bits in 0..8u32 {
            let (p, q, z0) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let program = Program {
                instructions: vec![Instruction {
                    p: Operand::Const(p),
                    q: Operand::Const(q),
                    z: cell(0),
                }],
                num_cells: 1,
                input_cells: vec![],
                output_cells: vec![cell(0)],
            };
            let mut m = Machine::for_program(&program);
            m.array.preload(cell(0), z0);
            m.execute(&program).unwrap();
            let expect = maj(p, !q, z0);
            assert_eq!(m.outputs(&program), vec![expect], "p={p} q={q} z={z0}");
        }
    }

    #[test]
    fn wear_accumulates_across_runs() {
        let program = Program {
            instructions: vec![Instruction {
                p: Operand::Const(true),
                q: Operand::Const(false),
                z: cell(0),
            }],
            num_cells: 1,
            input_cells: vec![],
            output_cells: vec![cell(0)],
        };
        let mut m = Machine::for_program(&program);
        for _ in 0..5 {
            m.run(&program, &[]).unwrap();
        }
        assert_eq!(m.array().writes(cell(0)), 5);
        assert_eq!(m.cycles(), 5);
    }

    #[test]
    fn endurance_failure_surfaces() {
        let program = Program {
            instructions: vec![Instruction {
                p: Operand::Const(true),
                q: Operand::Const(false),
                z: cell(0),
            }],
            num_cells: 1,
            input_cells: vec![],
            output_cells: vec![cell(0)],
        };
        let mut m = Machine::with_endurance(&program, 3);
        for _ in 0..3 {
            m.run(&program, &[]).unwrap();
        }
        let err = m.run(&program, &[]).unwrap_err();
        assert_eq!(err.cell(), cell(0));
        match err {
            WriteFault::Worn(e) => assert_eq!(e.limit, 3),
            WriteFault::Stuck(_) => panic!("a uniform limit cannot stick"),
        }
    }

    /// Under a fault model, the machine's write-verify cycle surfaces a
    /// stuck destination as `WriteFault::Stuck`, and a stuck *input* cell
    /// surfaces at load time.
    #[test]
    fn stuck_fault_surfaces_with_faulty_cells() {
        use rlim_rram::variability::EnduranceModel;
        let program = Program {
            instructions: vec![
                Instruction {
                    p: Operand::Const(true),
                    q: Operand::Const(false),
                    z: cell(1),
                },
                Instruction {
                    p: Operand::Const(false),
                    q: Operand::Const(true),
                    z: cell(1),
                },
            ],
            num_cells: 2,
            input_cells: vec![cell(0)],
            output_cells: vec![cell(1)],
        };
        // Every cell stuck, generous endurance: the set1/set0 alternation
        // must eventually disagree with the frozen value.
        let model = FaultModel::new(EnduranceModel::new(1e6, 0.0), 1.0, 3);
        let mut m = Machine::with_faults(&program, model);
        let fault = loop {
            match m.run(&program, &[false]) {
                Ok(_) => continue,
                Err(f) => break f,
            }
        };
        assert!(matches!(fault, WriteFault::Stuck(_)), "{fault:?}");
        // An input cell frozen at 1 rejects a load of 0.
        let stuck_inputs = {
            let mut probe = Machine::with_faults(&program, model);
            // Wear the input cell past its onset via direct writes.
            let onset = model.profile(0).stuck.unwrap().onset;
            for _ in 0..onset {
                probe
                    .array_mut()
                    .write(cell(0), model.profile(0).stuck.unwrap().value)
                    .unwrap();
            }
            probe.load_inputs(&program, &[!model.profile(0).stuck.unwrap().value])
        };
        assert!(matches!(stuck_inputs, Err(WriteFault::Stuck(_))));
    }

    #[test]
    fn run_once_reports_write_counts() {
        let program = Program {
            instructions: vec![
                Instruction {
                    p: Operand::Const(true),
                    q: Operand::Const(false),
                    z: cell(1),
                },
                Instruction {
                    p: Operand::Const(true),
                    q: Operand::Const(false),
                    z: cell(1),
                },
            ],
            num_cells: 2,
            input_cells: vec![cell(0)],
            output_cells: vec![cell(1)],
        };
        let (out, counts) = run_once(&program, &[false]);
        assert_eq!(out, vec![true]);
        assert_eq!(counts, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "input value count")]
    fn load_inputs_checks_arity() {
        let program = Program {
            instructions: vec![],
            num_cells: 1,
            input_cells: vec![cell(0)],
            output_cells: vec![],
        };
        let mut m = Machine::for_program(&program);
        let _ = m.load_inputs(&program, &[]);
    }
}
