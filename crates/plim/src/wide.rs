//! The word-level PLiM machine: RM3 programs over 64 lanes at once.
//!
//! One scalar RM3 step computes `Z ← maj(P, Q̄, Z)` for a single input
//! vector; a [`WideMachine`] step computes the same majority **bitwise on
//! `u64` words**, so each instruction advances up to 64 independent
//! executions (lanes) of the program. Lane `k` of every cell word belongs
//! to input vector `k`; lanes never interact, because the bitwise majority
//!
//! ```text
//! maj(p, !q, z) = (p & !q) | (z & (p | !q))
//! ```
//!
//! is computed lane-wise, and constants broadcast to all lanes.
//!
//! ## Wear accounting invariant
//!
//! Every word write is charged one *logical* write per active lane (see
//! [`WideCrossbar::write_word`]), so after running `L` lanes the per-cell
//! write counts equal `L ×` the scalar per-run counts — exactly what `L`
//! sequential [`Machine`](crate::Machine) runs would accumulate. The
//! endurance numbers of the DATE 2017 evaluation are therefore identical
//! under scalar and word-level execution; the differential suite in
//! `rlim-testkit` asserts this per cell on every benchmark.
//!
//! ## When the scalar machine is still authoritative
//!
//! The scalar [`Machine`](crate::Machine) remains the reference model for
//! per-cell *switch* counts (value flips are per-lane effects a word store
//! cannot observe), for cycle-accurate endurance failure points (a word
//! write fails atomically before any lane executes, where the lane-serial
//! run would perform the below-limit lanes first), and for the hosted
//! [`Controller`](crate::Controller) FSM. So the [`Fleet`](crate::Fleet)
//! runs the scalar machine wherever a write can fail. Everything measured
//! by the paper's tables — values, per-cell write counts, lifetime
//! projections — is lane-exact here.

use rlim_rram::{EnduranceError, WideCrossbar};

use crate::isa::{Instruction, Operand, Program};

/// A PLiM machine executing RM3 programs bit-parallel over `1..=64` lanes.
///
/// # Examples
///
/// ```
/// use rlim_plim::{Instruction, Operand, Program, WideMachine};
/// use rlim_rram::CellId;
///
/// // set1 r0: every lane computes constant true.
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
/// let mut machine = WideMachine::for_program(&program, 3);
/// let outputs = machine.run(&program, &[&[], &[], &[]]).unwrap();
/// assert_eq!(outputs, vec![vec![true]; 3]);
/// // One instruction × 3 active lanes = 3 logical writes on r0.
/// assert_eq!(machine.array().writes(CellId::new(0)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct WideMachine {
    array: WideCrossbar,
    lanes: usize,
    cycles: u64,
}

impl WideMachine {
    /// A machine sized for `program`, running `lanes` active lanes, with
    /// no endurance limit. All cells start at logic 0 with zero wear.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn for_program(program: &Program, lanes: usize) -> Self {
        let mut array = WideCrossbar::new();
        array.grow_to(program.num_cells);
        WideMachine::with_array(array, lanes)
    }

    /// A machine executing `lanes` active lanes on a caller-provided
    /// word-level array — the entry point for overlays snapshotted from a
    /// long-lived scalar array ([`WideCrossbar::from_scalar`]).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn with_array(array: WideCrossbar, lanes: usize) -> Self {
        assert!(
            (1..=WideCrossbar::LANES).contains(&lanes),
            "active lane count must be in 1..=64"
        );
        WideMachine {
            array,
            lanes,
            cycles: 0,
        }
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The underlying word-level array (logical wear, stored words).
    pub fn array(&self) -> &WideCrossbar {
        &self.array
    }

    /// Grows the array to at least `num_cells` cells. Never shrinks.
    pub fn ensure_cells(&mut self, num_cells: usize) {
        self.array.grow_to(num_cells);
    }

    /// Total RM3 instructions executed since construction (each advances
    /// all active lanes at once).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Preloads the primary inputs of every lane (wear-free): lane `k`
    /// receives `lane_inputs[k]`, in the program's PI order. Inactive high
    /// lanes are preloaded with 0.
    ///
    /// # Panics
    ///
    /// Panics if `lane_inputs.len()` differs from the active lane count,
    /// or any lane's vector does not match the program's input arity.
    pub fn load_inputs(&mut self, program: &Program, lane_inputs: &[&[bool]]) {
        assert_eq!(
            lane_inputs.len(),
            self.lanes,
            "one input vector per active lane"
        );
        for (i, &cell) in program.input_cells.iter().enumerate() {
            let mut word = 0u64;
            for (k, inputs) in lane_inputs.iter().enumerate() {
                assert_eq!(
                    inputs.len(),
                    program.input_cells.len(),
                    "input value count must match the program's input cells"
                );
                word |= u64::from(inputs[i]) << k;
            }
            self.array.preload_word(cell, word);
        }
    }

    /// Executes a single RM3 instruction on all active lanes.
    ///
    /// # Errors
    ///
    /// Returns [`EnduranceError`] if the destination cell cannot absorb
    /// one logical write per active lane; the machine state is unchanged
    /// in that case.
    pub fn step(&mut self, inst: &Instruction) -> Result<(), EnduranceError> {
        let p = self.operand_word(inst.p);
        let q = self.operand_word(inst.q);
        let z = self.array.read_word(inst.z);
        // maj(p, !q, z), bitwise over the lanes.
        let result = (p & !q) | (z & (p | !q));
        self.array.write_word(inst.z, result, self.lanes)?;
        self.cycles += 1;
        Ok(())
    }

    /// Executes all instructions of `program` in order.
    ///
    /// # Errors
    ///
    /// Stops at the first endurance failure and returns it.
    pub fn execute(&mut self, program: &Program) -> Result<(), EnduranceError> {
        for inst in &program.instructions {
            self.step(inst)?;
        }
        Ok(())
    }

    /// Reads the primary outputs of every active lane, in lane order.
    pub fn outputs(&self, program: &Program) -> Vec<Vec<bool>> {
        (0..self.lanes)
            .map(|k| {
                program
                    .output_cells
                    .iter()
                    .map(|&c| (self.array.read_word(c) >> k) & 1 == 1)
                    .collect()
            })
            .collect()
    }

    /// Convenience: load every lane's inputs, execute, read every lane's
    /// outputs.
    ///
    /// # Errors
    ///
    /// Propagates the first endurance failure.
    pub fn run(
        &mut self,
        program: &Program,
        lane_inputs: &[&[bool]],
    ) -> Result<Vec<Vec<bool>>, EnduranceError> {
        self.load_inputs(program, lane_inputs);
        self.execute(program)?;
        Ok(self.outputs(program))
    }

    fn operand_word(&self, op: Operand) -> u64 {
        match op {
            Operand::Const(true) => u64::MAX,
            Operand::Const(false) => 0,
            Operand::Cell(c) => self.array.read_word(c),
        }
    }
}

/// Executes `program` once per lane on a fresh word-level array and
/// returns `(per-lane outputs, per-cell logical write counts)` — the
/// bit-parallel analogue of [`run_once`](crate::run_once), which it must
/// agree with lane by lane (the testkit's differential harness proves
/// both the outputs and the write counts).
///
/// # Panics
///
/// Panics if `lane_inputs` is empty or longer than 64 lanes.
pub fn run_once_wide(program: &Program, lane_inputs: &[&[bool]]) -> (Vec<Vec<bool>>, Vec<u64>) {
    let mut machine = WideMachine::for_program(program, lane_inputs.len());
    let outputs = machine
        .run(program, lane_inputs)
        .expect("no endurance limit configured");
    (outputs, machine.array().write_counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_once;
    use rlim_rram::CellId;

    fn cell(i: u32) -> CellId {
        CellId::new(i)
    }

    /// A complement gate: set1 z; z ← ⟨0, src, z⟩ = !src.
    fn not_gate() -> Program {
        Program {
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
        }
    }

    #[test]
    fn lanes_are_independent_copies_of_the_scalar_run() {
        let program = not_gate();
        let lane_inputs: Vec<Vec<bool>> = vec![vec![false], vec![true], vec![false], vec![true]];
        let lanes: Vec<&[bool]> = lane_inputs.iter().map(Vec::as_slice).collect();
        let (outputs, counts) = run_once_wide(&program, &lanes);
        for (k, inputs) in lanes.iter().enumerate() {
            let (scalar_out, scalar_counts) = run_once(&program, inputs);
            assert_eq!(outputs[k], scalar_out, "lane {k}");
            // Wear invariant: wide counts are the lane count times the
            // per-run scalar counts.
            let scaled: Vec<u64> = scalar_counts.iter().map(|&c| c * 4).collect();
            assert_eq!(counts, scaled, "lane {k}");
        }
    }

    #[test]
    fn word_majority_matches_scalar_truth_table() {
        // One instruction z ← ⟨p, q̄, z⟩ per (p, q) constant pair, with z
        // preloaded per lane: lanes 0..8 enumerate the z bit alongside the
        // constants, covering the full RM3 truth table word-wise.
        for bits in 0..4u32 {
            let (p, q) = (bits & 1 == 1, bits & 2 == 2);
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
            let mut m = WideMachine::for_program(&program, 2);
            m.array.preload_word(cell(0), 0b10); // lane 0: z=0, lane 1: z=1
            m.execute(&program).unwrap();
            let expect = |z: bool| (p && !q) || (z && (p || !q));
            assert_eq!(
                m.outputs(&program),
                vec![vec![expect(false)], vec![expect(true)]],
                "p={p} q={q}"
            );
        }
    }

    #[test]
    fn cycles_count_instructions_not_lanes() {
        let program = not_gate();
        let mut m = WideMachine::for_program(&program, 64);
        let lanes: Vec<&[bool]> = vec![&[true]; 64];
        m.run(&program, &lanes).unwrap();
        assert_eq!(m.cycles(), 2);
        assert_eq!(m.lanes(), 64);
        // 2 instructions × 64 lanes of logical wear on the work cell.
        assert_eq!(m.array().writes(cell(1)), 128);
    }

    #[test]
    fn endurance_failure_is_atomic_per_word() {
        let program = not_gate(); // two writes on cell r1 per lane
        let mut array = WideCrossbar::with_endurance(5);
        array.grow_to(2);
        let mut m = WideMachine::with_array(array, 4);
        // First instruction: 4 logical writes fit (4 ≤ 5); second: 8 > 5.
        let lanes: Vec<&[bool]> = vec![&[false]; 4];
        let err = m.run(&program, &lanes).unwrap_err();
        assert_eq!(err.cell, cell(1));
        assert_eq!(err.limit, 5);
        assert_eq!(m.array().writes(cell(1)), 4);
        assert_eq!(m.cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "one input vector per active lane")]
    fn lane_count_mismatch_panics() {
        let program = not_gate();
        let mut m = WideMachine::for_program(&program, 2);
        let _ = m.run(&program, &[&[true]]);
    }

    #[test]
    #[should_panic(expected = "active lane count")]
    fn zero_lanes_rejected() {
        let program = not_gate();
        let _ = WideMachine::for_program(&program, 0);
    }
}
