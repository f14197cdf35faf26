//! The word-level PLiM machine: RM3 programs over 64 lanes at once.
//!
//! One scalar RM3 step computes `Z ← maj(P, Q̄, Z)` for a single input
//! vector; a [`WideMachine`] step computes the same majority **bitwise on
//! `u64` words**, so each instruction advances up to [`LANES`]
//! independent executions (lanes) of the program. Lane `k` of every cell
//! word belongs to input vector `k`; lanes never interact, because the
//! bitwise majority
//!
//! ```text
//! maj(p, !q, z) = (p & !q) | (z & (p | !q))
//! ```
//!
//! is computed lane-wise, and constants broadcast to all lanes.
//!
//! ## Wear accounting invariant
//!
//! Every word write is charged one *logical* write per active lane, so
//! after running `L` lanes the per-cell write counts equal `L ×` the
//! scalar per-run counts — exactly what `L` sequential
//! [`Machine`](crate::Machine) runs would accumulate. The endurance
//! numbers of the DATE 2017 evaluation are therefore identical under
//! scalar and word-level execution; the differential suite in
//! `rlim-testkit` asserts this per cell on every benchmark.
//!
//! ## When the scalar machine is still authoritative
//!
//! A word-level array has no endurance limit and no fault model. The
//! scalar [`Machine`](crate::Machine) remains the reference model for
//! per-cell *switch* counts (value flips are per-lane effects a word store
//! cannot observe), for endurance failures and write-verify readback, and
//! for the hosted [`Controller`](crate::Controller) FSM. So the
//! [`Fleet`](crate::Fleet) runs the scalar machine wherever a write can
//! fail, and runs lanes on a snapshot of a scalar array that it commits
//! back one lane at a time ([`Crossbar::commit`]). Everything measured
//! by the paper's tables — values, per-cell write counts, lifetime
//! projections — is lane-exact here.

use std::convert::Infallible;

use rlim_rram::{CellId, Crossbar};

use crate::isa::{Instruction, Operand, Program};

/// Lanes one word-level cell carries: one input vector per bit of a
/// `u64`.
pub const LANES: usize = 64;

/// A PLiM machine executing RM3 programs bit-parallel over `1..=64` lanes,
/// with one word and one logical-write counter per cell.
///
/// # Examples
///
/// ```
/// use rlim_plim::{run_once_wide, Instruction, Operand, Program, WideMachine};
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
/// let Ok(outputs) = machine.run(&program, &[&[], &[], &[]]);
/// assert_eq!(outputs, vec![vec![true]; 3]);
/// // One instruction × 3 active lanes = 3 logical writes on r0.
/// let (_, writes) = run_once_wide(&program, &[&[], &[], &[]]);
/// assert_eq!(writes, vec![3]);
/// ```
#[derive(Debug, Clone)]
pub struct WideMachine {
    /// One word per cell; bit `k` is lane `k`'s copy of the cell.
    words: Vec<u64>,
    /// Logical writes per cell: a word write adds the active lane count.
    writes: Vec<u64>,
    lanes: usize,
}

impl WideMachine {
    /// A machine sized for `program`, running `lanes` active lanes. All
    /// cells start at logic 0 with zero wear.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn for_program(program: &Program, lanes: usize) -> Self {
        let cells = program.num_cells;
        WideMachine::new(vec![0; cells], vec![0; cells], lanes)
    }

    /// A machine over a snapshot of `array`: every stored bit is
    /// broadcast to all lanes, and the write counters carry over.
    pub(crate) fn snapshot(array: &Crossbar, lanes: usize) -> Self {
        let words = array
            .values()
            .iter()
            .map(|&v| if v { u64::MAX } else { 0 })
            .collect();
        WideMachine::new(words, array.write_counts(), lanes)
    }

    fn new(words: Vec<u64>, writes: Vec<u64>, lanes: usize) -> Self {
        assert!(
            (1..=LANES).contains(&lanes),
            "active lane count must be in 1..=64"
        );
        WideMachine {
            words,
            writes,
            lanes,
        }
    }

    /// Folds lane `lane` back into `array`, the array of the snapshot:
    /// every cell takes its bit at `lane` and this machine's logical
    /// write count. A cell no lane wrote still holds the broadcast
    /// snapshot, so committing it changes nothing.
    pub(crate) fn commit(&self, array: &mut Crossbar, lane: usize) {
        assert!(lane < self.lanes, "lane must be active");
        for (i, (&word, &writes)) in self.words.iter().zip(&self.writes).enumerate() {
            let cell = CellId::new(u32::try_from(i).expect("crossbar too large"));
            array.commit(cell, (word >> lane) & 1 == 1, writes);
        }
    }

    /// Loads every lane's inputs (wear-free), executes `program` on all
    /// lanes at once and reads every lane's outputs, in lane order. Lane
    /// `k` receives `lane_inputs[k]`, in the program's PI order; the
    /// inactive high lanes hold 0. No write can fail.
    ///
    /// # Panics
    ///
    /// Panics if `lane_inputs.len()` differs from the active lane count,
    /// or any lane's vector does not match the program's input arity.
    pub fn run(
        &mut self,
        program: &Program,
        lane_inputs: &[&[bool]],
    ) -> Result<Vec<Vec<bool>>, Infallible> {
        assert_eq!(
            lane_inputs.len(),
            self.lanes,
            "one input vector per active lane"
        );
        for inputs in lane_inputs {
            assert_eq!(
                inputs.len(),
                program.input_cells.len(),
                "input value count must match the program's input cells"
            );
        }
        for (i, &cell) in program.input_cells.iter().enumerate() {
            self.words[cell.index()] = lane_inputs
                .iter()
                .enumerate()
                .fold(0, |word, (k, inputs)| word | u64::from(inputs[i]) << k);
        }
        for inst in &program.instructions {
            self.step(inst);
        }
        Ok((0..self.lanes)
            .map(|k| {
                program
                    .output_cells
                    .iter()
                    .map(|&c| (self.words[c.index()] >> k) & 1 == 1)
                    .collect()
            })
            .collect())
    }

    /// One RM3 instruction on all active lanes.
    fn step(&mut self, inst: &Instruction) {
        let p = self.operand_word(inst.p);
        let q = self.operand_word(inst.q);
        let z = inst.z.index();
        // maj(p, !q, z), bitwise over the lanes.
        self.words[z] = (p & !q) | (self.words[z] & (p | !q));
        self.writes[z] += self.lanes as u64;
    }

    fn operand_word(&self, op: Operand) -> u64 {
        match op {
            Operand::Const(true) => u64::MAX,
            Operand::Const(false) => 0,
            Operand::Cell(c) => self.words[c.index()],
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
    let Ok(outputs) = machine.run(program, lane_inputs);
    (outputs, machine.writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_once;

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
        // preloaded per lane: lane 0 holds z=0 and lane 1 z=1, covering
        // the full RM3 truth table word-wise.
        for bits in 0..4u32 {
            let (p, q) = (bits & 1 == 1, bits & 2 == 2);
            let inst = Instruction {
                p: Operand::Const(p),
                q: Operand::Const(q),
                z: cell(0),
            };
            let mut m = WideMachine::new(vec![0b10], vec![0], 2);
            m.step(&inst);
            let expect = |z: bool| (p && !q) || (z && (p || !q));
            assert_eq!(
                m.words[0] & 0b11,
                u64::from(expect(false)) | u64::from(expect(true)) << 1,
                "p={p} q={q}"
            );
        }
    }

    #[test]
    fn wear_is_per_logical_write() {
        // 2 instructions × 64 lanes of logical wear on the work cell;
        // the preloaded input cell takes none.
        let lanes: Vec<&[bool]> = vec![&[true]; 64];
        let (_, counts) = run_once_wide(&not_gate(), &lanes);
        assert_eq!(counts, vec![0, 128]);
        let (_, counts) = run_once_wide(&not_gate(), &lanes[..5]);
        assert_eq!(counts, vec![0, 10]);
    }

    #[test]
    fn snapshot_broadcasts_values_and_copies_wear() {
        let mut scalar = Crossbar::new();
        scalar.alloc(true);
        let b = scalar.alloc(false);
        scalar.write(b, true).unwrap();
        let wide = WideMachine::snapshot(&scalar, 64);
        assert_eq!(wide.words, vec![u64::MAX, u64::MAX]);
        assert_eq!(wide.writes, vec![0, 1]);
    }

    #[test]
    fn commit_restores_lane_values_and_wear() {
        let mut scalar = Crossbar::new();
        let a = scalar.alloc(true);
        let b = scalar.alloc(false);
        let untouched = scalar.alloc(true);
        scalar.write(a, false).unwrap();
        // a ← !b: lane 0 loads b = 0 and stores 1, lane 1 the opposite.
        let program = Program {
            instructions: vec![Instruction::set_const(a, true), Instruction::load_inv(b, a)],
            num_cells: 3,
            input_cells: vec![b],
            output_cells: vec![a],
        };
        let mut wide = WideMachine::snapshot(&scalar, 2);
        let Ok(outputs) = wide.run(&program, &[&[false], &[true]]);
        assert_eq!(outputs, vec![vec![true], vec![false]]);
        wide.commit(&mut scalar, 1);
        assert!(!scalar.read(a), "lane 1 stored 0");
        assert_eq!(scalar.writes(a), 1 + 2 * 2, "one scalar write, 2 × 2 lanes");
        assert!(scalar.read(b), "lane 1's input");
        assert_eq!(scalar.writes(b), 0, "inputs load wear-free");
        assert!(scalar.read(untouched), "an unwritten cell keeps its value");
        wide.commit(&mut scalar, 0);
        assert!(scalar.read(a), "lane 0 stored 1");
        assert!(!scalar.read(b), "lane 0's input");
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
