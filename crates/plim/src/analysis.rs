//! Static program analysis: per-cell liveness spans, blocked-cell metrics
//! and same-cell write runs.
//!
//! The paper's §III-B4 problem — *blocked RRAMs* — is about cells that
//! hold a value for a long stretch of the program while other cells churn.
//! These functions measure that directly from the instruction stream: a
//! cell's **span** runs from the first instruction that touches it to the
//! last, and a long span with few writes is exactly a blocked cell. Every
//! RM3 instruction writes its destination once, so the Fig. 1 pathology (one
//! cell rewritten back to back) is a property of the stream too.

use rlim_rram::CellId;

use crate::isa::{Operand, Program};

/// Liveness span of one cell: first and last instruction index that
/// references it (as operand or destination), inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpan {
    /// First instruction referencing the cell.
    pub first: usize,
    /// Last instruction referencing the cell.
    pub last: usize,
    /// Number of writes the cell receives inside the span.
    pub writes: u64,
}

impl CellSpan {
    /// Span length in instructions (1 for a single reference).
    pub fn length(&self) -> usize {
        self.last - self.first + 1
    }

    /// A blocked cell holds its value across many instructions but is
    /// written rarely: span length per write. Cells written every cycle
    /// score 1; a classic blocked cell scores in the hundreds.
    pub fn blockage(&self) -> f64 {
        self.length() as f64 / (self.writes.max(1)) as f64
    }
}

/// Computes the liveness span of every cell referenced by the program.
/// Cells the program never references (e.g. unused inputs) get `None`.
///
/// # Examples
///
/// ```
/// use rlim_plim::{analysis, Instruction, Operand, Program};
/// use rlim_rram::CellId;
///
/// let program = Program {
///     instructions: vec![
///         Instruction { p: Operand::Const(false), q: Operand::Const(true), z: CellId::new(1) },
///         Instruction { p: Operand::Cell(CellId::new(0)), q: Operand::Const(false), z: CellId::new(1) },
///     ],
///     num_cells: 2,
///     input_cells: vec![CellId::new(0)],
///     output_cells: vec![CellId::new(1)],
/// };
/// let spans = analysis::cell_spans(&program);
/// assert_eq!(spans[0].unwrap().first, 1); // input first read at pc 1
/// assert_eq!(spans[1].unwrap().writes, 2);
/// ```
pub fn cell_spans(program: &Program) -> Vec<Option<CellSpan>> {
    let mut spans: Vec<Option<CellSpan>> = vec![None; program.num_cells];
    let mut touch = |cell: CellId, pc: usize, write: bool| {
        let entry = &mut spans[cell.index()];
        match entry {
            Some(span) => {
                span.last = pc;
                span.writes += write as u64;
            }
            None => {
                *entry = Some(CellSpan {
                    first: pc,
                    last: pc,
                    writes: write as u64,
                });
            }
        }
    };
    for (pc, inst) in program.instructions.iter().enumerate() {
        for op in [inst.p, inst.q] {
            if let Operand::Cell(c) = op {
                touch(c, pc, false);
            }
        }
        touch(inst.z, pc, true);
    }
    spans
}

/// Summary of blocked-cell pressure in a program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockageStats {
    /// Number of cells with a liveness span.
    pub cells: usize,
    /// Mean span length (instructions) over live cells.
    pub mean_span: f64,
    /// Largest span length.
    pub max_span: usize,
    /// Mean blockage score (span ÷ writes).
    pub mean_blockage: f64,
    /// Largest blockage score — the most blocked cell.
    pub max_blockage: f64,
}

/// Aggregates [`cell_spans`] into blocked-cell statistics.
///
/// Returns an all-zero summary for a program with no cell references.
pub fn blockage_stats(program: &Program) -> BlockageStats {
    let spans: Vec<CellSpan> = cell_spans(program).into_iter().flatten().collect();
    if spans.is_empty() {
        return BlockageStats {
            cells: 0,
            mean_span: 0.0,
            max_span: 0,
            mean_blockage: 0.0,
            max_blockage: 0.0,
        };
    }
    let cells = spans.len();
    let mean_span = spans.iter().map(|s| s.length() as f64).sum::<f64>() / cells as f64;
    let max_span = spans.iter().map(CellSpan::length).max().expect("non-empty");
    let blockages: Vec<f64> = spans.iter().map(CellSpan::blockage).collect();
    let mean_blockage = blockages.iter().sum::<f64>() / cells as f64;
    let max_blockage = blockages.iter().copied().fold(0.0, f64::max);
    BlockageStats {
        cells,
        mean_span,
        max_span,
        mean_blockage,
        max_blockage,
    }
}

/// The longest run of consecutive instructions writing one cell — the
/// paper's Fig. 1 pathology (the same destination rewritten back to back)
/// made measurable. 0 for an empty program.
pub fn longest_same_cell_run(program: &Program) -> usize {
    program
        .instructions
        .chunk_by(|a, b| a.z == b.z)
        .map(<[_]>::len)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instruction;

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    fn inst(p: Operand, q: Operand, z: CellId) -> Instruction {
        Instruction { p, q, z }
    }

    /// r0 read at 0 and again at 3; r1 written at 0..=2; r2 written at 3.
    fn sample() -> Program {
        Program {
            instructions: vec![
                inst(Operand::Cell(c(0)), Operand::Const(false), c(1)),
                inst(Operand::Const(false), Operand::Const(true), c(1)),
                inst(Operand::Const(true), Operand::Const(false), c(1)),
                inst(Operand::Cell(c(0)), Operand::Cell(c(1)), c(2)),
            ],
            num_cells: 4,
            input_cells: vec![c(0)],
            output_cells: vec![c(2)],
        }
    }

    #[test]
    fn spans_track_first_last_and_writes() {
        let spans = cell_spans(&sample());
        let s0 = spans[0].expect("r0 referenced");
        assert_eq!((s0.first, s0.last, s0.writes), (0, 3, 0));
        assert_eq!(s0.length(), 4);
        let s1 = spans[1].expect("r1 referenced");
        assert_eq!((s1.first, s1.last, s1.writes), (0, 3, 3));
        let s2 = spans[2].expect("r2 referenced");
        assert_eq!((s2.first, s2.last, s2.writes), (3, 3, 1));
        assert_eq!(spans[3], None, "r3 never referenced");
    }

    #[test]
    fn blockage_scores() {
        let spans = cell_spans(&sample());
        // r0: span 4, 0 writes → blocked cell (score 4 with max(1) guard).
        assert_eq!(spans[0].unwrap().blockage(), 4.0);
        // r1: span 4, 3 writes → churning work cell.
        assert!((spans[1].unwrap().blockage() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(spans[2].unwrap().blockage(), 1.0);
    }

    #[test]
    fn stats_aggregate() {
        let stats = blockage_stats(&sample());
        assert_eq!(stats.cells, 3);
        assert_eq!(stats.max_span, 4);
        assert_eq!(stats.max_blockage, 4.0);
        assert!(stats.mean_span > 0.0);
        assert!(stats.mean_blockage >= 1.0);
    }

    #[test]
    fn empty_program_all_zero() {
        let program = Program {
            instructions: vec![],
            num_cells: 2,
            input_cells: vec![c(0)],
            output_cells: vec![c(0)],
        };
        let stats = blockage_stats(&program);
        assert_eq!(stats.cells, 0);
        assert_eq!(stats.max_span, 0);
        assert_eq!(longest_same_cell_run(&program), 0);
    }

    #[test]
    fn same_cell_run_detected() {
        // r1 is written at pcs 0..=2, then r2 once.
        assert_eq!(longest_same_cell_run(&sample()), 3);
        // r1, r2, r1, r1: the write to r2 ends the first run.
        let mut program = sample();
        program.instructions.swap(1, 3);
        assert_eq!(longest_same_cell_run(&program), 2);
    }
}
