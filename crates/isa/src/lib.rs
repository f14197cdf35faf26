//! # rlim-isa — the generic logic-in-memory ISA abstraction
//!
//! Every in-memory computing style in this workspace boils down to the
//! same shape: a straight-line sequence of instructions over a flat cell
//! address space, where each instruction performs exactly one destination
//! write (the quantity the DATE 2017 endurance paper balances). The RM3
//! flow (`rlim-plim`) and the IMPLY baseline (`rlim-imp`) used to carry
//! their own program containers, write accounting and validators; this
//! crate factors that shape out:
//!
//! * [`Isa`] — the per-instruction interface: which cell is written
//!   ([`Isa::destination`]), which cells are read ([`Isa::reads`]), how
//!   many destination writes one instruction costs
//!   ([`Isa::writes_per_op`]), and a `Display` rendering for listings.
//! * [`Program`] — the shared container generic over the instruction
//!   type, providing the paper's `#I` / `#R` metrics, per-cell write
//!   counts, [`WriteStats`] and structural validation for every backend.
//!
//! Backends implement [`Isa`] for their instruction type and get the
//! whole accounting surface for free; the compiler side (`rlim-compiler`)
//! builds its `Backend` trait and pass pipeline on top of this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use rlim_rram::{CellId, WriteStats};

/// The cells one instruction reads, as a small inline list.
///
/// Capacity is fixed at three — enough for any ISA in this workspace
/// (RM3 reads at most P, Q and the destination's previous value; IMPLY
/// reads at most its condition and work cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    cells: [CellId; 3],
    len: u8,
}

impl Default for Reads {
    fn default() -> Self {
        Reads::new()
    }
}

impl Reads {
    /// The empty read set.
    pub fn new() -> Self {
        Reads {
            cells: [CellId::new(0); 3],
            len: 0,
        }
    }

    /// Appends a cell.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds three cells.
    pub fn push(&mut self, cell: CellId) {
        assert!(
            (self.len as usize) < 3,
            "an instruction reads at most 3 cells"
        );
        self.cells[self.len as usize] = cell;
        self.len += 1;
    }

    /// The cells as a slice.
    pub fn as_slice(&self) -> &[CellId] {
        &self.cells[..self.len as usize]
    }

    /// Number of cells read.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no cell is read.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for &'a Reads {
    type Item = CellId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, CellId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

impl FromIterator<CellId> for Reads {
    fn from_iter<T: IntoIterator<Item = CellId>>(iter: T) -> Self {
        let mut reads = Reads::new();
        for cell in iter {
            reads.push(cell);
        }
        reads
    }
}

/// One instruction of a logic-in-memory ISA.
///
/// Implementors describe, per instruction, the single cell they write and
/// the cells whose *current value* they read; the shared [`Program`]
/// container derives all write accounting and structural validation from
/// those two answers.
///
/// # Examples
///
/// A toy one-operation ISA (`INC c`: rewrite `c` from its own value):
///
/// ```
/// use rlim_isa::{Isa, Reads};
/// use rlim_rram::CellId;
///
/// #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
/// struct Inc(CellId);
///
/// impl std::fmt::Display for Inc {
///     fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
///         write!(f, "INC {}", self.0)
///     }
/// }
///
/// impl Isa for Inc {
///     const NAME: &'static str = "toy";
///     const REQUIRES_DEFINED_READS: bool = false;
///     fn destination(&self) -> CellId { self.0 }
///     fn reads(&self) -> Reads { [self.0].into_iter().collect() }
/// }
///
/// let op = Inc(CellId::new(3));
/// assert_eq!(op.destination(), CellId::new(3));
/// assert_eq!(op.reads().as_slice(), &[CellId::new(3)]);
/// assert_eq!(op.writes_per_op(), 1, "one destination write by default");
/// ```
pub trait Isa: Copy + Eq + std::hash::Hash + fmt::Debug + fmt::Display {
    /// Human-readable name of the ISA, used in disassembly headers
    /// (e.g. `"PLiM"`, `"IMPLY"`).
    const NAME: &'static str;

    /// Whether [`Program::validate`] must prove that every read observes
    /// a previously-defined value (a primary input or the destination of
    /// an earlier instruction). IMPLY requires this — reading a cell
    /// nothing wrote yields whatever the array happened to hold; RM3
    /// programs establish destination values with constant-set recipes,
    /// so the check does not apply.
    const REQUIRES_DEFINED_READS: bool;

    /// The cell this instruction writes (every instruction writes exactly
    /// one destination).
    fn destination(&self) -> CellId;

    /// The cells whose current value this instruction reads. Includes the
    /// destination when the new value depends on the old one (general RM3,
    /// IMPLY's conditional set) and excludes it for unconditional recipes
    /// (RM3 `set0`/`set1`, IMPLY `FALSE`).
    fn reads(&self) -> Reads;

    /// RRAM writes the destination absorbs when this instruction executes.
    /// One for every ISA in the workspace; override for ISAs with
    /// multi-pulse operations.
    fn writes_per_op(&self) -> u64 {
        1
    }
}

/// A structural problem detected by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// An instruction or I/O map references a cell `≥ num_cells`.
    CellOutOfRange {
        /// Where the reference occurred (human-readable).
        site: String,
        /// The offending cell.
        cell: CellId,
    },
    /// Two primary inputs map to the same cell.
    DuplicateInputCell(CellId),
    /// An instruction reads a cell that is neither a primary input nor
    /// the destination of any earlier instruction (only checked for ISAs
    /// with [`Isa::REQUIRES_DEFINED_READS`]; see
    /// [`Program::first_undefined_read`]).
    UndefinedRead {
        /// Index of the reading instruction; the instruction count for a
        /// primary output.
        op: usize,
        /// The undefined cell.
        cell: CellId,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::CellOutOfRange { site, cell } => {
                write!(f, "cell {cell} out of range at {site}")
            }
            ProgramError::DuplicateInputCell(c) => {
                write!(f, "duplicate input cell {c}")
            }
            ProgramError::UndefinedRead { op, cell } => write!(
                f,
                "instruction {op} reads cell r{} before it is defined",
                cell.index()
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A compiled logic-in-memory program, generic over its instruction set.
///
/// The cell address space is `0..num_cells`. Input cells must be
/// preloaded with the primary-input values before execution; after
/// execution the primary outputs are read from `output_cells`. Because
/// every [`Isa`] instruction writes exactly one destination, the per-cell
/// write distribution — the quantity the paper's endurance techniques
/// balance — is fully determined by the instruction sequence and shared
/// across backends via [`Program::write_counts`] /
/// [`Program::write_stats`].
///
/// # Examples
///
/// ```
/// use rlim_isa::{Isa, Program, Reads};
/// use rlim_rram::CellId;
///
/// # #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
/// # struct Nop(CellId);
/// # impl std::fmt::Display for Nop {
/// #     fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
/// #         write!(f, "NOP {}", self.0)
/// #     }
/// # }
/// # impl Isa for Nop {
/// #     const NAME: &'static str = "toy";
/// #     const REQUIRES_DEFINED_READS: bool = false;
/// #     fn destination(&self) -> CellId { self.0 }
/// #     fn reads(&self) -> Reads { Reads::new() }
/// # }
/// let program: Program<Nop> = Program {
///     instructions: vec![Nop(CellId::new(1)), Nop(CellId::new(1))],
///     num_cells: 2,
///     input_cells: vec![CellId::new(0)],
///     output_cells: vec![CellId::new(1)],
/// };
/// program.validate().unwrap();
/// assert_eq!(program.num_instructions(), 2);
/// assert_eq!(program.num_rrams(), 2);
/// assert_eq!(program.write_counts(), vec![0, 2]);
/// assert_eq!(program.write_stats().max, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program<I: Isa> {
    /// The instruction sequence, in execution order.
    pub instructions: Vec<I>,
    /// Number of RRAM cells the program addresses (the paper's `#R`).
    pub num_cells: usize,
    /// Cells holding the primary inputs at program start, in PI order.
    pub input_cells: Vec<CellId>,
    /// Cells holding the primary outputs at program end, in PO order.
    pub output_cells: Vec<CellId>,
}

impl<I: Isa> Program<I> {
    /// The paper's `#I` metric: number of instructions.
    pub fn num_instructions(&self) -> usize {
        self.instructions.len()
    }

    /// The paper's `#R` metric: number of RRAM cells used.
    pub fn num_rrams(&self) -> usize {
        self.num_cells
    }

    /// Per-cell write counts implied by the destination sequence (static:
    /// each instruction writes its destination [`Isa::writes_per_op`]
    /// times).
    pub fn write_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_cells];
        for inst in &self.instructions {
            counts[inst.destination().index()] += inst.writes_per_op();
        }
        counts
    }

    /// Write-distribution statistics over all cells — the paper's
    /// STDEV / min / max metrics, shared by every backend.
    pub fn write_stats(&self) -> WriteStats {
        WriteStats::from_counts(self.write_counts())
    }

    /// Per-cell read counts implied by [`Isa::reads`] (static: each
    /// instruction reads each listed cell once). Reads are wear-free on
    /// RRAM, but the distribution shows which cells act as shared operand
    /// caches — copy discovery concentrates reads on long-lived holders.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlim_isa::Program;
    /// use rlim_plim::Instruction;
    /// use rlim_rram::CellId;
    ///
    /// let (src, dst) = (CellId::new(0), CellId::new(1));
    /// let program: Program<Instruction> = Program {
    ///     instructions: vec![
    ///         Instruction::set_const(dst, false), // reads nothing
    ///         Instruction::load(src, dst),        // reads src and dst
    ///     ],
    ///     num_cells: 2,
    ///     input_cells: vec![src],
    ///     output_cells: vec![dst],
    /// };
    /// assert_eq!(program.read_counts(), vec![1, 1]);
    /// ```
    pub fn read_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_cells];
        for inst in &self.instructions {
            for cell in &inst.reads() {
                counts[cell.index()] += 1;
            }
        }
        counts
    }

    /// Total writes one execution inflicts on its array. Equals `#I` for
    /// single-write ISAs; the unit fleet write budgets are expressed in.
    pub fn total_writes(&self) -> u64 {
        self.instructions.iter().map(Isa::writes_per_op).sum()
    }

    /// Checks internal consistency.
    ///
    /// All ISAs get range checks on every read, destination and interface
    /// cell plus a duplicate-input check; ISAs with
    /// [`Isa::REQUIRES_DEFINED_READS`] additionally get the defined-read
    /// walk (every read observes a primary input or an earlier
    /// destination).
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let check = |site: String, cell: CellId| -> Result<(), ProgramError> {
            if cell.index() >= self.num_cells {
                Err(ProgramError::CellOutOfRange { site, cell })
            } else {
                Ok(())
            }
        };
        for (i, inst) in self.instructions.iter().enumerate() {
            for cell in &inst.reads() {
                check(format!("instruction {i} read"), cell)?;
            }
            check(format!("instruction {i} destination"), inst.destination())?;
        }
        let mut seen = vec![false; self.num_cells];
        for (i, &c) in self.input_cells.iter().enumerate() {
            check(format!("input {i}"), c)?;
            if seen[c.index()] {
                return Err(ProgramError::DuplicateInputCell(c));
            }
            seen[c.index()] = true;
        }
        for (i, &c) in self.output_cells.iter().enumerate() {
            check(format!("output {i}"), c)?;
        }
        if I::REQUIRES_DEFINED_READS {
            if let Some((op, cell)) = self.first_undefined_read() {
                return Err(ProgramError::UndefinedRead { op, cell });
            }
        }
        Ok(())
    }

    /// The first read of a cell this program has not defined, as `(op,
    /// cell)`: instruction `op` reads `cell`, which is neither a primary
    /// input nor the destination of an earlier instruction. The primary
    /// outputs are read after the last instruction, as `op ==
    /// num_instructions()`. `None` means the program's outputs and
    /// writes do not depend on what the array held before it ran.
    ///
    /// # Panics
    ///
    /// Panics if a cell is out of range (see [`Program::validate`]).
    pub fn first_undefined_read(&self) -> Option<(usize, CellId)> {
        // Primary inputs are preloaded; everything else must have been a
        // destination first. (Dead input cells *may* be recycled as work
        // cells — writing them is legal; reading garbage is not.)
        let mut defined = vec![false; self.num_cells];
        for &c in &self.input_cells {
            defined[c.index()] = true;
        }
        for (i, inst) in self.instructions.iter().enumerate() {
            for cell in &inst.reads() {
                if !defined[cell.index()] {
                    return Some((i, cell));
                }
            }
            defined[inst.destination().index()] = true;
        }
        let end = self.instructions.len();
        self.output_cells
            .iter()
            .find(|c| !defined[c.index()])
            .map(|&c| (end, c))
    }

    /// Human-readable disassembly, one instruction per line, with an
    /// [`Isa::NAME`] header.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; {} program: {} instructions, {} cells",
            I::NAME,
            self.num_instructions(),
            self.num_rrams()
        );
        for (i, inst) in self.instructions.iter().enumerate() {
            let _ = writeln!(out, "{i:6}: {inst}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal two-op ISA for container tests: `Def c` writes `c` without
    /// reading; `Use { from, to }` rewrites `to` from `from` and itself.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum TestOp {
        Def(CellId),
        Use { from: CellId, to: CellId },
    }

    impl fmt::Display for TestOp {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestOp::Def(c) => write!(f, "DEF {c}"),
                TestOp::Use { from, to } => write!(f, "USE {from} -> {to}"),
            }
        }
    }

    impl Isa for TestOp {
        const NAME: &'static str = "test";
        const REQUIRES_DEFINED_READS: bool = true;

        fn destination(&self) -> CellId {
            match *self {
                TestOp::Def(c) | TestOp::Use { to: c, .. } => c,
            }
        }

        fn reads(&self) -> Reads {
            match *self {
                TestOp::Def(_) => Reads::new(),
                TestOp::Use { from, to } => [from, to].into_iter().collect(),
            }
        }
    }

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    fn sample() -> Program<TestOp> {
        Program {
            instructions: vec![
                TestOp::Def(c(2)),
                TestOp::Use {
                    from: c(0),
                    to: c(2),
                },
                TestOp::Use {
                    from: c(1),
                    to: c(2),
                },
            ],
            num_cells: 3,
            input_cells: vec![c(0), c(1)],
            output_cells: vec![c(2)],
        }
    }

    #[test]
    fn metrics_and_accounting() {
        let p = sample();
        assert_eq!(p.num_instructions(), 3);
        assert_eq!(p.num_rrams(), 3);
        assert_eq!(p.write_counts(), vec![0, 0, 3]);
        assert_eq!(p.total_writes(), 3);
        let stats = p.write_stats();
        assert_eq!(stats.max, 3);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.cells, 3);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_read() {
        let mut p = sample();
        p.instructions.push(TestOp::Use {
            from: c(9),
            to: c(0),
        });
        assert!(matches!(
            p.validate(),
            Err(ProgramError::CellOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_interface() {
        let mut p = sample();
        p.output_cells.push(c(7));
        assert!(matches!(
            p.validate(),
            Err(ProgramError::CellOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_inputs() {
        let mut p = sample();
        p.input_cells.push(c(0));
        assert_eq!(p.validate(), Err(ProgramError::DuplicateInputCell(c(0))));
    }

    #[test]
    fn validate_rejects_undefined_read() {
        let p = Program {
            instructions: vec![TestOp::Use {
                from: c(1),
                to: c(0),
            }],
            num_cells: 2,
            input_cells: vec![c(0)],
            output_cells: vec![],
        };
        assert!(matches!(
            p.validate(),
            Err(ProgramError::UndefinedRead { op: 0, cell }) if cell == c(1)
        ));
    }

    #[test]
    fn outputs_are_reads_after_the_last_instruction() {
        let mut p = sample();
        assert_eq!(p.first_undefined_read(), None);
        p.output_cells.push(c(1));
        assert_eq!(p.first_undefined_read(), None, "an input is defined");
        p.num_cells = 4;
        p.output_cells.push(c(3));
        assert_eq!(p.first_undefined_read(), Some((3, c(3))));
    }

    #[test]
    fn recycling_a_written_cell_is_legal() {
        let p = Program {
            instructions: vec![
                TestOp::Def(c(2)),
                TestOp::Use {
                    from: c(2),
                    to: c(2),
                },
            ],
            num_cells: 3,
            input_cells: vec![c(0), c(1)],
            output_cells: vec![c(2)],
        };
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn disassembly_has_header_and_lines() {
        let text = sample().disassemble();
        assert!(text.starts_with("; test program: 3 instructions, 3 cells"));
        assert!(text.contains("USE r0 -> r2"));
    }

    #[test]
    fn reads_list_limits() {
        let mut reads = Reads::new();
        assert!(reads.is_empty());
        reads.push(c(1));
        reads.push(c(2));
        reads.push(c(3));
        assert_eq!(reads.len(), 3);
        assert_eq!(
            (&reads).into_iter().collect::<Vec<_>>(),
            vec![c(1), c(2), c(3)]
        );
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn reads_overflow_panics() {
        let mut reads = Reads::new();
        for i in 0..4 {
            reads.push(c(i));
        }
    }

    #[test]
    fn error_display() {
        let e = ProgramError::DuplicateInputCell(c(4));
        assert_eq!(e.to_string(), "duplicate input cell r4");
        let u = ProgramError::UndefinedRead { op: 7, cell: c(2) };
        assert!(u.to_string().contains("instruction 7"));
        assert!(u.to_string().contains("r2"));
    }
}
