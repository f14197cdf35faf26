//! Online fault recovery: spare-cell remapping, a fault event log and the
//! watchdog policy that retires arrays which fault too often.
//!
//! The detection primitive lives below this module: a [`Machine`] running
//! with write-verify readback surfaces a [`WriteFault`] naming the exact
//! cell that failed. This module decides what the fleet *does* about it:
//!
//! * [`patch_program`] rebinds a program's cell assignments around a set
//!   of broken physical cells — logical cell `i` moves to the `i`-th
//!   healthy physical cell, so one patched program serves until the next
//!   fault. This is the "remap to a spare row" path; when no spare fits
//!   the [`RecoveryConfig`] budget, the array is retired instead.
//! * [`FaultRecorder`] is a bounded ring-buffer log of [`FaultEvent`]s
//!   plus running counters — the black box a hardware controller would
//!   expose, modelled on PLC runtime fault recorders.
//! * [`RecoveryConfig`] is the watchdog policy: how many spare cells an
//!   array may consume and how many faults it may accumulate before the
//!   fleet stops trusting it.
//!
//! [`Machine`]: crate::machine::Machine

use std::collections::VecDeque;
use std::fmt;

use rlim_rram::{CellId, WriteFault};

use crate::isa::{Instruction, Operand, Program};

/// Watchdog policy for a recovering fleet.
///
/// # Examples
///
/// ```
/// use rlim_plim::RecoveryConfig;
///
/// let recovery = RecoveryConfig::new().with_spares(4).with_max_faults(8);
/// assert_eq!(recovery.spares, 4);
/// assert_eq!(recovery.max_faults, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Broken cells an array may remap before the watchdog retires it.
    /// With `spares == 0` the first detected fault retires the array.
    pub spares: usize,
    /// Detected faults (worn or stuck) an array may accumulate before the
    /// watchdog retires it, regardless of spare capacity — an array that
    /// faults this often is not worth trusting with more work.
    pub max_faults: u64,
}

/// Ring-buffer capacity of a fleet's [`FaultRecorder`]. Counters keep
/// counting after the buffer wraps; only event detail is lost.
pub(crate) const FAULT_LOG_CAPACITY: usize = 256;

impl RecoveryConfig {
    /// The default policy: 8 spares and 16 faults per array.
    pub fn new() -> Self {
        RecoveryConfig {
            spares: 8,
            max_faults: 16,
        }
    }

    /// Sets the per-array spare-cell budget.
    pub fn with_spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }

    /// Sets the per-array fault budget.
    pub fn with_max_faults(mut self, max_faults: u64) -> Self {
        self.max_faults = max_faults;
        self
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::new()
    }
}

/// What kind of device fault was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The cell's endurance limit was reached.
    Worn,
    /// Write-verify readback caught a stuck-at cell.
    Stuck,
}

impl FaultKind {
    /// Classifies a detected [`WriteFault`].
    pub fn of(fault: &WriteFault) -> Self {
        match fault {
            WriteFault::Worn(_) => FaultKind::Worn,
            WriteFault::Stuck(_) => FaultKind::Stuck,
        }
    }

    /// Short label used in logs and tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Worn => "worn",
            FaultKind::Stuck => "stuck",
        }
    }
}

/// What the fleet did about a detected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The broken cell's logical role was rebound to a healthy physical
    /// cell and the job retried.
    Remapped {
        /// The physical cell now backing the broken cell's logical role.
        spare: CellId,
    },
    /// The watchdog retired the array (spares or fault budget spent).
    Retired,
}

/// One detected fault and its resolution, as logged by [`FaultRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Batch index of the job that hit the fault.
    pub job: usize,
    /// The array it ran on.
    pub array: usize,
    /// The physical cell that failed.
    pub cell: CellId,
    /// Worn out or stuck.
    pub kind: FaultKind,
    /// Remapped-and-retried, or array retired.
    pub action: RecoveryAction,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} on array {}: cell {} {}, ",
            self.job,
            self.array,
            self.cell,
            self.kind.label()
        )?;
        match self.action {
            RecoveryAction::Remapped { spare } => write!(f, "remapped to {spare}"),
            RecoveryAction::Retired => write!(f, "array retired"),
        }
    }
}

/// A bounded ring-buffer log of fault events with running counters.
///
/// The counters never saturate with the buffer: once `capacity` events
/// are held, recording a new one drops the oldest (counted in
/// [`FaultRecorder::dropped`]) — the black-box idiom: recent detail,
/// lifetime totals.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecorder {
    capacity: usize,
    events: VecDeque<FaultEvent>,
    worn: u64,
    stuck: u64,
    remaps: u64,
    retirements: u64,
    dropped: u64,
}

impl FaultRecorder {
    /// An empty recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FaultRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            worn: 0,
            stuck: 0,
            remaps: 0,
            retirements: 0,
            dropped: 0,
        }
    }

    /// Logs an event, evicting the oldest if the buffer is full.
    pub fn record(&mut self, event: FaultEvent) {
        match event.kind {
            FaultKind::Worn => self.worn += 1,
            FaultKind::Stuck => self.stuck += 1,
        }
        match event.action {
            RecoveryAction::Remapped { .. } => self.remaps += 1,
            RecoveryAction::Retired => self.retirements += 1,
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring-buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total faults ever recorded (worn + stuck).
    pub fn total_faults(&self) -> u64 {
        self.worn + self.stuck
    }

    /// Endurance (worn-out) faults ever recorded.
    pub fn worn(&self) -> u64 {
        self.worn
    }

    /// Stuck-at faults ever recorded.
    pub fn stuck(&self) -> u64 {
        self.stuck
    }

    /// Faults resolved by remapping to a spare cell.
    pub fn remaps(&self) -> u64 {
        self.remaps
    }

    /// Faults that retired their array.
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// Events evicted from the ring buffer (or never retained, with a
    /// zero-capacity buffer).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Rebinds a program's cells around `broken` physical cells: logical cell
/// `i` is bound to the `i`-th healthy physical cell, in index order.
///
/// With no broken cells the mapping is the identity (the program is
/// returned as an exact clone). Each additional broken cell shifts every
/// logical cell at or above it one physical row up, so the patched
/// program spans `num_cells + broken-below-range` physical cells; callers
/// must grow the array accordingly. The instruction *sequence* — and
/// therefore the program's write cost and outputs — is unchanged; only
/// the cell bindings move.
///
/// # Examples
///
/// ```
/// use rlim_plim::{patch_program, Instruction, Operand, Program};
/// use rlim_rram::CellId;
///
/// let program = Program {
///     instructions: vec![Instruction {
///         p: Operand::Cell(CellId::new(0)),
///         q: Operand::Const(false),
///         z: CellId::new(1),
///     }],
///     num_cells: 2,
///     input_cells: vec![CellId::new(0)],
///     output_cells: vec![CellId::new(1)],
/// };
/// // Cell r1 broke: logical 0 stays on r0, logical 1 moves to r2.
/// let patched = patch_program(&program, &[CellId::new(1)]);
/// assert_eq!(patched.instructions[0].z, CellId::new(2));
/// assert_eq!(patched.num_cells, 3);
/// ```
pub fn patch_program(program: &Program, broken: &[CellId]) -> Program {
    if broken.is_empty() {
        return program.clone();
    }
    let broken: std::collections::BTreeSet<usize> = broken.iter().map(|c| c.index()).collect();
    let mut map = Vec::with_capacity(program.num_cells);
    let mut phys = 0usize;
    for _ in 0..program.num_cells {
        while broken.contains(&phys) {
            phys += 1;
        }
        map.push(CellId::new(phys as u32));
        phys += 1;
    }
    let remap = |c: CellId| map[c.index()];
    let remap_operand = |o: Operand| match o {
        Operand::Cell(c) => Operand::Cell(remap(c)),
        constant => constant,
    };
    Program {
        instructions: program
            .instructions
            .iter()
            .map(|i| Instruction {
                p: remap_operand(i.p),
                q: remap_operand(i.q),
                z: remap(i.z),
            })
            .collect(),
        num_cells: map.last().map_or(0, |c| c.index() + 1),
        input_cells: program.input_cells.iter().map(|&c| remap(c)).collect(),
        output_cells: program.output_cells.iter().map(|&c| remap(c)).collect(),
    }
}

/// The physical cell that takes over `failed`'s logical role once
/// `failed` is in the broken set: `failed` held the logical index equal
/// to its physical index minus the broken cells below it, and that
/// logical index now binds to the corresponding healthy cell.
pub(crate) fn remap_target(broken_after: &[CellId], failed: CellId) -> CellId {
    let below = broken_after
        .iter()
        .filter(|b| **b != failed && b.index() < failed.index())
        .count();
    let logical = failed.index() - below;
    let broken: std::collections::BTreeSet<usize> =
        broken_after.iter().map(|c| c.index()).collect();
    let mut healthy = 0usize;
    let mut phys = 0usize;
    loop {
        if !broken.contains(&phys) {
            if healthy == logical {
                return CellId::new(phys as u32);
            }
            healthy += 1;
        }
        phys += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> CellId {
        CellId::new(i)
    }

    fn sample() -> Program {
        Program {
            instructions: vec![
                Instruction {
                    p: Operand::Const(false),
                    q: Operand::Const(true),
                    z: c(2),
                },
                Instruction {
                    p: Operand::Cell(c(0)),
                    q: Operand::Cell(c(1)),
                    z: c(2),
                },
            ],
            num_cells: 3,
            input_cells: vec![c(0), c(1)],
            output_cells: vec![c(2)],
        }
    }

    #[test]
    fn empty_broken_set_is_identity() {
        let program = sample();
        assert_eq!(patch_program(&program, &[]), program);
    }

    #[test]
    fn patch_skips_broken_cells_in_order() {
        let program = sample();
        // r1 broken: logical 0 → r0, logical 1 → r2, logical 2 → r3.
        let patched = patch_program(&program, &[c(1)]);
        assert_eq!(patched.input_cells, vec![c(0), c(2)]);
        assert_eq!(patched.output_cells, vec![c(3)]);
        assert_eq!(patched.instructions[1].p, Operand::Cell(c(0)));
        assert_eq!(patched.instructions[1].q, Operand::Cell(c(2)));
        assert_eq!(patched.instructions[1].z, c(3));
        assert_eq!(patched.num_cells, 4);
        // Constants are untouched.
        assert_eq!(patched.instructions[0].p, Operand::Const(false));
        // A second break (the old spare r2) shifts again from the
        // *original* logical space: logical 1 → r3, logical 2 → r4.
        let patched = patch_program(&program, &[c(1), c(2)]);
        assert_eq!(patched.input_cells, vec![c(0), c(3)]);
        assert_eq!(patched.output_cells, vec![c(4)]);
        assert_eq!(patched.num_cells, 5);
    }

    #[test]
    fn patch_preserves_write_cost_and_validity() {
        let program = sample();
        let patched = patch_program(&program, &[c(0), c(2)]);
        assert_eq!(patched.total_writes(), program.total_writes());
        patched.validate().unwrap();
    }

    #[test]
    fn broken_cells_beyond_the_program_do_not_shift_it() {
        let program = sample();
        let patched = patch_program(&program, &[c(7)]);
        assert_eq!(patched, program);
    }

    #[test]
    fn remap_target_names_the_replacement_cell() {
        // r1 fails first: its logical role (1) moves to r2.
        assert_eq!(remap_target(&[c(1)], c(1)), c(2));
        // Then the spare r2 fails: logical 1 moves on to r3.
        assert_eq!(remap_target(&[c(1), c(2)], c(2)), c(3));
        // A failure below earlier breaks: r0 holds logical 0 → r3 is the
        // next healthy cell only after r1, r2; logical 0 → r3? No: broken
        // {0,1,2} leaves r3 as the 0th healthy cell.
        assert_eq!(remap_target(&[c(1), c(2), c(0)], c(0)), c(3));
    }

    #[test]
    fn recorder_counts_and_wraps() {
        let mut log = FaultRecorder::new(2);
        let event = |job, kind, action| FaultEvent {
            job,
            array: 0,
            cell: c(0),
            kind,
            action,
        };
        log.record(event(
            0,
            FaultKind::Worn,
            RecoveryAction::Remapped { spare: c(1) },
        ));
        log.record(event(
            1,
            FaultKind::Stuck,
            RecoveryAction::Remapped { spare: c(2) },
        ));
        log.record(event(2, FaultKind::Worn, RecoveryAction::Retired));
        assert_eq!(log.total_faults(), 3);
        assert_eq!(log.worn(), 2);
        assert_eq!(log.stuck(), 1);
        assert_eq!(log.remaps(), 2);
        assert_eq!(log.retirements(), 1);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.len(), 2);
        let jobs: Vec<usize> = log.events().map(|e| e.job).collect();
        assert_eq!(jobs, vec![1, 2], "oldest event evicted first");
        assert_eq!(log.capacity(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn zero_capacity_recorder_keeps_counters_only() {
        let mut log = FaultRecorder::new(0);
        log.record(FaultEvent {
            job: 0,
            array: 1,
            cell: c(3),
            kind: FaultKind::Stuck,
            action: RecoveryAction::Retired,
        });
        assert_eq!(log.total_faults(), 1);
        assert_eq!(log.len(), 0);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn event_display_names_cell_and_action() {
        let remap = FaultEvent {
            job: 3,
            array: 1,
            cell: c(5),
            kind: FaultKind::Worn,
            action: RecoveryAction::Remapped { spare: c(9) },
        };
        assert_eq!(
            remap.to_string(),
            "job 3 on array 1: cell r5 worn, remapped to r9"
        );
        let retire = FaultEvent {
            job: 7,
            array: 0,
            cell: c(2),
            kind: FaultKind::Stuck,
            action: RecoveryAction::Retired,
        };
        assert_eq!(
            retire.to_string(),
            "job 7 on array 0: cell r2 stuck, array retired"
        );
    }
}
