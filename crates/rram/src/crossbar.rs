//! The resistive crossbar array model.
//!
//! PLiM treats the whole crossbar as one flat address space, so the model is
//! a growable vector of bipolar resistive switches (BRS). Each cell records
//! its stored bit and the number of times it has been written. An optional
//! endurance limit turns over-writing into a hard failure, which the
//! test-suite uses for failure injection.

use std::fmt;

use crate::fault::{CellProfile, FaultModel, StuckAtError, WriteFault};

/// Index of a cell in a [`Crossbar`].
///
/// Newtype so cell addresses cannot be confused with MIG node ids or
/// instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(u32);

impl CellId {
    /// Creates a cell id from a raw index.
    #[inline]
    pub fn new(index: u32) -> Self {
        CellId(index)
    }

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A write was attempted on a cell whose endurance is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnduranceError {
    /// The worn-out cell.
    pub cell: CellId,
    /// The endurance limit that was exceeded.
    pub limit: u64,
}

impl fmt::Display for EnduranceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} exceeded its endurance limit of {} writes",
            self.cell, self.limit
        )
    }
}

impl std::error::Error for EnduranceError {}

/// One bipolar resistive switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    value: bool,
    writes: u64,
    switches: u64,
}

/// A growable crossbar of RRAM cells with per-cell wear tracking.
///
/// # Examples
///
/// ```
/// use rlim_rram::Crossbar;
///
/// let mut array = Crossbar::with_endurance(2);
/// let c = array.alloc(false);
/// array.write(c, true).unwrap();
/// array.write(c, true).unwrap(); // same value still wears the cell
/// assert!(array.write(c, false).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Crossbar {
    cells: Vec<Cell>,
    endurance: Option<u64>,
    faults: Option<Faults>,
}

/// Per-cell fault state, grown in lockstep with `cells` so profile
/// sampling happens once per cell at allocation time, off the hot write
/// path.
#[derive(Debug, Clone)]
struct Faults {
    model: FaultModel,
    profiles: Vec<CellProfile>,
}

impl Crossbar {
    /// An empty array without an endurance limit.
    pub fn new() -> Self {
        Crossbar::default()
    }

    /// An empty array whose cells fail after `limit` writes.
    pub fn with_endurance(limit: u64) -> Self {
        Crossbar {
            cells: Vec::new(),
            endurance: Some(limit),
            faults: None,
        }
    }

    /// An empty array under fault injection: each cell's endurance limit
    /// and latent stuck-at fault are sampled from `model` at allocation
    /// time (deterministic per `(seed, cell index)`), overriding any
    /// uniform limit.
    pub fn with_faults(model: FaultModel) -> Self {
        Crossbar {
            cells: Vec::new(),
            endurance: None,
            faults: Some(Faults {
                model,
                profiles: Vec::new(),
            }),
        }
    }

    /// The configured endurance limit, if any.
    pub fn endurance(&self) -> Option<u64> {
        self.endurance
    }

    /// The fault-injection model, when this array runs under one.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.faults.as_ref().map(|f| &f.model)
    }

    /// The value cell `cell` is currently frozen at, if its latent
    /// stuck-at fault has manifested (its wear reached the fault onset).
    pub fn stuck_at(&self, cell: CellId) -> Option<bool> {
        let stuck = self.faults.as_ref()?.profiles[cell.index()].stuck?;
        (self.cells[cell.index()].writes >= stuck.onset).then_some(stuck.value)
    }

    /// Number of cells in the array.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Appends a cell preloaded with `value`. Preloading does not count as a
    /// write (the paper's accounting excludes input loading).
    pub fn alloc(&mut self, value: bool) -> CellId {
        let id = CellId(u32::try_from(self.cells.len()).expect("crossbar too large"));
        if let Some(f) = &mut self.faults {
            f.profiles.push(f.model.profile(id.index()));
        }
        self.cells.push(Cell {
            value,
            writes: 0,
            switches: 0,
        });
        id
    }

    /// Grows the array to `len` cells, preloading new cells with `false`.
    pub fn grow_to(&mut self, len: usize) {
        while self.cells.len() < len {
            self.alloc(false);
        }
    }

    /// Reads a cell's stored bit.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[inline]
    pub fn read(&self, cell: CellId) -> bool {
        self.cells[cell.index()].value
    }

    /// Writes `value` into `cell`, incrementing its wear counter. RRAM
    /// programming pulses stress the device regardless of whether the value
    /// changes, so identical-value writes also count.
    ///
    /// # Errors
    ///
    /// Returns [`EnduranceError`] when the cell has already reached the
    /// configured endurance limit.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn write(&mut self, cell: CellId, value: bool) -> Result<(), EnduranceError> {
        let profile = self.faults.as_ref().map(|f| f.profiles[cell.index()]);
        let limit = profile.map(|p| p.limit).or(self.endurance);
        let c = &mut self.cells[cell.index()];
        if let Some(limit) = limit {
            if c.writes >= limit {
                return Err(EnduranceError { cell, limit });
            }
        }
        // The pulse is applied (and wears the cell) even when a stuck-at
        // fault keeps the stored state frozen — absorption, not rejection.
        c.writes += 1;
        let stored = match profile.and_then(|p| p.stuck) {
            Some(s) if c.writes >= s.onset => s.value,
            _ => value,
        };
        if c.value != stored {
            c.switches += 1;
        }
        c.value = stored;
        Ok(())
    }

    /// Writes `value` into `cell`, then reads it back — the write-verify
    /// cycle that detects stuck-at faults. Wear accounting matches
    /// [`write`](Self::write): a worn-out cell rejects the pulse without
    /// wearing, a stuck cell absorbs it (and wears) but fails
    /// verification. A stuck cell written with its frozen value verifies
    /// clean (the fault is latent until the other state is needed).
    ///
    /// # Errors
    ///
    /// [`WriteFault::Worn`] when endurance is exhausted,
    /// [`WriteFault::Stuck`] when the readback disagrees with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn write_verified(&mut self, cell: CellId, value: bool) -> Result<(), WriteFault> {
        self.write(cell, value)?;
        let stored = self.read(cell);
        if stored != value {
            return Err(WriteFault::Stuck(StuckAtError {
                cell,
                stuck: stored,
            }));
        }
        Ok(())
    }

    /// Sets a cell's value **without** counting a write. Models the input
    /// load phase, which the paper's accounting excludes (the array acts as
    /// a plain RAM whose contents are given before computation starts).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    #[inline]
    pub fn preload(&mut self, cell: CellId, value: bool) {
        let stored = self.stuck_at(cell).unwrap_or(value);
        self.cells[cell.index()].value = stored;
    }

    /// Preloads `cell` and reads it back, like
    /// [`write_verified`](Self::write_verified) but wear-free — the
    /// input-load phase's
    /// detection primitive. A manifest stuck-at fault on an input cell
    /// surfaces here instead of silently corrupting the computation.
    ///
    /// # Errors
    ///
    /// [`StuckAtError`] when the readback disagrees with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn preload_verified(&mut self, cell: CellId, value: bool) -> Result<(), StuckAtError> {
        self.preload(cell, value);
        let stored = self.read(cell);
        if stored != value {
            return Err(StuckAtError {
                cell,
                stuck: stored,
            });
        }
        Ok(())
    }

    /// Overwrites a cell's stored value and write counter in one step,
    /// with no endurance check. This is how a word-level run hands one
    /// lane back to the array it was snapshotted from: that run counts
    /// one logical write per lane, so the counter it commits is what the
    /// same jobs run one by one would have left. Switch counters are
    /// untouched, since a word store cannot observe per-lane flips.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn commit(&mut self, cell: CellId, value: bool, writes: u64) {
        let c = &mut self.cells[cell.index()];
        c.value = value;
        c.writes = writes;
    }

    /// Write count of one cell.
    #[inline]
    pub fn writes(&self, cell: CellId) -> u64 {
        self.cells[cell.index()].writes
    }

    /// Write counts of every cell, indexed by cell.
    pub fn write_counts(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.writes).collect()
    }

    /// Switching count of one cell: programming pulses that actually
    /// flipped the stored state. Real RRAM wear is dominated by these;
    /// the compiler's write counts are a conservative upper bound.
    #[inline]
    pub fn switches(&self, cell: CellId) -> u64 {
        self.cells[cell.index()].switches
    }

    /// Switching counts of every cell, indexed by cell.
    pub fn switch_counts(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.switches).collect()
    }

    /// Stored values of every cell, indexed by cell.
    pub fn values(&self) -> Vec<bool> {
        self.cells.iter().map(|c| c.value).collect()
    }

    /// Resets all stored values and wear counters, keeping the cell count.
    /// Under fault injection this models a factory-fresh device: latent
    /// stuck-at faults un-manifest because their wear-count onsets are no
    /// longer reached.
    pub fn reset_wear(&mut self) {
        for c in &mut self.cells {
            c.writes = 0;
            c.switches = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_preload_is_not_a_write() {
        let mut array = Crossbar::new();
        let c = array.alloc(true);
        assert!(array.read(c));
        assert_eq!(array.writes(c), 0);
    }

    #[test]
    fn writes_update_value_and_wear() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.write(c, true).unwrap();
        assert!(array.read(c));
        array.write(c, true).unwrap();
        assert!(array.read(c));
        array.write(c, false).unwrap();
        assert!(!array.read(c));
        assert_eq!(array.writes(c), 3);
    }

    #[test]
    fn endurance_limit_enforced() {
        let mut array = Crossbar::with_endurance(2);
        let c = array.alloc(false);
        array.write(c, true).unwrap();
        array.write(c, false).unwrap();
        let err = array.write(c, true).unwrap_err();
        assert_eq!(err.cell, c);
        assert_eq!(err.limit, 2);
        // The failed write must not change the stored value or wear.
        assert!(!array.read(c));
        assert_eq!(array.writes(c), 2);
    }

    #[test]
    fn grow_to_extends_with_zeroes() {
        let mut array = Crossbar::new();
        array.alloc(true);
        array.grow_to(4);
        assert_eq!(array.len(), 4);
        assert!(array.read(CellId::new(0)));
        assert!(!array.read(CellId::new(3)));
        array.grow_to(2); // never shrinks
        assert_eq!(array.len(), 4);
    }

    #[test]
    fn reset_wear_keeps_values() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.write(c, true).unwrap();
        array.reset_wear();
        assert!(array.read(c));
        assert_eq!(array.writes(c), 0);
    }

    #[test]
    fn switches_only_count_state_changes() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.write(c, true).unwrap(); // switch
        array.write(c, true).unwrap(); // redundant pulse
        array.write(c, false).unwrap(); // switch
        assert_eq!(array.writes(c), 3);
        assert_eq!(array.switches(c), 2);
        assert_eq!(array.switch_counts(), vec![2]);
        array.reset_wear();
        assert_eq!(array.switches(c), 0);
    }

    #[test]
    fn preload_does_not_switch() {
        let mut array = Crossbar::new();
        let c = array.alloc(false);
        array.preload(c, true);
        assert_eq!(array.switches(c), 0);
    }

    #[test]
    fn error_display() {
        let err = EnduranceError {
            cell: CellId::new(3),
            limit: 10,
        };
        assert_eq!(
            err.to_string(),
            "cell r3 exceeded its endurance limit of 10 writes"
        );
    }

    #[test]
    fn cell_id_ordering_and_display() {
        assert!(CellId::new(1) < CellId::new(2));
        assert_eq!(CellId::new(7).to_string(), "r7");
        assert_eq!(CellId::new(7).index(), 7);
    }

    // ---- Fault injection ---------------------------------------------

    use crate::fault::FaultModel;
    use crate::variability::EnduranceModel;

    /// A model whose every cell is stuck (p = 1) with a tiny sampled
    /// endurance spread, so faults manifest within a few writes.
    fn chaotic(seed: u64) -> FaultModel {
        FaultModel::new(EnduranceModel::new(8.0, 0.3), 1.0, seed)
    }

    #[test]
    fn per_cell_limits_override_the_uniform_limit() {
        let model = FaultModel::new(EnduranceModel::new(4.0, 0.0), 0.0, 1);
        let mut array = Crossbar::with_faults(model);
        let c = array.alloc(false);
        for i in 0..4 {
            array.write(c, i % 2 == 0).unwrap();
        }
        let err = array.write(c, true).unwrap_err();
        assert_eq!(err.cell, c);
        assert_eq!(err.limit, 4);
        assert_eq!(array.writes(c), 4, "rejected pulses do not wear");
    }

    #[test]
    fn stuck_cell_absorbs_pulses_and_fails_verification() {
        let mut array = Crossbar::with_faults(chaotic(7));
        let c = array.alloc(false);
        let stuck = array.fault_model().unwrap().profile(0).stuck.unwrap();
        assert_eq!(array.stuck_at(c), None, "fresh cells are never stuck");
        // Drive the cell toward its onset always intending the opposite
        // of the frozen value: the onset write is the first to disagree
        // with its readback.
        let mut fault = None;
        for _ in 0..stuck.onset {
            if let Err(f) = array.write_verified(c, !stuck.value) {
                fault = Some(f);
                break;
            }
        }
        match fault.expect("the onset write must trip the fault") {
            WriteFault::Stuck(e) => {
                assert_eq!(e.cell, c);
                assert_eq!(e.stuck, stuck.value);
            }
            WriteFault::Worn(_) => panic!("onset ≤ limit, so the stuck fault fires first"),
        }
        assert_eq!(array.writes(c), stuck.onset, "fault fired at onset");
        assert_eq!(array.stuck_at(c), Some(stuck.value));
        assert_eq!(array.read(c), stuck.value);
        // The pulse was absorbed: wear advanced on the failing write.
        let before = array.writes(c);
        let _ = array.write_verified(c, !stuck.value);
        assert_eq!(array.writes(c), before + 1);
    }

    #[test]
    fn latent_stuck_write_verifies_clean() {
        let mut array = Crossbar::with_faults(chaotic(11));
        let c = array.alloc(false);
        let stuck = array.fault_model().unwrap().profile(0).stuck.unwrap();
        for _ in 0..stuck.onset {
            array.write(c, stuck.value).unwrap();
        }
        // Manifest, but writing the frozen value verifies clean.
        assert_eq!(array.stuck_at(c), Some(stuck.value));
        array.write_verified(c, stuck.value).unwrap();
        assert!(array.write_verified(c, !stuck.value).is_err());
    }

    #[test]
    fn preload_respects_manifest_faults() {
        let mut array = Crossbar::with_faults(chaotic(13));
        let c = array.alloc(false);
        let stuck = array.fault_model().unwrap().profile(0).stuck.unwrap();
        // Fresh cell: preload works and verifies for either value.
        array.preload_verified(c, !stuck.value).unwrap();
        for _ in 0..stuck.onset {
            array.write(c, stuck.value).unwrap();
        }
        let wear = array.writes(c);
        array.preload(c, !stuck.value);
        assert_eq!(array.read(c), stuck.value, "preload cannot unfreeze");
        let err = array.preload_verified(c, !stuck.value).unwrap_err();
        assert_eq!(
            err,
            StuckAtError {
                cell: c,
                stuck: stuck.value
            }
        );
        array.preload_verified(c, stuck.value).unwrap();
        assert_eq!(array.writes(c), wear, "preload stays wear-free");
    }

    #[test]
    fn fault_profiles_are_stable_under_growth_order() {
        let model = chaotic(5);
        let mut one = Crossbar::with_faults(model);
        one.grow_to(8);
        let mut two = Crossbar::with_faults(model);
        for _ in 0..3 {
            two.alloc(true);
        }
        two.grow_to(8);
        for i in 0..8 {
            let c = CellId::new(i);
            one.write(c, true).unwrap();
            two.write(c, true).unwrap();
            assert_eq!(one.stuck_at(c), two.stuck_at(c));
        }
    }
}
