//! The compile-time cell manager: allocation policies, free pool, write
//! accounting and retirement.
//!
//! The manager mirrors, at compile time, the wear the program will inflict
//! at run time: every emitted RM3 instruction records one write on its
//! destination. The paper's two direct endurance techniques live here:
//!
//! * **minimum write count strategy** — [`Allocation::MinWrite`] hands out
//!   the freed cell with the smallest write count;
//! * **maximum write count strategy** — cells whose remaining budget cannot
//!   fit a request are skipped (and effectively retired once no request can
//!   ever fit).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rlim_rram::CellId;

use crate::options::Allocation;

/// Where a cell stands in the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Allocated, or retired at its write limit.
    Busy,
    /// Free, with a live entry in the pool.
    Free,
    /// Free, but set aside by [`CellManager::try_alloc_avoiding`]: out of
    /// the pool until [`CellManager::unpark`] returns it.
    Parked,
}

/// Compile-time model of the crossbar's allocation state.
///
/// Free cells wait in a binary heap of packed `u64` entries, one per
/// release: the pool key in the high 32 bits (the write count under
/// [`Allocation::MinWrite`], the inverted release number under
/// [`Allocation::Lifo`]) and the cell index in the low 32, so the
/// smallest entry is the policy's pick, ties going to the lower cell.
/// Both halves are checked to fit in 32 bits when an entry is made.
///
/// # Examples
///
/// ```
/// use rlim_compiler::{Allocation, CellManager};
///
/// // Minimum write count strategy: freed cells come back least-worn first.
/// let mut pool = CellManager::new(Allocation::MinWrite, None);
/// let hot = pool.alloc(1);
/// let cold = pool.alloc(1);
/// for _ in 0..5 {
///     pool.record_write(hot);
/// }
/// pool.record_write(cold);
/// pool.release(hot);
/// pool.release(cold);
/// assert_eq!(pool.alloc(1), cold, "least-worn cell is handed out first");
/// assert_eq!(pool.total_writes(), 6);
/// assert_eq!(pool.peak_writes(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct CellManager {
    writes: Vec<u64>,
    slot: Vec<Slot>,
    /// Pool key of each free cell, fixed at its release: the write count
    /// under `MinWrite`, the inverted release sequence number under `Lifo`
    /// (so the latest-released cell has the smallest key).
    key: Vec<u32>,
    /// The free pool, smallest `(key, cell)` first, each entry packed
    /// into one `u64` as `key << 32 | cell` (see [`pack`]). Entries whose
    /// cell is no longer `Free` under that key are stale and skipped
    /// lazily.
    pool: BinaryHeap<Reverse<u64>>,
    /// Cells parked since the last [`CellManager::alloc`]; entries for
    /// cells taken or unparked since are stale.
    parked: Vec<CellId>,
    releases: u64,
    allocation: Allocation,
    max_writes: Option<u64>,
}

impl CellManager {
    /// A manager with no cells yet.
    pub fn new(allocation: Allocation, max_writes: Option<u64>) -> Self {
        CellManager {
            writes: Vec::new(),
            slot: Vec::new(),
            key: Vec::new(),
            pool: BinaryHeap::new(),
            parked: Vec::new(),
            releases: 0,
            allocation,
            max_writes,
        }
    }

    /// Total number of cells ever allocated — the paper's `#R`.
    pub fn num_cells(&self) -> usize {
        self.writes.len()
    }

    /// Write count of a cell.
    pub fn writes_of(&self, cell: CellId) -> u64 {
        self.writes[cell.index()]
    }

    /// All write counts, indexed by cell.
    pub fn write_counts(&self) -> &[u64] {
        &self.writes
    }

    /// Total writes recorded over all cells — the write cost one execution
    /// of the compiled program inflicts on its array. The fleet dispatcher
    /// budgets arrays in this unit.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// The hottest cell's write count — the per-execution peak that
    /// determines array lifetime under a device endurance limit.
    pub fn peak_writes(&self) -> u64 {
        self.writes.iter().max().copied().unwrap_or(0)
    }

    /// Writes `cell` can still absorb under the maximum write count
    /// strategy; `None` when the strategy is off (unbounded).
    pub fn remaining_budget(&self, cell: CellId) -> Option<u64> {
        self.max_writes
            .map(|w| w.saturating_sub(self.writes[cell.index()]))
    }

    /// Records one write on `cell` (called for every emitted instruction).
    /// Only allocated cells are written: a free cell keeps the count it
    /// was pooled under.
    pub fn record_write(&mut self, cell: CellId) {
        self.writes[cell.index()] += 1;
        debug_assert!(
            self.max_writes
                .is_none_or(|w| self.writes[cell.index()] <= w),
            "write budget violated on {cell}"
        );
    }

    /// Whether `cell` can absorb `budget` more writes under the maximum
    /// write count strategy (always true when the strategy is off).
    pub fn fits_budget(&self, cell: CellId, budget: u64) -> bool {
        match self.max_writes {
            None => true,
            Some(w) => self.writes[cell.index()] + budget <= w,
        }
    }

    /// Creates a brand-new cell (not drawn from the pool).
    pub fn alloc_fresh(&mut self) -> CellId {
        let id = CellId::new(u32::try_from(self.writes.len()).expect("too many cells"));
        self.writes.push(0);
        self.slot.push(Slot::Busy);
        self.key.push(0);
        id
    }

    /// Whether `cell` is currently free (pooled or parked).
    pub fn is_free(&self, cell: CellId) -> bool {
        self.slot[cell.index()] != Slot::Busy
    }

    /// Claims a specific free cell, pooled or parked (the copy-reuse
    /// translator pins cached holders this way). The cell's pool entry is
    /// left behind and skipped lazily, like any stale entry.
    ///
    /// # Panics
    ///
    /// Debug-panics if the cell is not free.
    pub fn take(&mut self, cell: CellId) {
        debug_assert!(self.is_free(cell), "take of non-free {cell}");
        self.slot[cell.index()] = Slot::Busy;
    }

    /// Requests a cell that can absorb `budget` writes. Freed cells are
    /// preferred (policy-dependent choice); a fresh cell is created when the
    /// pool has no fitting candidate. Parked cells count as free here: they
    /// all return to the pool first.
    pub fn alloc(&mut self, budget: u64) -> CellId {
        for cell in std::mem::take(&mut self.parked) {
            self.unpark(cell);
        }
        match self.try_alloc_avoiding(budget, |_| false) {
            Some(cell) => cell,
            None => self.alloc_fresh(),
        }
    }

    /// Like [`CellManager::alloc`], but free cells rejected by `avoid` are
    /// skipped and `None` is returned instead of creating a fresh cell.
    ///
    /// This is the spilling hook: the copy-reuse translator avoids free
    /// cells that still cache useful values, and on `None` falls back to
    /// [`CellManager::alloc_fresh`] — a cold spare row with zero wear, the
    /// least-worn choice by definition — rather than clobbering the cache.
    ///
    /// A rejected cell is *parked*: it stays free but leaves the pool, so
    /// later calls do not pay to reject it again. The caller returns it
    /// with [`CellManager::unpark`] as soon as `avoid` would accept it;
    /// then every call picks the cell a scan of all free cells would.
    pub fn try_alloc_avoiding(
        &mut self,
        budget: u64,
        mut avoid: impl FnMut(CellId) -> bool,
    ) -> Option<CellId> {
        let mut unfit = Vec::new();
        let mut found = None;
        while let Some(Reverse(entry)) = self.pool.pop() {
            let (key, cell) = unpack(entry);
            let i = cell.index();
            if self.slot[i] != Slot::Free || self.key[i] != key {
                continue; // stale
            }
            if !self.fits_budget(cell, budget) {
                unfit.push(Reverse(entry));
                // Min-write keys are write counts: if the least-worn cell
                // does not fit, nothing does.
                if self.allocation == Allocation::MinWrite {
                    break;
                }
                continue;
            }
            if avoid(cell) {
                self.slot[i] = Slot::Parked;
                self.parked.push(cell);
                continue;
            }
            self.slot[i] = Slot::Busy;
            found = Some(cell);
            break;
        }
        self.pool.extend(unfit);
        found
    }

    /// Returns a parked cell to the pool under the key it was released
    /// with. A no-op for a cell that is not parked (taken or unparked
    /// since).
    pub fn unpark(&mut self, cell: CellId) {
        let i = cell.index();
        if self.slot[i] == Slot::Parked {
            self.slot[i] = Slot::Free;
            self.pool.push(Reverse(pack(self.key[i], cell)));
        }
    }

    /// Returns a cell to the free pool. Cells that can never fit even a
    /// single write again are retired (dropped) instead.
    pub fn release(&mut self, cell: CellId) {
        debug_assert!(!self.is_free(cell), "double release of {cell}");
        if !self.fits_budget(cell, 1) {
            return; // retired: at the write limit
        }
        self.releases += 1;
        let i = cell.index();
        self.key[i] = match self.allocation {
            Allocation::Lifo => {
                u32::MAX - u32::try_from(self.releases).expect("release count fits in 32 bits")
            }
            Allocation::MinWrite => {
                u32::try_from(self.writes[i]).expect("a pooled cell's write count fits in 32 bits")
            }
        };
        self.slot[i] = Slot::Free;
        self.pool.push(Reverse(pack(self.key[i], cell)));
    }

    /// Number of cells currently free (pooled or parked).
    pub fn free_len(&self) -> usize {
        self.slot.iter().filter(|&&s| s != Slot::Busy).count()
    }
}

/// A pool entry: `key` in the high 32 bits, `cell` in the low 32, so
/// the packed values order exactly as the `(key, cell)` pairs do.
fn pack(key: u32, cell: CellId) -> u64 {
    let cell = u32::try_from(cell.index()).expect("cell index fits in 32 bits");
    u64::from(key) << 32 | u64::from(cell)
}

/// The `(key, cell)` pair [`pack`] packed.
fn unpack(entry: u64) -> (u32, CellId) {
    ((entry >> 32) as u32, CellId::new(entry as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_n(m: &mut CellManager, c: CellId, n: u64) {
        for _ in 0..n {
            m.record_write(c);
        }
    }

    #[test]
    fn fresh_allocation_counts_cells() {
        let mut m = CellManager::new(Allocation::Lifo, None);
        let a = m.alloc(1);
        let b = m.alloc(1);
        assert_ne!(a, b);
        assert_eq!(m.num_cells(), 2);
        assert_eq!(m.writes_of(a), 0);
    }

    #[test]
    fn lifo_returns_most_recent() {
        let mut m = CellManager::new(Allocation::Lifo, None);
        let a = m.alloc(1);
        let b = m.alloc(1);
        m.release(a);
        m.release(b);
        assert_eq!(m.alloc(1), b, "LIFO pops the most recently freed");
        assert_eq!(m.alloc(1), a);
        assert_eq!(m.num_cells(), 2, "no fresh cell needed");
    }

    #[test]
    fn min_write_returns_least_worn() {
        let mut m = CellManager::new(Allocation::MinWrite, None);
        let a = m.alloc(1);
        let b = m.alloc(1);
        let c = m.alloc(1);
        write_n(&mut m, a, 5);
        write_n(&mut m, b, 1);
        write_n(&mut m, c, 3);
        m.release(a);
        m.release(b);
        m.release(c);
        assert_eq!(m.alloc(1), b, "least-worn first");
        assert_eq!(m.alloc(1), c);
        assert_eq!(m.alloc(1), a);
    }

    #[test]
    fn min_write_heap_handles_reuse() {
        let mut m = CellManager::new(Allocation::MinWrite, None);
        let a = m.alloc(1);
        m.release(a);
        let a2 = m.alloc(1);
        assert_eq!(a, a2);
        write_n(&mut m, a2, 4);
        m.release(a2);
        // The stale (count 0) entry must be skipped; a fresh cell with a
        // smaller count would win, but here only `a` exists.
        assert_eq!(m.alloc(1), a);
        assert_eq!(m.writes_of(a), 4);
    }

    #[test]
    fn budget_filters_pool_and_falls_back_to_fresh() {
        let mut m = CellManager::new(Allocation::MinWrite, Some(5));
        let a = m.alloc(1);
        write_n(&mut m, a, 4);
        m.release(a); // 4 writes, limit 5: only 1 left
        assert!(m.fits_budget(a, 1));
        assert!(!m.fits_budget(a, 2));
        let b = m.alloc(3); // needs 3 writes: a does not fit
        assert_ne!(a, b);
        let c = m.alloc(1); // a fits a single write
        assert_eq!(c, a);
    }

    #[test]
    fn retired_cells_never_return() {
        let mut m = CellManager::new(Allocation::MinWrite, Some(3));
        let a = m.alloc(3);
        write_n(&mut m, a, 3);
        m.release(a); // at the limit: retired
        assert_eq!(m.free_len(), 0);
        let b = m.alloc(1);
        assert_ne!(a, b);
    }

    #[test]
    fn lifo_with_budget_scans_down_the_stack() {
        let mut m = CellManager::new(Allocation::Lifo, Some(4));
        let a = m.alloc(1); // will have 1 write
        let b = m.alloc(1); // will have 3 writes
        write_n(&mut m, a, 1);
        write_n(&mut m, b, 3);
        m.release(a);
        m.release(b); // stack: [a, b], top = b
                      // budget 2: b (3+2>4) does not fit, a (1+2≤4) does.
        assert_eq!(m.alloc(2), a);
    }

    #[test]
    fn no_limit_means_everything_fits() {
        let mut m = CellManager::new(Allocation::Lifo, None);
        let a = m.alloc(1);
        write_n(&mut m, a, 1_000_000);
        assert!(m.fits_budget(a, u64::MAX / 2));
    }

    #[test]
    fn take_pins_a_specific_cell_and_pool_skips_its_stale_entry() {
        for allocation in [Allocation::Lifo, Allocation::MinWrite] {
            let mut m = CellManager::new(allocation, None);
            let a = m.alloc(1);
            let b = m.alloc(1);
            write_n(&mut m, a, 1);
            m.release(a);
            m.release(b);
            assert!(m.is_free(a) && m.is_free(b));
            // Pin `a` out of band; the pool must never hand it out again
            // even though its entry is still queued.
            m.take(a);
            assert!(!m.is_free(a));
            assert_eq!(m.alloc(1), b, "{allocation:?}");
            let fresh = m.alloc(1);
            assert_eq!(m.num_cells(), 3, "stale entry skipped, fresh cell");
            assert_ne!(fresh, a);
        }
    }

    #[test]
    fn take_then_release_keeps_the_pool_consistent() {
        for allocation in [Allocation::Lifo, Allocation::MinWrite] {
            let mut m = CellManager::new(allocation, None);
            let a = m.alloc(1);
            m.release(a);
            m.take(a);
            m.release(a); // back in the pool, duplicate entry behind it
            assert_eq!(m.alloc(1), a, "{allocation:?}");
            assert!(!m.is_free(a));
            let b = m.alloc(1);
            assert_ne!(b, a, "consumed duplicate must not resurrect a");
        }
    }

    #[test]
    fn try_alloc_avoiding_skips_protected_cells() {
        for allocation in [Allocation::Lifo, Allocation::MinWrite] {
            let mut m = CellManager::new(allocation, None);
            let a = m.alloc(1);
            let b = m.alloc(1);
            write_n(&mut m, a, 1);
            write_n(&mut m, b, 2);
            m.release(a);
            m.release(b);
            let got = m.try_alloc_avoiding(1, |c| c == a);
            assert_eq!(got, Some(b), "{allocation:?}");
            // Only the protected cell remains: no candidate at all.
            assert_eq!(m.try_alloc_avoiding(1, |c| c == a), None);
            // The protected cell is still free and allocatable normally.
            assert!(m.is_free(a));
            assert_eq!(m.alloc(1), a);
        }
    }

    #[test]
    fn try_alloc_avoiding_respects_budgets() {
        let mut m = CellManager::new(Allocation::MinWrite, Some(4));
        let a = m.alloc(1);
        write_n(&mut m, a, 3);
        m.release(a); // only 1 write left
        assert_eq!(m.try_alloc_avoiding(2, |_| false), None);
        assert_eq!(m.try_alloc_avoiding(1, |_| false), Some(a));
    }

    #[test]
    fn aggregate_and_budget_accessors() {
        let mut m = CellManager::new(Allocation::MinWrite, Some(10));
        let a = m.alloc(1);
        let b = m.alloc(1);
        write_n(&mut m, a, 3);
        write_n(&mut m, b, 7);
        assert_eq!(m.total_writes(), 10);
        assert_eq!(m.peak_writes(), 7);
        assert_eq!(m.remaining_budget(a), Some(7));
        assert_eq!(m.remaining_budget(b), Some(3));
        let unbounded = CellManager::new(Allocation::Lifo, None);
        assert_eq!(unbounded.peak_writes(), 0);
        let mut u = unbounded;
        let c = u.alloc(1);
        assert_eq!(u.remaining_budget(c), None);
    }

    /// Brute-force allocator: every pick scans all cells.
    struct Reference {
        writes: Vec<u64>,
        free: Vec<bool>,
        retired: Vec<bool>,
        released_at: Vec<u64>,
        releases: u64,
    }

    impl Reference {
        fn fits(&self, c: usize, budget: u64, max_writes: Option<u64>) -> bool {
            max_writes.is_none_or(|w| self.writes[c] + budget <= w)
        }

        /// Min `(writes, index)` (MinWrite) or latest-released (Lifo) over
        /// free, fitting, non-avoided cells.
        fn pick(&self, m: &CellManager, budget: u64, avoid: &[bool]) -> Option<usize> {
            let fitting = (0..self.writes.len())
                .filter(|&c| self.free[c] && !avoid[c] && self.fits(c, budget, m.max_writes));
            match m.allocation {
                Allocation::MinWrite => fitting.min_by_key(|&c| (self.writes[c], c)),
                Allocation::Lifo => fitting.max_by_key(|&c| self.released_at[c]),
            }
        }

        fn grow(&mut self) {
            self.writes.push(0);
            self.free.push(false);
            self.retired.push(false);
            self.released_at.push(0);
        }
    }

    #[test]
    fn parked_pool_matches_a_brute_force_scan() {
        use rand::{Rng, SeedableRng};
        for seed in 0..120u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let allocation = if seed % 2 == 0 {
                Allocation::MinWrite
            } else {
                Allocation::Lifo
            };
            let max_writes = (seed % 3 != 0).then(|| rng.gen_range(3..9));
            let mut m = CellManager::new(allocation, max_writes);
            let mut r = Reference {
                writes: Vec::new(),
                free: Vec::new(),
                retired: Vec::new(),
                released_at: Vec::new(),
                releases: 0,
            };
            let mut avoid: Vec<bool> = Vec::new();
            let choose = |ids: Vec<usize>, rng: &mut rand_chacha::ChaCha8Rng| {
                (!ids.is_empty()).then(|| ids[rng.gen_range(0..ids.len())])
            };
            for step in 0..400 {
                let n = r.writes.len();
                let ctx = format!("seed {seed} step {step} {allocation:?} {max_writes:?}");
                match rng.gen_range(0..8) {
                    0 | 1 => {
                        let budget = rng.gen_range(1..4);
                        let want = r.pick(&m, budget, &vec![false; n]);
                        let got = m.alloc(budget);
                        assert_eq!(Some(got.index()), want.or(Some(n)), "alloc {ctx}");
                        if got.index() == n {
                            r.grow();
                            avoid.push(false);
                        }
                        r.free[got.index()] = false;
                    }
                    2 | 3 => {
                        let budget = rng.gen_range(1..4);
                        let want = r.pick(&m, budget, &avoid);
                        let got = m.try_alloc_avoiding(budget, |c| avoid[c.index()]);
                        assert_eq!(got.map(CellId::index), want, "try_alloc_avoiding {ctx}");
                        if let Some(c) = want {
                            r.free[c] = false;
                        }
                    }
                    4 => {
                        let busy = (0..n).filter(|&c| !r.free[c] && !r.retired[c]).collect();
                        if let Some(c) = choose(busy, &mut rng) {
                            m.release(CellId::new(c as u32));
                            if r.fits(c, 1, max_writes) {
                                r.free[c] = true;
                                r.releases += 1;
                                r.released_at[c] = r.releases;
                            } else {
                                r.retired[c] = true;
                            }
                        }
                    }
                    5 => {
                        let writable = (0..n)
                            .filter(|&c| !r.free[c] && !r.retired[c] && r.fits(c, 1, max_writes))
                            .collect();
                        if let Some(c) = choose(writable, &mut rng) {
                            m.record_write(CellId::new(c as u32));
                            r.writes[c] += 1;
                        }
                    }
                    6 => {
                        let free = (0..n).filter(|&c| r.free[c]).collect();
                        if let Some(c) = choose(free, &mut rng) {
                            m.take(CellId::new(c as u32));
                            r.free[c] = false;
                        }
                    }
                    _ => {
                        // Change the avoid set; a cell leaving it is
                        // unparked, as the protocol requires.
                        if let Some(c) = choose((0..n).collect(), &mut rng) {
                            avoid[c] = !avoid[c];
                            if !avoid[c] {
                                m.unpark(CellId::new(c as u32));
                            }
                        }
                    }
                }
                for c in 0..r.writes.len() {
                    assert_eq!(m.is_free(CellId::new(c as u32)), r.free[c], "is_free {ctx}");
                }
                assert_eq!(m.free_len(), r.free.iter().filter(|&&f| f).count(), "{ctx}");
                assert_eq!(m.write_counts(), &r.writes[..], "{ctx}");
            }
        }
    }
}
