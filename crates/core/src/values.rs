//! Whole-program abstract value tracking: which cells currently hold
//! which literal, constant or complement.
//!
//! This module is the shared analysis behind two optimisations:
//!
//! * the **peephole pass** (`crate::peephole`) walks an *emitted*
//!   program and elides writes whose destination provably already holds
//!   the written value;
//! * the **copy-reuse translator** (`crate::translate`, enabled by
//!   `CompileOptions::with_copy_reuse`) consults the same abstraction
//!   *while allocating*, reading values that already live somewhere in
//!   the array instead of re-materialising them — register-allocation
//!   style copy discovery.
//!
//! The abstraction is deliberately conservative. Value ids are allocated
//! in complement pairs — `v ^ 1` is always the inverse of `v`, with
//! [`FALSE`]` = 0` and [`TRUE`]` = 1` seeding the constant pair — so a
//! complemented operand lookup is one xor away. Equal ids imply equal
//! concrete values; unequal ids imply nothing. Crucially, cells start as
//! opaque unknowns, **not** as zeros: a fleet re-dispatches programs onto
//! arrays still holding a previous job's values, so no analysis in this
//! module can ever be satisfied by residue the program did not write
//! itself.

use rlim_plim::{Instruction, Operand};
use rlim_rram::CellId;

/// Abstract value id. Ids are allocated in complement pairs: `v ^ 1` is
/// always the inverse of `v`, with [`FALSE`] and [`TRUE`] seeding the
/// constant pair. Equal ids imply equal concrete values; unequal ids
/// imply nothing.
pub type ValueId = u64;

/// The id of constant logic 0.
pub const FALSE: ValueId = 0;
/// The id of constant logic 1 (the complement of [`FALSE`]).
pub const TRUE: ValueId = 1;

/// Abstract value per cell, with a fresh-unknown allocator.
///
/// Construct with [`Values::new`] for a fixed-size program walk (the
/// peephole) or [`Values::empty`] for a translator that creates cells on
/// the fly (grow with [`Values::ensure_cell`]).
#[derive(Debug, Clone)]
pub struct Values {
    /// Abstract value per cell.
    cell: Vec<ValueId>,
    next: ValueId,
}

impl Values {
    /// A tracker over `num_cells` cells, each starting as its own opaque
    /// unknown (ids 2, 4, 6, … — never a constant, never each other).
    pub fn new(num_cells: usize) -> Self {
        let cell: Vec<ValueId> = (0..num_cells as u64).map(|i| 2 + 2 * i).collect();
        let next = 2 + 2 * num_cells as u64;
        Values { cell, next }
    }

    /// A tracker with no cells yet (see [`Values::ensure_cell`]).
    pub fn empty() -> Self {
        Values::new(0)
    }

    /// Grows the table so `cell` is tracked; newly covered cells are
    /// seeded as opaque unknowns, exactly like [`Values::new`] seeds them.
    pub fn ensure_cell(&mut self, cell: CellId) {
        while self.cell.len() <= cell.index() {
            let id = self.fresh();
            self.cell.push(id);
        }
    }

    /// A brand-new unknown (even id; its complement is `id ^ 1`).
    pub fn fresh(&mut self) -> ValueId {
        let id = self.next;
        self.next += 2;
        id
    }

    /// The value an operand reads right now.
    ///
    /// # Panics
    ///
    /// Panics if a cell operand is not tracked yet (see
    /// [`Values::ensure_cell`]).
    pub fn of(&self, op: Operand) -> ValueId {
        match op {
            Operand::Const(false) => FALSE,
            Operand::Const(true) => TRUE,
            Operand::Cell(c) => self.cell[c.index()],
        }
    }

    /// The value `cell` currently holds, or `None` if the cell is not
    /// tracked.
    pub fn get(&self, cell: CellId) -> Option<ValueId> {
        self.cell.get(cell.index()).copied()
    }

    /// Records that `cell` now holds `value`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not tracked yet.
    pub fn set(&mut self, cell: CellId, value: ValueId) {
        self.cell[cell.index()] = value;
    }

    /// Abstract result of `z ← ⟨p, q̄, z⟩` given the operand values.
    /// Returns a known id when the majority collapses, a fresh unknown
    /// otherwise. Does **not** update the destination — callers decide
    /// whether the write happens.
    pub fn rm3_result(&mut self, inst: &Instruction) -> ValueId {
        let p = self.of(inst.p);
        let q = self.of(inst.q);
        let z = self.cell[inst.z.index()];
        let q_inv = q ^ 1; // value actually fed into the majority
        if p == q_inv {
            // ⟨x, x, z⟩ = x (covers set0/set1: ⟨b, b, z⟩ = b).
            p
        } else if p == z {
            // ⟨x, q̄, x⟩ = x.
            p
        } else if q_inv == z {
            // ⟨p, x, x⟩ = x.
            z
        } else if p == q {
            // q̄ = p̄: ⟨x, x̄, z⟩ = z — a write of the old value.
            z
        } else if z == FALSE {
            // ⟨p, q̄, 0⟩ = p ∧ q̄.
            match (p, q) {
                (_, FALSE) => p, // p ∧ 1 = p
                (FALSE, _) | (_, TRUE) => FALSE,
                _ => self.fresh(),
            }
        } else if z == TRUE {
            // ⟨p, q̄, 1⟩ = p ∨ q̄.
            match (p, q) {
                (_, TRUE) => p, // p ∨ 0 = p
                (TRUE, _) | (_, FALSE) => TRUE,
                (FALSE, _) => q ^ 1, // 0 ∨ q̄ = q̄
                _ => self.fresh(),
            }
        } else {
            self.fresh()
        }
    }
}

/// The result a `set; load` chain into `chain[0].z` computes, when the
/// two instructions form the translator's `copy` / `copy_inv` recipe.
pub fn chain_result(first: &Instruction, second: &Instruction, values: &Values) -> Option<ValueId> {
    if first.z != second.z {
        return None;
    }
    match (first.p, first.q, second.p, second.q) {
        // copy: set0(c); RM3(s, 0, c) = value(s).
        (Operand::Const(false), Operand::Const(true), Operand::Cell(s), Operand::Const(false))
            if s != first.z =>
        {
            Some(values.cell[s.index()])
        }
        // copy_inv: set1(c); RM3(0, s, c) = !value(s).
        (Operand::Const(true), Operand::Const(false), Operand::Const(false), Operand::Cell(s))
            if s != first.z =>
        {
            Some(values.cell[s.index()] ^ 1)
        }
        _ => None,
    }
}

/// A reverse index from value id to the cells currently holding it.
///
/// One intrusive doubly linked list per value: `head`/`tail` are indexed
/// by value id (ids are dense, see [`Values::fresh`]) and the `next`/`prev`
/// links by cell, so each cell sits in exactly one list, the one of the
/// value it was last noted with. [`Holders::note`] moves the cell from its
/// old value's list to the back of the new one, which keeps every list
/// ordered by last note and free of stale entries — provided every change
/// of a cell's value is noted, as the copy-reuse translator does for each
/// write and each preloaded input.
#[derive(Debug, Clone, Default)]
pub struct Holders {
    /// First and last cell of each value's list, indexed by value id.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// List links, indexed by cell.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The value each cell was last noted with, indexed by cell.
    held: Vec<Option<ValueId>>,
}

/// The end of a list, in both directions.
const NIL: u32 = u32::MAX;

/// `value` as an index into tables indexed by value id.
pub(crate) fn value_index(value: ValueId) -> usize {
    usize::try_from(value).expect("value id fits usize")
}

impl Holders {
    /// An empty index.
    pub fn new() -> Self {
        Holders::default()
    }

    /// Records that `cell` now holds `value`: the cell leaves the list of
    /// the value it held before and joins the back of `value`'s list.
    /// Constants are indexed like any other value, so `FALSE`/`TRUE`
    /// holders are discoverable too.
    pub fn note(&mut self, value: ValueId, cell: CellId) {
        let c = cell.index();
        let at = c as u32; // lossless: cell ids are u32
        if c >= self.held.len() {
            self.next.resize(c + 1, NIL);
            self.prev.resize(c + 1, NIL);
            self.held.resize(c + 1, None);
        }
        if let Some(old) = self.held[c] {
            let (p, n) = (self.prev[c], self.next[c]);
            match p {
                NIL => self.head[value_index(old)] = n,
                p => self.next[p as usize] = n,
            }
            match n {
                NIL => self.tail[value_index(old)] = p,
                n => self.prev[n as usize] = p,
            }
        }
        let v = value_index(value);
        if v >= self.head.len() {
            self.head.resize(v + 1, NIL);
            self.tail.resize(v + 1, NIL);
        }
        let last = self.tail[v];
        match last {
            NIL => self.head[v] = at,
            last => self.next[last as usize] = at,
        }
        self.prev[c] = last;
        self.next[c] = NIL;
        self.tail[v] = at;
        self.held[c] = Some(value);
    }

    /// The cells holding `value`, in the order they were noted with it.
    pub fn cells(&self, value: ValueId) -> impl Iterator<Item = CellId> + '_ {
        let mut at = self.head.get(value_index(value)).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let cell = CellId::new(at);
                at = self.next[at as usize];
                cell
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn cells_start_opaque_and_distinct() {
        let v = Values::new(3);
        let ids: Vec<ValueId> = (0..3).map(|i| v.get(c(i)).unwrap()).collect();
        assert_eq!(ids, vec![2, 4, 6]);
        assert!(ids.iter().all(|&id| id != FALSE && id != TRUE));
    }

    #[test]
    fn ensure_cell_matches_eager_seeding() {
        let mut lazy = Values::empty();
        lazy.ensure_cell(c(2));
        let eager = Values::new(3);
        for i in 0..3 {
            assert_eq!(lazy.get(c(i)), eager.get(c(i)));
        }
        assert_eq!(lazy.get(c(3)), None);
    }

    #[test]
    fn complement_pairs_are_one_xor_away() {
        let mut v = Values::new(1);
        let id = v.fresh();
        assert_eq!(id % 2, 0, "fresh ids are the even half of a pair");
        assert_eq!(TRUE, FALSE ^ 1);
        assert_ne!(id, id ^ 1);
    }

    #[test]
    fn rm3_result_tracks_set_recipes() {
        let mut v = Values::new(2);
        assert_eq!(v.rm3_result(&set0(c(1))), FALSE);
        let set1 = Instruction {
            p: Operand::Const(true),
            q: Operand::Const(false),
            z: c(1),
        };
        assert_eq!(v.rm3_result(&set1), TRUE);
    }

    #[test]
    fn holders_follow_overwrites() {
        let mut holders = Holders::new();
        holders.note(FALSE, c(0));
        assert_eq!(holders.cells(FALSE).next(), Some(c(0)));

        // Overwrite the holder: it leaves the old value's list at once.
        holders.note(TRUE, c(0));
        assert_eq!(holders.cells(FALSE).next(), None);
        assert_eq!(holders.cells(TRUE).next(), Some(c(0)));
    }

    #[test]
    fn holders_keep_last_note_order() {
        let mut holders = Holders::new();
        for i in 0..4 {
            holders.note(TRUE, c(i));
        }
        assert_eq!(
            holders.cells(TRUE).collect::<Vec<_>>(),
            [c(0), c(1), c(2), c(3)]
        );

        // Unlink from the front, the middle and the back; a re-note moves
        // a cell to the back.
        holders.note(FALSE, c(0));
        holders.note(FALSE, c(2));
        holders.note(TRUE, c(1));
        holders.note(FALSE, c(3));
        holders.note(TRUE, c(3));
        assert_eq!(holders.cells(TRUE).collect::<Vec<_>>(), [c(1), c(3)]);
        assert_eq!(holders.cells(FALSE).collect::<Vec<_>>(), [c(0), c(2)]);
        assert_eq!(holders.cells(7).count(), 0, "never-noted value");
    }

    #[test]
    fn chain_result_recognises_copy_recipes() {
        let values = Values::new(3);
        let src = values.get(c(0)).unwrap();
        let copy_load = Instruction {
            p: Operand::Cell(c(0)),
            q: Operand::Const(false),
            z: c(1),
        };
        assert_eq!(chain_result(&set0(c(1)), &copy_load, &values), Some(src));

        let set1 = Instruction {
            p: Operand::Const(true),
            q: Operand::Const(false),
            z: c(1),
        };
        let inv_load = Instruction {
            p: Operand::Const(false),
            q: Operand::Cell(c(0)),
            z: c(1),
        };
        assert_eq!(chain_result(&set1, &inv_load, &values), Some(src ^ 1));
        // Mismatched destinations are not a chain.
        assert_eq!(chain_result(&set0(c(2)), &copy_load, &values), None);
    }
}
