//! Structural views: levels, fanout, liveness and a CSR parent index,
//! computed together and reusable across graph rebuilds.
//!
//! The rewrite engine and the compiler's scheduler both need the same
//! derived structure — per-node levels, fanout counts, output-reachability
//! and a parent index. The original accessors on [`Mig`]
//! ([`Mig::levels`], [`Mig::fanout_counts`], [`Mig::live_mask`],
//! [`Mig::parents`]) each allocate fresh vectors per call, and
//! `parents()`'s `Vec<Vec<NodeId>>` costs one heap allocation per node.
//! [`StructuralView`] derives all four in two linear sweeps into flat,
//! reusable buffers; the parent index is CSR (offsets + one flat array)
//! and the live mask is a [`BitSet`].
//!
//! [`StructuralView::compute`] clears and refills an existing view, so
//! the allocator is touched only while the buffers grow toward the
//! high-water mark. A `rewrite()` call (up to 51 passes at the paper's
//! effort 5) computes the structure of each graph version once: the
//! version's read-only idle scans and the rebuild from it share that
//! view, so over the benchmark suite Algorithm 2 computes about 2.7 views
//! per call where it computed 8.5 before.

use crate::mig::Mig;
use crate::signal::NodeId;

/// A packed bitset over node indices.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all bits and resizes to `len` bits, keeping the allocation
    /// where possible.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Levels, fanout counts, live mask and CSR parent index of one graph,
/// derived together in two linear sweeps.
///
/// # Examples
///
/// ```
/// use rlim_mig::{Mig, StructuralView};
///
/// let mut mig = Mig::new(3);
/// let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
/// let m = mig.add_maj(a, b, c);
/// mig.add_output(m);
///
/// let view = StructuralView::of(&mig);
/// assert_eq!(view.level(m.node()), 1);
/// assert_eq!(view.fanout(a.node()), 1);
/// assert!(view.is_live(m.node()));
/// assert_eq!(view.parents_of(a.node()), [m.node()]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StructuralView {
    /// Per-node logic level (constants and inputs are 0).
    levels: Vec<u32>,
    /// Per-node fanout count, including primary-output references.
    fanout: Vec<u32>,
    /// Output-reachable nodes.
    live: BitSet,
    /// CSR offsets into `parents`: node `n`'s gate parents are
    /// `parents[offsets[n] .. offsets[n + 1]]`.
    offsets: Vec<u32>,
    /// Flat parent array, grouped by child node index.
    parents: Vec<NodeId>,
}

impl StructuralView {
    /// An empty view; fill it with [`StructuralView::compute`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the view of `mig` in fresh buffers.
    pub fn of(mig: &Mig) -> Self {
        let mut view = Self::new();
        view.compute(mig);
        view
    }

    /// Clears and refills this view from `mig`, reusing every buffer.
    pub fn compute(&mut self, mig: &Mig) {
        self.compute_impl(mig, true);
    }

    /// Like [`StructuralView::compute`] but derives only what the rewrite
    /// passes consume — fanout counts and liveness. Levels (three random
    /// reads per gate) and the CSR parent index (three random writes per
    /// gate) are skipped; [`StructuralView::level`] and
    /// [`StructuralView::parents_of`] must not be called on a view
    /// computed this way.
    pub fn compute_structure(&mut self, mig: &Mig) {
        self.compute_impl(mig, false);
    }

    fn compute_impl(&mut self, mig: &Mig, full: bool) {
        let n = mig.num_nodes();
        self.levels.clear();
        self.fanout.clear();
        self.fanout.resize(n, 0);
        self.live.reset(n);
        // offsets is used as a counting buffer first, then prefix-summed.
        self.offsets.clear();
        if full {
            self.levels.resize(n, 0);
            self.offsets.resize(n + 1, 0);
        }
        self.parents.clear();

        // Sweep 1 (forward): fanout counts (+ levels + parent counts).
        if full {
            for g in mig.gates() {
                let ch = mig.children(g);
                let mut level = 0;
                for s in ch {
                    let idx = s.node().index();
                    level = level.max(self.levels[idx]);
                    self.fanout[idx] += 1;
                    self.offsets[idx + 1] += 1;
                }
                self.levels[g.index()] = level + 1;
            }
        } else {
            for g in mig.gates() {
                for s in mig.children(g) {
                    self.fanout[s.node().index()] += 1;
                }
            }
        }
        for s in mig.outputs() {
            self.fanout[s.node().index()] += 1;
        }

        // Liveness: seed with the outputs, walk children backwards. Node
        // index order is topological, so one reverse sweep settles it.
        for s in mig.outputs() {
            self.live.set(s.node().index());
        }
        for idx in (mig.num_inputs() + 1..n).rev() {
            if self.live.get(idx) {
                for s in mig.children(NodeId::new(idx as u32)) {
                    self.live.set(s.node().index());
                }
            }
        }

        if !full {
            return;
        }

        // Prefix-sum the parent counts into CSR offsets.
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        let total = self.offsets[n] as usize;
        self.parents.resize(total, NodeId::CONST);

        // Sweep 2 (forward): scatter parents. `cursor` borrows the counting
        // trick: offsets[i] is bumped while filling, then shifted back.
        let mut cursor = std::mem::take(&mut self.offsets);
        for g in mig.gates() {
            for s in mig.children(g) {
                let idx = s.node().index();
                self.parents[cursor[idx] as usize] = g;
                cursor[idx] += 1;
            }
        }
        // cursor[i] now equals offsets[i + 1]; shift right to restore.
        for i in (1..=n).rev() {
            cursor[i] = cursor[i - 1];
        }
        cursor[0] = 0;
        self.offsets = cursor;
    }

    /// Logic level of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if the view was built with
    /// [`StructuralView::compute_structure`], which omits levels.
    #[inline]
    pub fn level(&self, n: NodeId) -> u32 {
        self.levels[n.index()]
    }

    /// Fanout count of node `n` (including primary-output references).
    #[inline]
    pub fn fanout(&self, n: NodeId) -> u32 {
        self.fanout[n.index()]
    }

    /// Whether node `n` is reachable from a primary output.
    #[inline]
    pub fn is_live(&self, n: NodeId) -> bool {
        self.live.get(n.index())
    }

    /// The live-node bitset.
    pub fn live_set(&self) -> &BitSet {
        &self.live
    }

    /// The gate parents of node `n` (excludes primary-output references,
    /// includes dead parents), in gate index order.
    ///
    /// # Panics
    ///
    /// Panics if the view was built with
    /// [`StructuralView::compute_structure`], which omits the parent index.
    #[inline]
    pub fn parents_of(&self, n: NodeId) -> &[NodeId] {
        assert!(
            !self.offsets.is_empty(),
            "view was computed without the parent index"
        );
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        &self.parents[lo..hi]
    }

    /// `(start, end)` bounds of node `n`'s parent slice — for callers that
    /// need to walk parents while mutating other state.
    ///
    /// # Panics
    ///
    /// Panics if the view was built with
    /// [`StructuralView::compute_structure`], which omits the parent index.
    #[inline]
    pub fn parent_bounds(&self, n: NodeId) -> (usize, usize) {
        assert!(
            !self.offsets.is_empty(),
            "view was computed without the parent index"
        );
        (
            self.offsets[n.index()] as usize,
            self.offsets[n.index() + 1] as usize,
        )
    }

    /// Parent at flat index `i` (see [`StructuralView::parent_bounds`]).
    #[inline]
    pub fn parent_at(&self, i: usize) -> NodeId {
        debug_assert!(
            !self.offsets.is_empty(),
            "view was computed without the parent index"
        );
        self.parents[i]
    }

    /// Maximum level over the primary outputs.
    ///
    /// # Panics
    ///
    /// Panics if the view was built with
    /// [`StructuralView::compute_structure`], which omits levels.
    pub fn depth(&self, mig: &Mig) -> u32 {
        assert!(
            self.levels.len() == mig.num_nodes(),
            "view was computed without levels (or for a different graph)"
        );
        mig.outputs()
            .iter()
            .map(|s| self.levels[s.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Initial pending-use counts per node, the uses a compiler waits for
    /// before it frees a node's cell: one per non-constant child edge of a
    /// live gate plus one per primary-output reference (never consumed, so
    /// an output's cell stays pinned). Both the RM3 and the IMPLY
    /// compilers start from these counts. Needs only liveness, so a view
    /// from either [`StructuralView::compute`] or
    /// [`StructuralView::compute_structure`] serves.
    pub fn pending_uses(&self, mig: &Mig) -> Vec<u32> {
        let mut pending = vec![0u32; mig.num_nodes()];
        for g in mig.gates() {
            if !self.is_live(g) {
                continue;
            }
            for s in mig.children(g) {
                if !s.is_constant() {
                    pending[s.node().index()] += 1;
                }
            }
        }
        for s in mig.outputs() {
            if !s.is_constant() {
                pending[s.node().index()] += 1;
            }
        }
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::tests::random_mig;
    use crate::Signal;

    /// The view must agree exactly with the original per-call accessors on
    /// random graphs — they are the reference implementation.
    #[test]
    fn agrees_with_reference_accessors_on_random_migs() {
        for seed in 0..12 {
            let mig = random_mig(seed, 9, 250, 7);
            let view = StructuralView::of(&mig);

            let levels = mig.levels();
            let fanout = mig.fanout_counts();
            let live = mig.live_mask();
            let parents = mig.parents();
            for n in mig.node_ids() {
                assert_eq!(view.level(n), levels[n.index()], "level of {n}");
                assert_eq!(view.fanout(n), fanout[n.index()], "fanout of {n}");
                assert_eq!(view.is_live(n), live[n.index()], "liveness of {n}");
                assert_eq!(
                    view.parents_of(n),
                    &parents[n.index()][..],
                    "parents of {n}"
                );
            }
            assert_eq!(view.depth(&mig), mig.depth(), "depth");
            assert_eq!(
                view.live_set().count_ones(),
                live.iter().filter(|&&l| l).count()
            );
        }
    }

    #[test]
    fn compute_reuses_buffers_across_graphs() {
        let big = random_mig(1, 10, 400, 8);
        let small = random_mig(2, 4, 30, 3);
        let mut view = StructuralView::of(&big);
        view.compute(&small);
        let live = small.live_mask();
        let parents = small.parents();
        for n in small.node_ids() {
            assert_eq!(view.is_live(n), live[n.index()]);
            assert_eq!(view.parents_of(n), &parents[n.index()][..]);
        }
        assert_eq!(view.live_set().len(), small.num_nodes());
    }

    #[test]
    fn pending_uses_count_live_edges_and_outputs() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g = mig.add_maj(a, !b, Signal::TRUE);
        let dead = mig.add_maj(g, b, c);
        let top = mig.add_maj(g, a, c);
        mig.add_output(top);
        mig.add_output(!g);
        mig.add_output(Signal::FALSE);
        let view = StructuralView::of(&mig);
        assert!(!view.is_live(dead.node()));
        let pending = view.pending_uses(&mig);
        // The constant child and the constant output count nothing; the
        // dead gate's edges into g, b and c count nothing either.
        assert_eq!(pending[0], 0);
        assert_eq!(pending[a.node().index()], 2);
        assert_eq!(pending[b.node().index()], 1);
        assert_eq!(pending[c.node().index()], 1);
        assert_eq!(pending[g.node().index()], 2);
        assert_eq!(pending[dead.node().index()], 0);
        assert_eq!(pending[top.node().index()], 1);
    }

    #[test]
    fn pending_uses_agree_between_full_and_structure_views() {
        for seed in 0..6 {
            let mig = random_mig(seed, 8, 200, 6);
            let mut structure = StructuralView::new();
            structure.compute_structure(&mig);
            assert_eq!(
                structure.pending_uses(&mig),
                StructuralView::of(&mig).pending_uses(&mig)
            );
        }
    }

    #[test]
    fn bitset_set_get_count() {
        let mut b = BitSet::new();
        b.reset(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        for i in 0..130 {
            assert_eq!(b.get(i), [0, 63, 64, 129].contains(&i), "bit {i}");
        }
        assert_eq!(b.count_ones(), 4);
        b.reset(10);
        assert_eq!(b.count_ones(), 0);
    }
}
