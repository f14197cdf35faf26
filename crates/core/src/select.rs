//! Node selection: which computable MIG node is translated next.
//!
//! A node is *computable* once all of its gate children have been computed.
//! The order in which computable candidates are picked decides how long
//! values sit in their cells ("blocked RRAMs", paper Fig. 2) and how many
//! cells can be recycled:
//!
//! * [`Selection::AreaAware`] (DAC'16 compiler): most releasing RRAMs first,
//!   tie-break on the smaller fanout level index.
//! * [`Selection::EnduranceAware`] (paper Algorithm 3): smallest fanout
//!   level index first (shortest storage duration), tie-break on more
//!   releasing RRAMs.
//! * [`Selection::Topological`]: plain creation order (the naive baseline).
//!
//! Each policy is a key function, [`Selection::key`], that packs a
//! [`Candidate`] into one integer; every policy breaks its last tie on the
//! smaller node index, so the largest key among the computable nodes is
//! the next node. The queue is a max-heap of bare keys (the node index is
//! recovered from the key's low bits). A candidate's key only ever rises:
//! its fanout level is fixed, and its releasing count grows as children
//! reach their last pending use. (A child's count drops from 1 to 0 only
//! when its one remaining user is computed; `Mig::add_maj` never stores a
//! gate with a repeated child.) So the queue re-inserts a node whenever
//! its key rises and skips the outdated entries, which pop after the
//! current one, once the node is computed. Under `Topological` the key is
//! the index alone, so the order is the live gates in index order and no
//! queue is built.

use std::collections::BinaryHeap;

use rlim_mig::{Mig, NodeId, StructuralView};

use crate::options::Selection;

/// A computable node as the selection policies see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Children at their last pending use: the cells computing the node
    /// frees ("releasing RRAMs").
    pub releasing: u32,
    /// The smallest level among the node's live gate parents, `u32::MAX`
    /// for a node that only feeds primary outputs.
    pub fanout_level: u32,
    /// The node index, the last tie-break (smaller first).
    pub index: u32,
}

impl Selection {
    /// The priority of `candidate` under this policy: among computable
    /// nodes, the one with the largest key is translated next.
    ///
    /// The key packs each field into its own 32-bit lane of a `u128`
    /// (inverted where smaller is better), so no field value can overflow
    /// into another or be truncated, and distinct indices give distinct
    /// keys.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlim_compiler::{Candidate, Selection};
    ///
    /// let near = Candidate { releasing: 0, fanout_level: 2, index: 9 };
    /// let freeing = Candidate { releasing: 2, fanout_level: 5, index: 7 };
    /// let ea = Selection::EnduranceAware;
    /// let area = Selection::AreaAware;
    /// assert!(ea.key(near) > ea.key(freeing), "shortest storage first");
    /// assert!(area.key(freeing) > area.key(near), "most releasing first");
    /// ```
    pub fn key(self, candidate: Candidate) -> u128 {
        let releasing = u128::from(candidate.releasing);
        let near = u128::from(!candidate.fanout_level);
        let first = u128::from(!candidate.index);
        match self {
            Selection::AreaAware => releasing << 64 | near << 32 | first,
            Selection::EnduranceAware => near << 64 | releasing << 32 | first,
            Selection::Topological => first,
        }
    }
}

/// The translation order of the live gates of `mig` under `selection`.
///
/// `view` must be a full view of `mig` (levels and parent index) unless
/// `selection` is `Topological`, which reads only liveness; `pending` must
/// hold the initial pending-use counts. After a node is picked, each
/// non-constant child loses one pending use (refreshing the releasing
/// counts of candidates) before the node's parents are unlocked, the same
/// interleaving the translator performs.
pub(crate) fn schedule(
    mig: &Mig,
    selection: Selection,
    view: &StructuralView,
    pending: &[u32],
) -> Vec<NodeId> {
    if selection == Selection::Topological {
        return mig.gates().filter(|&g| view.is_live(g)).collect();
    }
    let mut scheduler = Scheduler::new(mig, selection, view, pending.to_vec());
    let mut order = Vec::with_capacity(view.live_set().count_ones());
    while let Some(n) = scheduler.pop() {
        order.push(n);
        scheduler.after_compute(n);
    }
    order
}

/// The priority queue behind [`schedule`] for the keyed policies.
struct Scheduler<'a> {
    mig: &'a Mig,
    selection: Selection,
    /// Levels, liveness and CSR parent index of `mig`; dead parents stay
    /// in the index and are skipped on walk.
    view: &'a StructuralView,
    /// Pending uses per node, consumed as nodes are computed.
    pending: Vec<u32>,
    /// [`Candidate::fanout_level`] per live gate.
    fanout_level: Vec<u32>,
    /// Uncomputed gate-children per live gate.
    deps: Vec<u32>,
    computed: Vec<bool>,
    /// Keys of the computable nodes, outdated ones included.
    ready: BinaryHeap<u128>,
}

impl<'a> Scheduler<'a> {
    fn new(
        mig: &'a Mig,
        selection: Selection,
        view: &'a StructuralView,
        pending: Vec<u32>,
    ) -> Self {
        let n = mig.num_nodes();
        let mut fanout_level = vec![u32::MAX; n];
        let mut deps = vec![0u32; n];
        // One sweep over the live gates' child edges. Dead gates are never
        // computed, so they don't constrain the fanout level.
        for g in mig.gates().filter(|&g| view.is_live(g)) {
            let level = view.level(g);
            for s in mig.children(g) {
                let child = s.node();
                if mig.is_gate(child) {
                    fanout_level[child.index()] = fanout_level[child.index()].min(level);
                    deps[g.index()] += 1;
                }
            }
        }
        let mut scheduler = Scheduler {
            mig,
            selection,
            view,
            pending,
            fanout_level,
            deps,
            computed: vec![false; n],
            ready: BinaryHeap::new(),
        };
        for g in mig.gates() {
            if view.is_live(g) && scheduler.deps[g.index()] == 0 {
                scheduler.push(g);
            }
        }
        scheduler
    }

    fn key(&self, n: NodeId) -> u128 {
        let releasing = self
            .mig
            .children(n)
            .iter()
            .filter(|s| !s.is_constant() && self.pending[s.node().index()] == 1)
            .count() as u32;
        self.selection.key(Candidate {
            releasing,
            fanout_level: self.fanout_level[n.index()],
            index: n.raw(),
        })
    }

    fn push(&mut self, n: NodeId) {
        let key = self.key(n);
        self.ready.push(key);
    }

    /// Pops the next node to compute and marks it computed.
    fn pop(&mut self) -> Option<NodeId> {
        while let Some(key) = self.ready.pop() {
            // The low lane of every key is the inverted index.
            let n = NodeId::new(!(key as u32));
            if self.computed[n.index()] {
                continue;
            }
            debug_assert_eq!(
                key,
                self.key(n),
                "keys only rise, so the newest entry pops first"
            );
            self.computed[n.index()] = true;
            return Some(n);
        }
        None
    }

    /// Consumes `n`'s pending child uses, re-inserting the computable
    /// parents of children that reach their last use, then unlocks `n`'s
    /// parents one dependency at a time.
    fn after_compute(&mut self, n: NodeId) {
        for s in self.mig.children(n) {
            if s.is_constant() {
                continue;
            }
            let child = s.node();
            self.pending[child.index()] -= 1;
            if self.pending[child.index()] == 1 {
                self.for_live_parents(child, |sched, p| {
                    if !sched.computed[p.index()] && sched.deps[p.index()] == 0 {
                        sched.push(p);
                    }
                });
            }
        }
        self.for_live_parents(n, |sched, p| {
            sched.deps[p.index()] -= 1;
            if sched.deps[p.index()] == 0 {
                sched.push(p);
            }
        });
    }

    fn for_live_parents(&mut self, n: NodeId, mut f: impl FnMut(&mut Self, NodeId)) {
        let view = self.view;
        let (lo, hi) = view.parent_bounds(n);
        for i in lo..hi {
            let p = view.parent_at(i);
            if view.is_live(p) {
                f(self, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_mig::Signal;

    /// Builds the paper's Fig. 2 shape: node A feeds a distant level while
    /// B, C feed the very next one.
    fn fig2_like() -> Mig {
        let mut mig = Mig::new(6);
        let s: Vec<Signal> = mig.inputs().collect();
        let a = mig.add_maj(s[0], s[1], s[2]); // long-lived
        let b = mig.add_maj(s[1], s[2], s[3]);
        let c = mig.add_maj(s[3], s[4], s[5]);
        let d = mig.add_maj(b, s[0], s[4]);
        let e = mig.add_maj(c, s[1], s[5]);
        let f = mig.add_maj(d, e, s[2]);
        let g = mig.add_maj(a, f, s[3]);
        mig.add_output(g);
        mig
    }

    fn drain(mig: &Mig, selection: Selection) -> Vec<NodeId> {
        let view = StructuralView::of(mig);
        let pending = crate::pipeline::initial_fanout(mig, &view);
        schedule(mig, selection, &view, &pending)
    }

    #[test]
    fn all_live_gates_scheduled_exactly_once() {
        let mig = fig2_like();
        for sel in [
            Selection::Topological,
            Selection::AreaAware,
            Selection::EnduranceAware,
        ] {
            let order = drain(&mig, sel);
            assert_eq!(order.len(), mig.num_live_gates(), "{sel:?}");
            let mut seen = std::collections::HashSet::new();
            for n in &order {
                assert!(seen.insert(*n), "{sel:?} scheduled {n} twice");
            }
        }
    }

    #[test]
    fn children_always_precede_parents() {
        let mig = fig2_like();
        for sel in [
            Selection::Topological,
            Selection::AreaAware,
            Selection::EnduranceAware,
        ] {
            let order = drain(&mig, sel);
            let pos: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
            for &n in &order {
                for ch in mig.children(n) {
                    if mig.is_gate(ch.node()) {
                        assert!(
                            pos[&ch.node()] < pos[&n],
                            "{sel:?}: child {} after parent {}",
                            ch.node(),
                            n
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn endurance_aware_postpones_long_lived_node() {
        // Node A (first gate) feeds only the root, far away; B and C feed
        // the next level. Algorithm 3 computes B and C before A.
        let mig = fig2_like();
        let order = drain(&mig, Selection::EnduranceAware);
        let first_gate_idx = mig.num_inputs() + 1;
        let a = NodeId::new(first_gate_idx as u32);
        let b = NodeId::new(first_gate_idx as u32 + 1);
        let c = NodeId::new(first_gate_idx as u32 + 2);
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        assert!(pos[&b] < pos[&a], "B must be computed before blocked A");
        assert!(pos[&c] < pos[&a], "C must be computed before blocked A");
    }

    #[test]
    fn topological_is_index_order() {
        let mig = fig2_like();
        let order = drain(&mig, Selection::Topological);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn dead_gates_not_scheduled() {
        let mut mig = Mig::new(3);
        let s: Vec<Signal> = mig.inputs().collect();
        let g1 = mig.add_maj(s[0], s[1], s[2]);
        let _dead = mig.add_maj(!s[0], s[1], s[2]);
        mig.add_output(g1);
        for sel in [
            Selection::Topological,
            Selection::AreaAware,
            Selection::EnduranceAware,
        ] {
            let order = drain(&mig, sel);
            assert_eq!(order.len(), 1, "{sel:?}");
            assert_eq!(order[0], g1.node());
        }
    }

    #[test]
    fn keys_keep_every_lane_at_the_extremes() {
        let policies = [
            Selection::Topological,
            Selection::AreaAware,
            Selection::EnduranceAware,
        ];
        let edges = [0, 1, u32::MAX - 1, u32::MAX];
        for sel in policies {
            for r in edges {
                for fl in edges {
                    for i in edges {
                        let c = Candidate {
                            releasing: r,
                            fanout_level: fl,
                            index: i,
                        };
                        let key = sel.key(c);
                        assert_eq!(!(key as u32), i, "{sel:?}: index lane");
                        let upper = key >> 32;
                        match sel {
                            Selection::Topological => assert_eq!(upper, 0),
                            Selection::AreaAware => {
                                assert_eq!(upper, u128::from(r) << 32 | u128::from(!fl))
                            }
                            Selection::EnduranceAware => {
                                assert_eq!(upper, u128::from(!fl) << 32 | u128::from(r))
                            }
                        }
                    }
                }
            }
        }
        // The field order decides before the next field is read, even at
        // the lane boundaries.
        let c = |releasing, fanout_level, index| Candidate {
            releasing,
            fanout_level,
            index,
        };
        let area = Selection::AreaAware;
        assert!(area.key(c(1, u32::MAX, u32::MAX)) > area.key(c(0, 0, 0)));
        assert!(area.key(c(u32::MAX, 0, 0)) > area.key(c(u32::MAX - 1, 0, 0)));
        let ea = Selection::EnduranceAware;
        assert!(ea.key(c(0, u32::MAX - 1, u32::MAX)) > ea.key(c(u32::MAX, u32::MAX, 0)));
        assert!(ea.key(c(0, 0, 0)) > ea.key(c(0, 0, 1)));
        assert!(
            Selection::Topological.key(c(0, 0, u32::MAX - 1))
                > Selection::Topological.key(c(u32::MAX, 0, u32::MAX))
        );
    }
}
