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
//! the next node. Under `Topological` the key is the index alone, so the
//! order is the live gates in index order and no queue is built.
//!
//! [`schedule`] derives everything it reads in its own sweeps: a reverse
//! sweep for liveness and pending-use counts, and a forward sweep over the
//! live gates for levels, fanout levels, dependency counts and the initial
//! releasing counts, which also scatters a CSR index of the *live* parents
//! (so the selection loop never tests liveness).
//!
//! A candidate's key only ever rises: its fanout level is fixed, and its
//! releasing count grows as children reach their last pending use. (A
//! child's count drops from 1 to 0 only when its one remaining user is
//! computed; `Mig::add_maj` never stores a gate with a repeated child.) So
//! releasing counts are kept incrementally: when a child drops to one
//! pending use, its one uncomputed parent gains one. Each keyed policy
//! buckets the computable nodes on its key's leading field and orders a
//! bucket by the key's low 64 bits in a max-heap of bare keys (the node
//! index is recovered from the low lane). A node is pushed again when its
//! key rises, and its outdated entries, which pop after the new one, are
//! skipped once it is computed.
//!
//! * Endurance-aware, a monotone bucket queue over fanout levels: a parent
//!   unlocked by a node of fanout level L has a fanout level above L (its
//!   own level is at least L, and its parents' levels exceed its own), so
//!   the smallest fanout level among computable nodes never falls.
//!   Computable nodes wait in intrusive per-level lists and enter the
//!   `(releasing, index)` heap only when the cursor reaches their level.
//! * Area-aware: four releasing classes (a gate has three children), each
//!   a heap of `(fanout level, index)` keys.

use std::collections::BinaryHeap;

use rlim_mig::{Mig, NodeId};

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

/// The translation order of the live gates of `mig` under `selection`,
/// with the initial pending-use counts per node: one per non-constant
/// child edge of a live gate plus one per primary-output reference.
///
/// After a node is picked, each non-constant child loses one pending use
/// (refreshing the releasing counts of candidates) before the node's
/// parents are unlocked, the same interleaving the translator performs.
pub(crate) fn schedule(mig: &Mig, selection: Selection) -> (Vec<NodeId>, Vec<u32>) {
    let n = mig.num_nodes();
    let gates = mig.num_inputs() + 1..n;
    // Reverse sweep: liveness, and per node its non-constant edges from
    // live gates (its live parents). Index order is topological, so a
    // gate's liveness is settled when the sweep reaches it.
    let mut live = vec![false; n];
    let mut pending = vec![0u32; n];
    let mut live_gates = 0;
    for s in mig.outputs() {
        live[s.node().index()] = true;
    }
    for g in gates.clone().rev() {
        if live[g] {
            live_gates += 1;
            for s in mig.children(NodeId::new(g as u32)) {
                live[s.node().index()] = true;
                if !s.is_constant() {
                    pending[s.node().index()] += 1;
                }
            }
        }
    }
    let add_output_uses = |pending: &mut [u32]| {
        for s in mig.outputs().iter().filter(|s| !s.is_constant()) {
            pending[s.node().index()] += 1;
        }
    };
    if selection == Selection::Topological {
        add_output_uses(&mut pending);
        let mut order = Vec::with_capacity(live_gates);
        order.extend(gates.filter(|&g| live[g]).map(|g| NodeId::new(g as u32)));
        return (order, pending);
    }
    // Inclusive prefix sums of the live-parent counts: the scatter counts
    // each node's entry down to its first slot.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut total = 0;
    for &count in &pending {
        total += count;
        offsets.push(total);
    }
    offsets.push(total);
    add_output_uses(&mut pending);
    let mut scheduler = Scheduler {
        mig,
        selection,
        pending: pending.clone(),
        offsets,
        parents: vec![0; total as usize],
        fanout_level: vec![u32::MAX; n],
        deps: vec![0; n],
        releasing: vec![0; n],
        computed: vec![false; n],
    };
    let (ready, max_level) = scheduler.sweep(&live);
    let order = if selection == Selection::EnduranceAware {
        scheduler.run(LevelBuckets::new(n, max_level), ready, live_gates)
    } else {
        scheduler.run(ReleasingClasses::default(), ready, live_gates)
    };
    (order, pending)
}

/// The state behind [`schedule`] for the keyed policies, indexed by node.
struct Scheduler<'a> {
    mig: &'a Mig,
    selection: Selection,
    /// Pending uses, consumed as nodes are computed.
    pending: Vec<u32>,
    /// CSR offsets: node `c`'s live parents are
    /// `parents[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    parents: Vec<u32>,
    /// [`Candidate::fanout_level`].
    fanout_level: Vec<u32>,
    /// Uncomputed gate children.
    deps: Vec<u8>,
    /// [`Candidate::releasing`], kept for every uncomputed live gate.
    releasing: Vec<u8>,
    computed: Vec<bool>,
}

/// A priority queue of computable nodes under one keyed policy.
trait Queue {
    /// `n` just became computable.
    fn ready(&mut self, s: &Scheduler, n: usize);
    /// The releasing count of the computable `n` rose.
    fn raised(&mut self, s: &Scheduler, n: usize);
    /// The computable node with the largest key, `None` once none is left.
    fn pop(&mut self, s: &Scheduler) -> Option<usize>;
}

impl Scheduler<'_> {
    /// Forward sweep over the live gates: levels, fanout levels,
    /// dependency counts, initial releasing counts and the live-parent
    /// scatter. Returns the gates computable from the start and the
    /// deepest level.
    fn sweep(&mut self, live: &[bool]) -> (Vec<usize>, u32) {
        let first_gate = self.mig.num_inputs() + 1;
        let mut level = vec![0u32; live.len()];
        let mut ready = Vec::new();
        let mut max_level = 0;
        for g in (first_gate..live.len()).filter(|&g| live[g]) {
            let children = self.mig.children(NodeId::new(g as u32));
            let l = 1 + children
                .iter()
                .fold(0, |l, s| l.max(level[s.node().index()]));
            level[g] = l;
            max_level = max_level.max(l);
            for s in children.iter().filter(|s| !s.is_constant()) {
                let c = s.node().index();
                self.offsets[c] -= 1;
                self.parents[self.offsets[c] as usize] = g as u32;
                self.releasing[g] += u8::from(self.pending[c] == 1);
                if c >= first_gate {
                    self.deps[g] += 1;
                    self.fanout_level[c] = self.fanout_level[c].min(l);
                }
            }
            if self.deps[g] == 0 {
                ready.push(g);
            }
        }
        (ready, max_level)
    }

    fn key(&self, n: usize) -> u128 {
        self.selection.key(Candidate {
            releasing: u32::from(self.releasing[n]),
            fanout_level: self.fanout_level[n],
            index: n as u32,
        })
    }

    /// The node behind a heap entry, `None` for an outdated entry of a
    /// computed node.
    fn fresh(&self, key: u64) -> Option<usize> {
        let n = !(key as u32) as usize;
        if self.computed[n] {
            return None;
        }
        debug_assert_eq!(
            key,
            self.key(n) as u64,
            "keys only rise, so the newest entry pops first"
        );
        Some(n)
    }

    fn live_parents(&self, n: usize) -> std::ops::Range<usize> {
        self.offsets[n] as usize..self.offsets[n + 1] as usize
    }

    /// Computes the `live_gates` nodes in the order `queue` picks them,
    /// starting from `ready`: consumes each picked node's pending child
    /// uses, raising the releasing count of a child's last user, then
    /// unlocks its parents.
    fn run(mut self, mut queue: impl Queue, ready: Vec<usize>, live_gates: usize) -> Vec<NodeId> {
        for n in ready {
            queue.ready(&self, n);
        }
        let mut order = Vec::with_capacity(live_gates);
        while let Some(n) = queue.pop(&self) {
            self.computed[n] = true;
            order.push(NodeId::new(n as u32));
            for s in self.mig.children(NodeId::new(n as u32)) {
                if s.is_constant() {
                    continue;
                }
                let c = s.node().index();
                self.pending[c] -= 1;
                if self.pending[c] != 1 {
                    continue;
                }
                // One use is left, so at most one parent is uncomputed.
                let last = self
                    .live_parents(c)
                    .map(|i| self.parents[i] as usize)
                    .find(|&p| !self.computed[p]);
                if let Some(p) = last {
                    self.releasing[p] += 1;
                    if self.deps[p] == 0 {
                        queue.raised(&self, p);
                    }
                }
            }
            for i in self.live_parents(n) {
                let p = self.parents[i] as usize;
                self.deps[p] -= 1;
                if self.deps[p] == 0 {
                    queue.ready(&self, p);
                }
            }
        }
        debug_assert_eq!(order.len(), live_gates, "every live gate is scheduled");
        order
    }
}

const NONE: u32 = u32::MAX;

/// The endurance-aware queue: computable nodes wait in one intrusive list
/// per fanout level (nodes feeding only primary outputs in the last) until
/// the cursor reaches their level, then compete in a heap on the key's low
/// 64 bits, `(releasing, index)`.
struct LevelBuckets {
    /// First waiting node per level, [`NONE`] for an empty list.
    head: Vec<u32>,
    /// The next waiting node in the same list, per node.
    next: Vec<u32>,
    /// The level whose nodes are in `heap`; it only moves forward.
    cursor: usize,
    heap: BinaryHeap<u64>,
}

impl LevelBuckets {
    fn new(nodes: usize, max_level: u32) -> Self {
        LevelBuckets {
            head: vec![NONE; max_level as usize + 2],
            next: vec![NONE; nodes],
            cursor: 0,
            heap: BinaryHeap::new(),
        }
    }

    fn bucket(&self, s: &Scheduler, n: usize) -> usize {
        (s.fanout_level[n] as usize).min(self.head.len() - 1)
    }
}

impl Queue for LevelBuckets {
    fn ready(&mut self, s: &Scheduler, n: usize) {
        let level = self.bucket(s, n);
        debug_assert!(
            level > self.cursor,
            "an unlocked node lands in a later level"
        );
        self.next[n] = self.head[level];
        self.head[level] = n as u32;
    }

    fn raised(&mut self, s: &Scheduler, n: usize) {
        // Nodes at later levels read their count when their list drains.
        if self.bucket(s, n) == self.cursor {
            self.heap.push(s.key(n) as u64);
        }
    }

    fn pop(&mut self, s: &Scheduler) -> Option<usize> {
        loop {
            while let Some(key) = self.heap.pop() {
                if let Some(n) = s.fresh(key) {
                    debug_assert_eq!(self.bucket(s, n), self.cursor);
                    return Some(n);
                }
            }
            // The cursor's own list drained when it arrived, and no node
            // joins it since.
            let level = (self.cursor..self.head.len()).find(|&l| self.head[l] != NONE)?;
            debug_assert!(level > self.cursor, "the cursor never moves back");
            self.cursor = level;
            let mut n = std::mem::replace(&mut self.head[level], NONE);
            while n != NONE {
                self.heap.push(s.key(n as usize) as u64);
                n = self.next[n as usize];
            }
        }
    }
}

/// The area-aware queue: one heap per releasing count, each on the key's
/// low 64 bits, `(fanout level, index)`.
#[derive(Default)]
struct ReleasingClasses {
    classes: [BinaryHeap<u64>; 4],
}

impl Queue for ReleasingClasses {
    fn ready(&mut self, s: &Scheduler, n: usize) {
        self.classes[usize::from(s.releasing[n])].push(s.key(n) as u64);
    }

    fn raised(&mut self, s: &Scheduler, n: usize) {
        self.ready(s, n);
    }

    fn pop(&mut self, s: &Scheduler) -> Option<usize> {
        // A node's newest entry sits in a higher class than its outdated
        // ones, so it pops first.
        for (releasing, class) in self.classes.iter_mut().enumerate().rev() {
            while let Some(key) = class.pop() {
                if let Some(n) = s.fresh(key) {
                    debug_assert_eq!(usize::from(s.releasing[n]), releasing);
                    return Some(n);
                }
            }
        }
        None
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
        schedule(mig, selection).0
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
