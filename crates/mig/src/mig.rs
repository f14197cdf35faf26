//! The Majority-Inverter Graph container.

use std::fmt;

use crate::signal::{NodeId, Signal};
use crate::strash::Strash;

/// Classification of a node inside a [`Mig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The constant-false node (always node 0).
    Constant,
    /// The `i`-th primary input.
    Input(u32),
    /// A 3-input majority gate.
    Majority([Signal; 3]),
}

/// A Majority-Inverter Graph: 3-input majority nodes plus complemented edges.
///
/// The graph is immutable-by-construction: nodes are appended with children
/// that already exist, so node index order is a topological order. Rewriting
/// (see [`crate::rewrite`]) produces new graphs instead of mutating in place.
///
/// Structural hashing and the paper's Ω.M (majority) axiom are applied on
/// every [`Mig::add_maj`], so trivially redundant gates are never created.
///
/// # Examples
///
/// ```
/// use rlim_mig::Mig;
///
/// let mut mig = Mig::new(3);
/// let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
/// let carry = mig.add_maj(a, b, c);
/// mig.add_output(carry);
/// assert_eq!(mig.num_gates(), 1);
/// assert_eq!(mig.num_outputs(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mig {
    /// Children of each node; unused (all-FALSE) for constant and inputs.
    nodes: Vec<[Signal; 3]>,
    num_inputs: u32,
    outputs: Vec<Signal>,
    strash: Strash,
}

impl Mig {
    /// Creates a graph with `num_inputs` primary inputs and no gates.
    pub fn new(num_inputs: usize) -> Self {
        let num_inputs = u32::try_from(num_inputs).expect("too many inputs");
        let nodes = vec![[Signal::FALSE; 3]; num_inputs as usize + 1];
        Mig {
            nodes,
            num_inputs,
            outputs: Vec::new(),
            strash: Strash::new(),
        }
    }

    /// Clears the graph back to `num_inputs` fresh inputs and no gates,
    /// **keeping every internal allocation** (node array, output list,
    /// strash slots). This is what makes the rewrite engine's
    /// double-buffering allocation-free: the rebuilds of a `rewrite()`
    /// call recycle two `Mig` buffers instead of constructing fresh ones.
    pub fn reset(&mut self, num_inputs: usize) {
        let num_inputs = u32::try_from(num_inputs).expect("too many inputs");
        self.nodes.clear();
        self.nodes
            .resize(num_inputs as usize + 1, [Signal::FALSE; 3]);
        self.num_inputs = num_inputs;
        self.outputs.clear();
        self.strash.clear();
    }

    /// Makes room for `additional` more gates: neither the node array nor
    /// the strash grows while that many are added. A rebuild reserves the
    /// source graph's gate count, since a pass never grows a graph by
    /// much and usually shrinks it.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.strash.reserve(additional, &self.nodes);
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// Number of primary outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of majority gates (excludes constant and inputs).
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.nodes.len() - 1 - self.num_inputs as usize
    }

    /// Total node count: constant + inputs + gates.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The uncomplemented signal of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs`.
    #[inline]
    pub fn input(&self, i: usize) -> Signal {
        assert!(i < self.num_inputs as usize, "input index out of range");
        Signal::new(NodeId::new(i as u32 + 1), false)
    }

    /// All primary input signals, in order.
    pub fn inputs(&self) -> impl Iterator<Item = Signal> + '_ {
        (0..self.num_inputs as usize).map(|i| self.input(i))
    }

    /// The primary output signals.
    #[inline]
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// Registers `s` as the next primary output.
    ///
    /// # Panics
    ///
    /// Panics if `s` points past the last node — a dangling output would
    /// otherwise surface only as an index panic in a later traversal.
    pub fn add_output(&mut self, s: Signal) {
        assert!(
            s.node().index() < self.nodes.len(),
            "dangling primary output {s}: graph has {} nodes",
            self.nodes.len()
        );
        self.outputs.push(s);
    }

    /// Classifies a node.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        let idx = n.index();
        debug_assert!(idx < self.nodes.len());
        if idx == 0 {
            NodeKind::Constant
        } else if idx <= self.num_inputs as usize {
            NodeKind::Input(idx as u32 - 1)
        } else {
            NodeKind::Majority(self.nodes[idx])
        }
    }

    /// Whether `n` is a majority gate.
    #[inline]
    pub fn is_gate(&self, n: NodeId) -> bool {
        n.index() > self.num_inputs as usize
    }

    /// Children of a majority gate.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a gate.
    #[inline]
    pub fn children(&self, n: NodeId) -> [Signal; 3] {
        assert!(self.is_gate(n), "{n} is not a majority gate");
        self.nodes[n.index()]
    }

    /// Iterates over all gate ids in topological (index) order.
    pub fn gates(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.num_inputs as usize + 1..self.nodes.len()).map(|i| NodeId::new(i as u32))
    }

    /// Iterates over every node id (constant, inputs, gates) in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId::new(i as u32))
    }

    /// Applies the Ω.M simplification rules to a child triple without
    /// creating a node. Returns `Ok(signal)` when the majority collapses to
    /// an existing signal, or `Err(children)` with the canonically sorted
    /// triple otherwise.
    ///
    /// Rules (paper §III-A-1):
    /// * `⟨x x z⟩ = x`
    /// * `⟨x x̄ z⟩ = z`
    pub fn simplify_maj(a: Signal, b: Signal, c: Signal) -> Result<Signal, [Signal; 3]> {
        // Duplicate / complementary pairs.
        if a == b {
            return Ok(a);
        }
        if a == !b {
            return Ok(c);
        }
        if a == c {
            return Ok(a);
        }
        if a == !c {
            return Ok(b);
        }
        if b == c {
            return Ok(b);
        }
        if b == !c {
            return Ok(a);
        }
        // Three-element sorting network — cheaper than the generic slice
        // sort on this hottest of paths (one call per add_maj).
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let (b, c) = if b <= c { (b, c) } else { (c, b) };
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        Err([a, b, c])
    }

    /// Adds (or finds) the majority gate `⟨a b c⟩`.
    ///
    /// Applies Ω.M simplification and structural hashing, so the result may
    /// be an existing signal. Children are stored sorted; complement
    /// attributes are preserved exactly (no automatic inverter
    /// canonicalisation — the paper's rewriting algorithms manage inverters
    /// explicitly).
    pub fn add_maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        match Mig::simplify_maj(a, b, c) {
            Ok(s) => s,
            Err(key) => {
                debug_assert!(key.iter().all(|s| s.node().index() < self.nodes.len()));
                let id = NodeId::new(self.nodes.len() as u32);
                match self.strash.insert_or_get(&key, id, &self.nodes) {
                    Some(existing) => Signal::new(existing, false),
                    None => {
                        self.nodes.push(key);
                        Signal::new(id, false)
                    }
                }
            }
        }
    }

    /// Looks up `⟨a b c⟩` without creating it. Returns the signal the triple
    /// simplifies or hashes to, if it already exists in the graph.
    pub fn lookup_maj(&self, a: Signal, b: Signal, c: Signal) -> Option<Signal> {
        match Mig::simplify_maj(a, b, c) {
            Ok(s) => Some(s),
            Err(key) => self
                .strash
                .get(&key, &self.nodes)
                .map(|n| Signal::new(n, false)),
        }
    }

    // ---- Convenience logic constructors -------------------------------

    /// `a ∧ b = ⟨a b 0⟩`.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.add_maj(a, b, Signal::FALSE)
    }

    /// `a ∨ b = ⟨a b 1⟩`.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.add_maj(a, b, Signal::TRUE)
    }

    /// `a ⊕ b = (a ∧ b̄) ∨ (ā ∧ b)`.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        let t = self.and(a, !b);
        let e = self.and(!a, b);
        self.or(t, e)
    }

    /// `s ? t : e = (s ∧ t) ∨ (s̄ ∧ e)`.
    pub fn mux(&mut self, s: Signal, t: Signal, e: Signal) -> Signal {
        let x = self.and(s, t);
        let y = self.and(!s, e);
        self.or(x, y)
    }

    /// Full adder `(sum, carry)` in native MIG form:
    /// `carry = ⟨a b c⟩`, `sum = ⟨carrȳ c ⟨a b c̄⟩⟩` (3 gates total).
    pub fn full_adder(&mut self, a: Signal, b: Signal, c: Signal) -> (Signal, Signal) {
        let carry = self.add_maj(a, b, c);
        let t = self.add_maj(a, b, !c);
        let sum = self.add_maj(!carry, c, t);
        (sum, carry)
    }

    /// Half adder `(sum, carry)`.
    pub fn half_adder(&mut self, a: Signal, b: Signal) -> (Signal, Signal) {
        let carry = self.and(a, b);
        let sum = self.xor(a, b);
        (sum, carry)
    }

    // ---- Structural queries --------------------------------------------

    /// Per-node logic level: constants and inputs are level 0, a gate is one
    /// more than the maximum level of its children. Indexed by node index.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.nodes.len()];
        for g in self.gates() {
            let ch = self.nodes[g.index()];
            let l = ch
                .iter()
                .map(|s| levels[s.node().index()])
                .max()
                .unwrap_or(0);
            levels[g.index()] = l + 1;
        }
        levels
    }

    /// Depth of the graph: maximum level over primary outputs.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|s| levels[s.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Per-node fanout count, **including** primary-output references.
    /// Indexed by node index.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for g in self.gates() {
            for s in self.nodes[g.index()] {
                counts[s.node().index()] += 1;
            }
        }
        for s in &self.outputs {
            counts[s.node().index()] += 1;
        }
        counts
    }

    /// Per-node list of gate parents (excludes primary-output references).
    pub fn parents(&self) -> Vec<Vec<NodeId>> {
        let mut parents = vec![Vec::new(); self.nodes.len()];
        for g in self.gates() {
            for s in self.nodes[g.index()] {
                parents[s.node().index()].push(g);
            }
        }
        parents
    }

    /// Number of complemented gate-child edges pointing at non-constant
    /// nodes, per gate. Constant children are excluded because PLiM reads
    /// constants for free in either polarity.
    pub fn complemented_edge_count(&self, n: NodeId) -> usize {
        self.children(n)
            .iter()
            .filter(|s| !s.is_constant() && s.is_complement())
            .count()
    }

    /// Total complemented (non-constant) edges over all gates and outputs.
    pub fn total_complemented_edges(&self) -> usize {
        let gate_edges: usize = self.gates().map(|g| self.complemented_edge_count(g)).sum();
        let po_edges = self
            .outputs
            .iter()
            .filter(|s| !s.is_constant() && s.is_complement())
            .count();
        gate_edges + po_edges
    }

    /// Gates reachable from the primary outputs (live gates). Returns a
    /// boolean mask indexed by node index.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for s in &self.outputs {
            if !live[s.node().index()] {
                live[s.node().index()] = true;
                stack.push(s.node());
            }
        }
        while let Some(n) = stack.pop() {
            if self.is_gate(n) {
                for s in self.nodes[n.index()] {
                    if !live[s.node().index()] {
                        live[s.node().index()] = true;
                        stack.push(s.node());
                    }
                }
            }
        }
        live
    }

    /// Number of live (output-reachable) gates.
    pub fn num_live_gates(&self) -> usize {
        let live = self.live_mask();
        self.gates().filter(|g| live[g.index()]).count()
    }

    /// Bytes the graph holds on the heap: its node array, output list
    /// and strash slots, allocated capacity included. This is what a
    /// byte-bounded cache of graphs charges for one.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<[Signal; 3]>()
            + self.outputs.capacity() * std::mem::size_of::<Signal>()
            + self.strash.heap_bytes()
    }

    /// A 128-bit structural fingerprint: two independent FxHash-style
    /// streams over the input count, every gate's child triple (in
    /// topological node order) and the primary-output list.
    ///
    /// Two graphs built by the same construction sequence fingerprint
    /// identically, so a benchmark rebuilt in another process — or a
    /// BLIF netlist re-parsed by a long-running daemon — lands on the
    /// same value. This is the source half of the daemon's compile-cache
    /// key; 128 bits keep accidental collisions negligible for any
    /// realistic cache population.
    pub fn fingerprint(&self) -> u128 {
        // Same multiplier as the strash (FxHash's 64-bit constant); the
        // two lanes differ by seed and rotation so they never collapse
        // into one 64-bit stream.
        const FX: u64 = 0x517c_c1b7_2722_0a95;
        fn mix(h: u64, word: u64, rot: u32) -> u64 {
            (h.rotate_left(rot) ^ word).wrapping_mul(FX)
        }
        let mut a = 0x243f_6a88_85a3_08d3u64;
        let mut b = 0x1319_8a2e_0370_7344u64;
        let mut absorb = |word: u64| {
            a = mix(a, word, 5);
            b = mix(b, word, 23);
        };
        absorb(self.num_inputs as u64);
        absorb(self.outputs.len() as u64);
        for children in &self.nodes[self.num_inputs as usize + 1..] {
            let [x, y, z] = children;
            absorb(u64::from(x.raw()) | (u64::from(y.raw()) << 32));
            absorb(u64::from(z.raw()));
        }
        for s in &self.outputs {
            absorb(u64::from(s.raw()));
        }
        (u128::from(a) << 64) | u128::from(b)
    }
}

/// Structural equality: the same inputs, the same gate triples at the
/// same node indices and the same outputs. The strash is derived from
/// the nodes (its slot layout depends on capacity history), so it is
/// left out.
impl PartialEq for Mig {
    fn eq(&self, other: &Self) -> bool {
        self.num_inputs == other.num_inputs
            && self.nodes == other.nodes
            && self.outputs == other.outputs
    }
}

impl fmt::Display for Mig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mig(inputs={}, gates={}, outputs={}, depth={})",
            self.num_inputs(),
            self.num_gates(),
            self.num_outputs(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let mig = Mig::new(2);
        assert_eq!(mig.num_inputs(), 2);
        assert_eq!(mig.num_gates(), 0);
        assert_eq!(mig.num_nodes(), 3);
        assert_eq!(mig.kind(NodeId::CONST), NodeKind::Constant);
        assert_eq!(mig.kind(NodeId::new(1)), NodeKind::Input(0));
        assert_eq!(mig.kind(NodeId::new(2)), NodeKind::Input(1));
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let build = |complement: bool| {
            let mut mig = Mig::new(3);
            let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
            let g = mig.add_maj(a, if complement { !b } else { b }, c);
            mig.add_output(g);
            mig
        };
        // Identical construction sequences fingerprint identically…
        assert_eq!(build(false).fingerprint(), build(false).fingerprint());
        // …and a single complemented edge separates them.
        assert_ne!(build(false).fingerprint(), build(true).fingerprint());
        // Output polarity and interface width matter too.
        let mut flipped = build(false);
        let out = flipped.outputs()[0];
        flipped.outputs.clear();
        flipped.add_output(!out);
        assert_ne!(build(false).fingerprint(), flipped.fingerprint());
        assert_ne!(Mig::new(2).fingerprint(), Mig::new(3).fingerprint());
    }

    #[test]
    fn omega_m_duplicate_child() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        assert_eq!(mig.add_maj(a, a, b), a);
        assert_eq!(mig.add_maj(b, a, b), b);
        assert_eq!(mig.num_gates(), 0);
    }

    #[test]
    fn omega_m_complement_pair() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        assert_eq!(mig.add_maj(a, !a, b), b);
        assert_eq!(mig.add_maj(b, a, !b), a);
        assert_eq!(mig.add_maj(!a, b, a), b);
        assert_eq!(mig.num_gates(), 0);
    }

    #[test]
    fn constant_simplifications() {
        let mut mig = Mig::new(1);
        let a = mig.input(0);
        // ⟨0 1 a⟩ = a (complementary constant pair)
        assert_eq!(mig.add_maj(Signal::FALSE, Signal::TRUE, a), a);
        // ⟨0 0 a⟩ = 0
        assert_eq!(mig.add_maj(Signal::FALSE, Signal::FALSE, a), Signal::FALSE);
        assert_eq!(mig.num_gates(), 0);
    }

    #[test]
    fn strash_dedups_permutations_and_keeps_complements() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g1 = mig.add_maj(a, !b, c);
        let g2 = mig.add_maj(c, a, !b);
        let g3 = mig.add_maj(!b, c, a);
        assert_eq!(g1, g2);
        assert_eq!(g1, g3);
        // A different complement pattern is a different node.
        let g4 = mig.add_maj(a, b, c);
        assert_ne!(g1, g4);
        assert_eq!(mig.num_gates(), 2);
    }

    #[test]
    fn lookup_does_not_create() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        assert_eq!(mig.lookup_maj(a, b, c), None);
        let g = mig.add_maj(a, b, c);
        assert_eq!(mig.lookup_maj(c, b, a), Some(g));
        assert_eq!(mig.lookup_maj(a, a, b), Some(a));
        assert_eq!(mig.num_gates(), 1);
    }

    #[test]
    fn levels_and_depth() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g1 = mig.add_maj(a, b, c);
        let g2 = mig.and(g1, a);
        mig.add_output(g2);
        let levels = mig.levels();
        assert_eq!(levels[g1.node().index()], 1);
        assert_eq!(levels[g2.node().index()], 2);
        assert_eq!(mig.depth(), 2);
    }

    #[test]
    fn fanouts_count_po_refs() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g = mig.and(a, b);
        mig.add_output(g);
        mig.add_output(!g);
        let counts = mig.fanout_counts();
        assert_eq!(counts[g.node().index()], 2);
        assert_eq!(counts[a.node().index()], 1);
        // constant node referenced by the AND gate
        assert_eq!(counts[NodeId::CONST.index()], 1);
    }

    #[test]
    fn complemented_edges_ignore_constants() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g = mig.or(!a, b); // ⟨!a b 1⟩ — TRUE child must not count
        assert_eq!(mig.complemented_edge_count(g.node()), 1);
    }

    #[test]
    fn live_mask_excludes_dangling() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g1 = mig.and(a, b);
        let _dead = mig.or(a, b);
        mig.add_output(g1);
        assert_eq!(mig.num_gates(), 2);
        assert_eq!(mig.num_live_gates(), 1);
    }

    /// The open-addressing strash must dedup exactly like the `HashMap`
    /// keyed on sorted triples that it replaced: same signal for every
    /// child permutation, distinct nodes for distinct complement patterns.
    #[test]
    fn strash_matches_hashmap_model_on_random_triples() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        for seed in 0..4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut mig = Mig::new(6);
            let mut model: HashMap<[Signal; 3], Signal> = HashMap::new();
            let mut pool: Vec<Signal> = mig.inputs().collect();
            pool.push(Signal::FALSE);
            for _ in 0..3000 {
                let pick = |rng: &mut rand_chacha::ChaCha8Rng| {
                    let s = pool[rng.gen_range(0..pool.len())];
                    s.complement_if(rng.gen_bool(0.4))
                };
                let (a, b, c) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
                // Insert a random permutation of the triple; the strash
                // must resolve every ordering to the same signal.
                let perm: [Signal; 3] = [[a, b, c], [c, a, b], [b, c, a]][rng.gen_range(0..3usize)];
                let got = mig.add_maj(perm[0], perm[1], perm[2]);
                let expect = match Mig::simplify_maj(a, b, c) {
                    Ok(s) => s,
                    Err(key) => *model.entry(key).or_insert(got),
                };
                assert_eq!(got, expect, "seed {seed}: ⟨{a} {b} {c}⟩");
                pool.push(got);
            }
            assert_eq!(mig.num_gates(), model.len(), "seed {seed}");
        }
    }

    #[test]
    fn reset_keeps_dedup_and_clears_state() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g = mig.add_maj(a, b, c);
        mig.add_output(g);

        mig.reset(2);
        assert_eq!(mig.num_inputs(), 2);
        assert_eq!(mig.num_gates(), 0);
        assert_eq!(mig.num_outputs(), 0);

        // The recycled strash must not remember pre-reset gates, and must
        // still dedup new ones.
        let a2 = mig.input(0);
        let b2 = mig.input(1);
        let g1 = mig.and(a2, b2);
        let g2 = mig.and(b2, a2);
        assert_eq!(g1, g2);
        assert_eq!(mig.num_gates(), 1);
    }

    #[test]
    fn equality_ignores_strash_history_but_not_structure() {
        fn build(mig: &mut Mig, flip: bool) {
            let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
            let g = mig.add_maj(a, b, c.complement_if(flip));
            mig.add_output(g);
        }
        let mut fresh = Mig::new(3);
        build(&mut fresh, false);
        // A recycled buffer whose strash grew on a larger graph first.
        let mut recycled = Mig::new(3);
        let mut acc = recycled.input(2);
        for i in 0..200 {
            let [a, b] = [recycled.input(0), recycled.input(1)];
            acc = recycled.add_maj(
                a.complement_if(i % 3 == 0),
                b,
                acc.complement_if(i % 2 == 0),
            );
        }
        recycled.add_output(acc);
        recycled.reset(3);
        build(&mut recycled, false);
        assert_eq!(fresh, recycled);

        let mut other = Mig::new(3);
        build(&mut other, true);
        assert_ne!(fresh, other);
        let mut wider = Mig::new(4);
        build(&mut wider, false);
        assert_ne!(fresh, wider);
    }

    #[test]
    fn reserve_keeps_dedup_and_stops_growth() {
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let first = mig.add_maj(s[0], s[1], s[2]);
        mig.reserve(600);
        let (nodes, slots) = (mig.nodes.capacity(), mig.strash.capacity());
        assert!(nodes >= mig.num_nodes() + 600);
        assert!(slots >= mig.num_gates() + 600);
        let mut acc = first;
        let mut added = vec![first];
        for i in 0..600 {
            acc = mig.add_maj(acc, s[i % 3 + 1].complement_if(i % 2 == 0), !s[0]);
            added.push(acc);
        }
        assert_eq!(mig.num_gates(), 601);
        assert_eq!(mig.nodes.capacity(), nodes, "the node array grew");
        assert_eq!(mig.strash.capacity(), slots, "the strash grew");
        // Every gate, the one stored before the reserve included, is
        // still found.
        for &g in &added {
            let [a, b, c] = mig.children(g.node());
            assert_eq!(mig.lookup_maj(c, a, b), Some(g));
        }
        // Reserving less than the graph already has room for is a no-op.
        mig.reserve(0);
        assert_eq!(mig.nodes.capacity(), nodes);
        mig.reserve(slots - mig.num_gates());
        assert_eq!(mig.strash.capacity(), slots);
    }

    #[test]
    #[should_panic(expected = "dangling primary output")]
    fn dangling_output_rejected() {
        let mut mig = Mig::new(2);
        mig.add_output(Signal::new(NodeId::new(40), false));
    }

    #[test]
    fn full_adder_truth_table() {
        // checked exhaustively via simulation in simulate.rs tests; here a
        // structural check: exactly three gates.
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let (s, co) = mig.full_adder(a, b, c);
        mig.add_output(s);
        mig.add_output(co);
        assert_eq!(mig.num_gates(), 3);
    }
}
