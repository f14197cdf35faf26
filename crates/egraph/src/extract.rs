//! Weighted-cost extraction: rebuild a [`Mig`] from the cheapest
//! representative of each e-class.
//!
//! Cost is the classic additive tree estimate: an e-node costs a
//! per-gate base plus weighted local terms, plus the cost of its child
//! classes. Per class, the minimum-cost e-node wins; ties keep the
//! earliest-interned e-node (original-graph structure first), which
//! makes extraction deterministic and biased toward the input when the
//! weights are indifferent.
//!
//! Acyclicity of the chosen representatives is structural, not a
//! property of the cost: extraction first computes each class's
//! **level** — the minimum height of any realization, a monotone fixed
//! point that assigns every reachable class an e-node whose children
//! all sit strictly below it — and then only ever chooses among e-nodes
//! that descend in level. Any such choice function is a DAG, so the
//! rebuild's recursion grounds out, and the cost sweep itself needs no
//! fixed point: processing classes in increasing level order sees every
//! child before its parent.
//!
//! Tree costs grow like `3^depth`, so on deep graphs they overflow any
//! fixed-width integer. Finite costs therefore saturate at `COST_CAP`
//! — a capped class is still extractable, it has merely left the regime
//! where the cost estimate can rank its spellings (ties keep the
//! earliest e-node, as always).
//!
//! The write/complement terms score the triple as stored; the final
//! edge polarity additionally depends on the chosen child
//! representative's own polarity, which only the rebuild resolves. The
//! estimate is therefore a heuristic, not an exact instruction count —
//! callers that need a guarantee compare compiled results (see the
//! compiler's best-of selection).
//!
//! Tree cost also ignores sharing: a class used by many parents is
//! charged once per use, so the DP is biased against shared
//! subgraphs. [`extract`] corrects for that with a bounded **discount
//! loop**: after each realization, the classes it actually materialized
//! become free (cost 0) as child contributions — they are already built
//! — and the sweep reruns. [`extract_around`] additionally anchors the
//! loop at the realization the e-graph was loaded from and runs an
//! incremental **refinement** over it first: per-class spelling
//! switches with exact DAG accounting (marginal-cost trees for new
//! children, maximum fanout-free cone release for old ones), accepted
//! only when strictly profitable — so the refined realization is never
//! worse than the reference. Each candidate realization is scored by
//! its *true* DAG cost on the rebuilt graph, and the best wins; ties
//! keep the earliest. Discounting never touches the level restriction,
//! so the choices stay acyclic no matter how the discounts warp the
//! costs.

use rlim_mig::{Mig, NodeId, Signal};

use crate::graph::EGraph;

/// Ceiling for finite extraction costs. Low enough that three capped
/// children plus local terms cannot wrap a `u64` even without the
/// saturating arithmetic.
const COST_CAP: u64 = u64::MAX / 8;

/// Relative weights of the extraction cost terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostWeights {
    /// Cost per gate (clamped to ≥ 1 internally).
    pub gate: u64,
    /// Weight of the estimated RM3 write cost (1 or 3 per gate).
    pub write: u64,
    /// Weight per complemented non-constant child edge (0 or 1 per gate
    /// after polarity canonicalization).
    pub comp: u64,
}

impl CostWeights {
    /// Area-style weights: minimize gates, then writes.
    pub fn area() -> Self {
        CostWeights {
            gate: 2,
            write: 1,
            comp: 0,
        }
    }

    /// Endurance-style weights: writes dominate, complemented edges
    /// break ties (each one is an RM3 operand inversion the wear
    /// distribution feels).
    pub fn endurance() -> Self {
        CostWeights {
            gate: 2,
            write: 3,
            comp: 1,
        }
    }
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights::endurance()
    }
}

/// Extracts the cheapest realization of `outputs` from `eg` as a fresh
/// [`Mig`]. The e-graph must be congruence-closed
/// ([`EGraph::rebuild`]); `outputs` are class signals as returned by
/// [`EGraph::from_mig`] (stale signals are canonicalized here).
///
/// # Panics
///
/// Panics if an output's class has no realization over the leaves —
/// impossible for classes loaded from a `Mig`, whose original gates
/// always provide one.
pub fn extract(eg: &EGraph, outputs: &[Signal], weights: &CostWeights) -> Mig {
    let search = Search::new(eg, outputs, weights);
    let mut best = None;
    search.chain(vec![false; eg.num_classes()], &mut best);
    best.expect("the discount loop runs at least one round").1
}

/// Like [`extract`], but anchored at the realization the e-graph was
/// loaded from: `reference` is the loaded graph and `classes` its
/// per-node class signals (see [`EGraph::from_mig_with_classes`]). The
/// reference itself is the first candidate and its classes seed the
/// discount loop, so the search is DAG-aware local improvement around
/// the input — alternative spellings whose children the reference
/// already materializes cost only their local terms. The plain
/// tree-cost chain still runs for global restructuring; true DAG cost
/// judges every candidate and ties keep the reference.
pub fn extract_around(
    eg: &EGraph,
    outputs: &[Signal],
    weights: &CostWeights,
    reference: &Mig,
    classes: &[Signal],
) -> Mig {
    let search = Search::new(eg, outputs, weights);
    let mut free = vec![false; eg.num_classes()];
    for g in reference.gates() {
        free[eg.canonical(classes[g.index()]).node().index()] = true;
    }
    let mut best = Some((dag_cost(reference, weights), reference.clone()));
    if let Some(refined) = search.refine(reference, classes) {
        let dag = dag_cost(&refined, weights);
        if best.as_ref().is_none_or(|(c, _)| dag < *c) {
            best = Some((dag, refined));
        }
    }
    search.chain(free, &mut best);
    search.chain(vec![false; eg.num_classes()], &mut best);
    best.expect("the reference is always a candidate").1
}

/// One materialized gate of a realization under refinement: the child
/// triple as canonical class signals, and whether the class value is
/// the gate's complement.
#[derive(Debug, Clone, Copy)]
struct Spelling {
    tri: [Signal; 3],
    flip: bool,
}

// `refine` lives in `impl Search` below — it shares the level table and
// sweep order with the discount chain.

/// Materializes a spelling-per-class realization as a fresh [`Mig`]
/// (iterative post-order, same shape as [`rebuild`]).
fn realize(eg: &EGraph, outputs: &[Signal], sel: &[Option<Spelling>]) -> Mig {
    let n = eg.num_classes();
    let mut mig = Mig::new(eg.num_inputs());
    let mut memo: Vec<Option<Signal>> = vec![None; n];
    memo[0] = Some(Signal::FALSE);
    for i in 0..eg.num_inputs() {
        memo[i + 1] = Some(mig.input(i));
    }
    let mut stack: Vec<(usize, bool)> = Vec::new();
    for &out in outputs {
        let root = eg.canonical(out);
        stack.push((root.node().index(), false));
        while let Some((cls, expanded)) = stack.pop() {
            if memo[cls].is_some() {
                continue;
            }
            let sp = sel[cls].expect("output cone classes have a spelling");
            if expanded {
                let sig = |s: Signal| {
                    memo[s.node().index()]
                        .expect("children are built before their parent")
                        .complement_if(s.is_complement())
                };
                let node = mig.add_maj(sig(sp.tri[0]), sig(sp.tri[1]), sig(sp.tri[2]));
                memo[cls] = Some(node.complement_if(sp.flip));
            } else {
                stack.push((cls, true));
                for s in sp.tri {
                    if memo[s.node().index()].is_none() {
                        stack.push((s.node().index(), false));
                    }
                }
            }
        }
        let built = memo[root.node().index()].expect("root was just built");
        mig.add_output(built.complement_if(root.is_complement()));
    }
    mig
}

/// The shared per-extraction state: class levels and the child-first
/// sweep order.
struct Search<'a> {
    eg: &'a EGraph,
    outputs: &'a [Signal],
    weights: &'a CostWeights,
    level: Vec<u32>,
    order: Vec<usize>,
}

impl<'a> Search<'a> {
    fn new(eg: &'a EGraph, outputs: &'a [Signal], weights: &'a CostWeights) -> Self {
        let level = levels(eg);
        // Sweep order: children strictly precede parents (level
        // ascends); unreachable classes (no realization over the
        // leaves) drop out.
        let mut order: Vec<usize> = (eg.num_inputs() + 1..eg.num_classes())
            .filter(|&c| level[c] != u32::MAX)
            .collect();
        order.sort_by_key(|&c| (level[c], c));
        Search {
            eg,
            outputs,
            weights,
            level,
            order,
        }
    }

    /// One discount chain: sweep, rebuild, score, then make the
    /// realization's classes free and repeat. Feeds every candidate
    /// into `best` (strict improvement only, so earlier candidates win
    /// ties).
    fn chain(&self, mut free: Vec<bool>, best: &mut Option<(u64, Mig)>) {
        for _ in 0..3 {
            let choice = relax(self.eg, self.weights, &self.level, &self.order, &free);
            let (mig, used) = rebuild(self.eg, self.outputs, &choice);
            let dag = dag_cost(&mig, self.weights);
            if best.as_ref().is_none_or(|(c, _)| dag < *c) {
                *best = Some((dag, mig));
            }
            // An unchanged free set would repeat the sweep verbatim.
            if used == free {
                break;
            }
            free = used;
        }
    }

    /// Incremental DAG-aware refinement of the reference realization:
    /// for each materialized class, in deterministic topological order,
    /// try switching its spelling to an e-graph alternative. A new
    /// spelling's children may be signals that are already materialized
    /// (free), or classes that are not yet realized — the latter are
    /// priced by walking their *marginal-cost trees* from a sweep in
    /// which every currently-alive class is free, and are materialized
    /// alongside the switch when it is accepted.
    ///
    /// A switch is accepted only when the exact net weighted cost is
    /// negative: the new spelling's local terms, plus every
    /// newly-materialized gate (shared tree nodes counted once), minus
    /// the old spelling's local terms, minus the cone the old children
    /// release once the new references are in place. Acyclicity is
    /// maintained by a per-class topological position: every edge of
    /// the realization strictly decreases `pos`, reference gates sit at
    /// `(index + 1) << 32` so the gaps leave room to slot new trees
    /// directly below their consumer. Passes repeat until a fixed point
    /// (bounded), and every accepted switch strictly decreases the true
    /// DAG cost — the result is never worse than the reference.
    ///
    /// Returns `None` when an output class has no reference spelling
    /// (cannot happen for a graph loaded via
    /// [`EGraph::from_mig_with_classes`]; guarded anyway).
    fn refine(&self, reference: &Mig, classes: &[Signal]) -> Option<Mig> {
        let eg = self.eg;
        let weights = self.weights;
        let n = eg.num_classes();
        let gate_w = weights.gate.max(1);
        let local = |tri: &[Signal; 3]| -> u64 {
            gate_w
                .saturating_add(weights.write.saturating_mul(local_write_cost(tri)))
                .saturating_add(weights.comp.saturating_mul(local_comp_edges(tri)))
        };
        let is_gate = |c: usize| !eg.is_leaf_class(NodeId::new(c as u32));

        // The reference spelling and topological position per class:
        // the first original gate that materializes it (duplicates of
        // one class share the first gate, so the initial realization is
        // already class-deduplicated).
        let mut sel: Vec<Option<Spelling>> = vec![None; n];
        let mut pos = vec![u64::MAX; n];
        for g in reference.gates() {
            let r = eg.canonical(classes[g.index()]);
            let rc = r.node().index();
            if !is_gate(rc) || sel[rc].is_some() {
                continue;
            }
            let tri = reference.children(g).map(|s| {
                eg.canonical(classes[s.node().index()])
                    .complement_if(s.is_complement())
            });
            sel[rc] = Some(Spelling {
                tri,
                flip: r.is_complement(),
            });
            pos[rc] = (g.index() as u64 + 1) << 32;
        }

        // Reference counts over the output cone (gate classes only).
        let mut refs = vec![0u32; n];
        let mut stack: Vec<usize> = Vec::new();
        let reach = |c: usize, refs: &mut Vec<u32>, stack: &mut Vec<usize>| {
            refs[c] += 1;
            if refs[c] == 1 {
                stack.push(c);
            }
        };
        for &out in self.outputs {
            let c = eg.canonical(out).node().index();
            if is_gate(c) {
                sel[c]?;
                reach(c, &mut refs, &mut stack);
            }
        }
        while let Some(c) = stack.pop() {
            let sp = sel[c].expect("alive gate classes have a reference spelling");
            for s in sp.tri {
                let ch = s.node().index();
                if !s.is_constant() && is_gate(ch) {
                    sel[ch]?;
                    reach(ch, &mut refs, &mut stack);
                }
            }
        }

        // Scratch: the dry-run release walk (`dec`/`bump`), the
        // marginal-tree walk (`seen` plus its touched list), and the
        // list of classes a switch would newly materialize.
        let mut dec = vec![0u32; n];
        let mut bump = vec![0u32; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut seen = vec![false; n];
        let mut tseen: Vec<usize> = Vec::new();
        let mut tree: Vec<usize> = Vec::new();
        for _ in 0..8 {
            // Marginal costs for this pass: with every alive class
            // free, the sweep's choice for a not-yet-realized class is
            // the cheapest tree grounded in what the realization
            // already has.
            let free: Vec<bool> = (0..n).map(|c| refs[c] > 0).collect();
            let mchoice = relax(eg, weights, &self.level, &self.order, &free);
            let mut alive_order: Vec<usize> = (0..n)
                .filter(|&c| refs[c] > 0 && sel[c].is_some())
                .collect();
            alive_order.sort_by_key(|&c| (pos[c], c));
            let mut improved = false;
            for &r in &alive_order {
                if refs[r] == 0 {
                    continue;
                }
                let cur = sel[r].expect("alive classes stay selected");
                let cur_local = local(&cur.tri);
                for &e in &eg.class_nodes[r] {
                    if eg.dead[e.index()] {
                        continue;
                    }
                    let tri = eg.nodes[e.index()];
                    let flip = eg.node_class[e.index()].is_complement();
                    if tri == cur.tri && flip == cur.flip {
                        continue;
                    }
                    // Screen: every child must be a leaf, an alive
                    // class strictly earlier in topological order, or a
                    // class the marginal sweep can realize.
                    let mut valid = tri.iter().all(|s| {
                        let c = s.node().index();
                        s.is_constant()
                            || !is_gate(c)
                            || (refs[c] > 0 && pos[c] < pos[r])
                            || (refs[c] == 0 && mchoice[c].is_some())
                    });
                    if !valid {
                        continue;
                    }
                    // Walk the marginal trees of the not-yet-realized
                    // children: shared nodes count once, references
                    // into alive classes are bumped for the release dry
                    // run, and every alive class the trees lean on must
                    // sit strictly below the consumer.
                    let mut add = 0u64;
                    let mut maxref = 0u64;
                    tree.clear();
                    for s in &tri {
                        let c = s.node().index();
                        if !s.is_constant() && is_gate(c) && refs[c] == 0 && !seen[c] {
                            seen[c] = true;
                            tseen.push(c);
                            stack.push(c);
                        }
                    }
                    'walk: while let Some(c) = stack.pop() {
                        let Some(ce) = mchoice[c] else {
                            valid = false;
                            break;
                        };
                        add = add.saturating_add(local(&eg.nodes[ce.index()]));
                        tree.push(c);
                        for s in &eg.nodes[ce.index()] {
                            let cc = s.node().index();
                            if s.is_constant() || !is_gate(cc) {
                                continue;
                            }
                            if refs[cc] > 0 {
                                if pos[cc] >= pos[r] {
                                    valid = false;
                                    break 'walk;
                                }
                                maxref = maxref.max(pos[cc]);
                                bump[cc] += 1;
                                touched.push(cc);
                            } else if !seen[cc] {
                                seen[cc] = true;
                                tseen.push(cc);
                                stack.push(cc);
                            }
                        }
                    }
                    stack.clear();
                    // New tree nodes slot in at `maxref + level`; the
                    // whole band must fit strictly below the consumer.
                    if valid && !tree.is_empty() {
                        let span = tree
                            .iter()
                            .map(|&t| self.level[t] as u64)
                            .max()
                            .unwrap_or(0);
                        if maxref.saturating_add(span) >= pos[r] {
                            valid = false;
                        }
                    }
                    let mut delta = 0i128;
                    if valid {
                        // Exact net change: new local terms plus the
                        // new trees, minus old local terms, minus the
                        // cone the old children release (with all new
                        // references already counted).
                        for s in &tri {
                            let c = s.node().index();
                            if !s.is_constant() && is_gate(c) && refs[c] > 0 {
                                bump[c] += 1;
                                touched.push(c);
                            }
                        }
                        let mut released = 0u64;
                        for s in &cur.tri {
                            let c = s.node().index();
                            if !s.is_constant() && is_gate(c) {
                                stack.push(c);
                            }
                        }
                        while let Some(c) = stack.pop() {
                            dec[c] += 1;
                            touched.push(c);
                            if dec[c] == refs[c] + bump[c] {
                                let sp = sel[c].expect("alive gate classes have a spelling");
                                released = released.saturating_add(local(&sp.tri));
                                for s in sp.tri {
                                    let ch = s.node().index();
                                    if !s.is_constant() && is_gate(ch) {
                                        stack.push(ch);
                                    }
                                }
                            }
                        }
                        delta = (local(&tri).saturating_add(add)) as i128
                            - cur_local as i128
                            - released as i128;
                    }
                    for &c in &touched {
                        dec[c] = 0;
                        bump[c] = 0;
                    }
                    touched.clear();
                    for &c in &tseen {
                        seen[c] = false;
                    }
                    tseen.clear();
                    if !valid || delta >= 0 {
                        continue;
                    }
                    // Apply. Materialize the new trees first…
                    for &t in &tree {
                        let te = mchoice[t].expect("walked tree nodes have a choice");
                        sel[t] = Some(Spelling {
                            tri: eg.nodes[te.index()],
                            flip: eg.node_class[te.index()].is_complement(),
                        });
                        pos[t] = maxref + self.level[t] as u64;
                    }
                    // …then count every new edge…
                    for s in &tri {
                        let c = s.node().index();
                        if !s.is_constant() && is_gate(c) {
                            refs[c] += 1;
                        }
                    }
                    for &t in &tree {
                        let sp = sel[t].expect("just materialized");
                        for s in sp.tri {
                            let c = s.node().index();
                            if !s.is_constant() && is_gate(c) {
                                refs[c] += 1;
                            }
                        }
                    }
                    // …and release the old cone.
                    for s in &cur.tri {
                        let c = s.node().index();
                        if !s.is_constant() && is_gate(c) {
                            stack.push(c);
                        }
                    }
                    while let Some(c) = stack.pop() {
                        refs[c] -= 1;
                        if refs[c] == 0 {
                            let sp = sel[c].expect("released classes had a spelling");
                            for s in sp.tri {
                                let ch = s.node().index();
                                if !s.is_constant() && is_gate(ch) {
                                    stack.push(ch);
                                }
                            }
                        }
                    }
                    sel[r] = Some(Spelling { tri, flip });
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }

        Some(realize(eg, self.outputs, &sel))
    }
}

/// The minimum realization height of every class: leaves are 0, a gate
/// class is `1 + max(child levels)` minimized over its live e-nodes,
/// `u32::MAX` for classes with no realization over the leaves. A plain
/// monotone fixed point — values only decrease — so at convergence
/// every reachable class has at least one e-node whose children all
/// have strictly smaller level.
fn levels(eg: &EGraph) -> Vec<u32> {
    let n = eg.num_classes();
    let mut level = vec![u32::MAX; n];
    for (id, l) in level.iter_mut().enumerate() {
        if eg.is_leaf_class(NodeId::new(id as u32)) {
            *l = 0;
        }
    }
    loop {
        let mut changed = false;
        for e in 0..eg.nodes.len() {
            if eg.dead[e] {
                continue;
            }
            let cls = eg.node_class[e].node().index();
            if eg.is_leaf_class(NodeId::new(cls as u32)) {
                continue;
            }
            let mut h = 0u32;
            let mut finite = true;
            for s in &eg.nodes[e] {
                let l = level[s.node().index()];
                if l == u32::MAX {
                    finite = false;
                    break;
                }
                h = h.max(l);
            }
            if finite && h + 1 < level[cls] {
                level[cls] = h + 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    level
}

/// One cost sweep in level order: for each class, the cheapest e-node
/// among those whose children all sit at strictly smaller levels (the
/// level fixed point guarantees at least one). Classes marked `free`
/// contribute cost 0 as children — they are already materialized in the
/// realization being refined. Ties keep the earliest-interned e-node.
fn relax(
    eg: &EGraph,
    weights: &CostWeights,
    level: &[u32],
    order: &[usize],
    free: &[bool],
) -> Vec<Option<NodeId>> {
    let gate_w = weights.gate.max(1);
    let n = eg.num_classes();
    let mut cost = vec![u64::MAX; n];
    let mut choice: Vec<Option<NodeId>> = vec![None; n];
    for (id, c) in cost.iter_mut().enumerate() {
        if eg.is_leaf_class(NodeId::new(id as u32)) {
            *c = 0;
        }
    }
    for &cls in order {
        for &e in &eg.class_nodes[cls] {
            if eg.dead[e.index()] {
                continue;
            }
            let tri = &eg.nodes[e.index()];
            let mut total = gate_w
                .saturating_add(weights.write.saturating_mul(local_write_cost(tri)))
                .saturating_add(weights.comp.saturating_mul(local_comp_edges(tri)));
            let mut descends = true;
            for s in tri {
                let c = s.node().index();
                if level[c] >= level[cls] {
                    descends = false;
                    break;
                }
                if !free[c] {
                    total = total.saturating_add(cost[c]);
                }
            }
            if !descends {
                continue;
            }
            let total = total.min(COST_CAP);
            if total < cost[cls] {
                cost[cls] = total;
                choice[cls] = Some(e);
            }
        }
    }
    choice
}

/// Rebuilds a [`Mig`] bottom-up along the chosen representatives and
/// returns it with the set of classes the realization materialized.
/// Iterative post-order — extracted graphs can be thousands of levels
/// deep.
fn rebuild(eg: &EGraph, outputs: &[Signal], choice: &[Option<NodeId>]) -> (Mig, Vec<bool>) {
    let n = eg.num_classes();
    let mut mig = Mig::new(eg.num_inputs());
    let mut memo: Vec<Option<Signal>> = vec![None; n];
    memo[0] = Some(Signal::FALSE);
    for i in 0..eg.num_inputs() {
        memo[i + 1] = Some(mig.input(i));
    }
    let mut used = vec![false; n];
    let mut stack: Vec<(usize, bool)> = Vec::new();
    for &out in outputs {
        let root = eg.canonical(out);
        stack.push((root.node().index(), false));
        while let Some((cls, expanded)) = stack.pop() {
            if memo[cls].is_some() {
                continue;
            }
            let e = choice[cls].expect("output class has no realization over the leaves");
            let tri = eg.nodes[e.index()];
            if expanded {
                let sig = |s: Signal| {
                    memo[s.node().index()]
                        .expect("children are built before their parent")
                        .complement_if(s.is_complement())
                };
                let node = mig.add_maj(sig(tri[0]), sig(tri[1]), sig(tri[2]));
                // The e-node computes its class xor its stored polarity.
                memo[cls] = Some(node.complement_if(eg.node_class[e.index()].is_complement()));
                used[cls] = true;
            } else {
                stack.push((cls, true));
                for s in tri {
                    if memo[s.node().index()].is_none() {
                        stack.push((s.node().index(), false));
                    }
                }
            }
        }
        let built = memo[root.node().index()].expect("root was just built");
        mig.add_output(built.complement_if(root.is_complement()));
    }
    (mig, used)
}

/// Number of complemented non-constant children of a stored triple. Thanks
/// to the Ω.I polarity canonicalization every stored e-node has 0 or 1.
fn local_comp_edges(triple: &[Signal; 3]) -> u64 {
    triple
        .iter()
        .filter(|s| !s.is_constant() && s.is_complement())
        .count() as u64
}

/// RM3 instruction estimate for one gate: 1 when exactly one non-constant
/// child is complemented (it becomes the inverted operand), 3 otherwise
/// (preset + load + main).
fn local_write_cost(triple: &[Signal; 3]) -> u64 {
    if local_comp_edges(triple) == 1 {
        1
    } else {
        3
    }
}

/// The realization's true weighted DAG cost: every gate charged once.
fn dag_cost(mig: &Mig, weights: &CostWeights) -> u64 {
    let gate_w = weights.gate.max(1);
    let mut total = 0u64;
    for g in mig.gates() {
        let tri = mig.children(g);
        total = total
            .saturating_add(gate_w)
            .saturating_add(weights.write.saturating_mul(local_write_cost(&tri)))
            .saturating_add(weights.comp.saturating_mul(local_comp_edges(&tri)));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate::{saturate, Budget};
    use rlim_mig::rewrite::rules::omega_rules;
    use rlim_mig::simulate::equiv_random;

    fn identical(mig: &Mig, weights: &CostWeights) -> Mig {
        let (mut eg, outs) = EGraph::from_mig(mig);
        eg.rebuild();
        extract(&eg, &outs, weights)
    }

    #[test]
    fn local_terms_charge_one_write_only_for_one_complemented_child() {
        let mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let cases = [
            ([a, !b, c], 1, 1),
            ([a, b, c], 0, 3),
            ([!a, !b, c], 2, 3),
            ([Signal::TRUE, !b, c], 1, 1),
            ([Signal::TRUE, b, c], 0, 3),
        ];
        for (tri, comp, write) in cases {
            assert_eq!(local_comp_edges(&tri), comp, "{tri:?}");
            assert_eq!(local_write_cost(&tri), write, "{tri:?}");
        }
    }

    #[test]
    fn untouched_graph_round_trips() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let (sum, carry) = mig.full_adder(a, b, c);
        mig.add_output(sum);
        mig.add_output(carry);
        let out = identical(&mig, &CostWeights::default());
        assert_eq!(out.num_gates(), mig.num_gates());
        assert_eq!(out.num_outputs(), 2);
        assert!(equiv_random(&mig, &out, 64, 1).is_equal());
    }

    #[test]
    fn extraction_picks_the_cheaper_spelling() {
        // Two spellings of one function, merged by hand; the extractor
        // must pick the single-gate one.
        let mut mig = Mig::new(4);
        let [x, u, y, z] = [mig.input(0), mig.input(1), mig.input(2), mig.input(3)];
        let inner = mig.add_maj(y, u, z);
        let deep = mig.add_maj(x, u, inner);
        mig.add_output(deep);
        let (mut eg, outs) = EGraph::from_mig(&mig);
        let cheap = eg.add(eg.input(0), eg.input(1), eg.input(3));
        eg.union(outs[0], cheap);
        eg.rebuild();
        let out = extract(&eg, &outs, &CostWeights::default());
        assert_eq!(out.num_gates(), 1, "the merged single-gate spelling wins");
    }

    #[test]
    fn saturation_plus_extraction_preserves_semantics() {
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut mig = Mig::new(5);
            let mut pool: Vec<Signal> = mig.inputs().collect();
            for _ in 0..40 {
                let pick = |rng: &mut rand_chacha::ChaCha8Rng, pool: &[Signal]| {
                    pool[rng.gen_range(0..pool.len())].complement_if(rng.gen_bool(0.3))
                };
                let (a, b, c) = (
                    pick(&mut rng, &pool),
                    pick(&mut rng, &pool),
                    pick(&mut rng, &pool),
                );
                let g = mig.add_maj(a, b, c);
                pool.push(g);
            }
            for _ in 0..3 {
                let s = pool[rng.gen_range(0..pool.len())];
                mig.add_output(s.complement_if(rng.gen_bool(0.5)));
            }
            let (mut eg, outs) = EGraph::from_mig(&mig);
            let budget = Budget {
                max_nodes: 1_500,
                max_iters: 3,
            };
            saturate(&mut eg, &omega_rules(), &budget);
            for &weights in &[CostWeights::area(), CostWeights::endurance()] {
                let out = extract(&eg, &outs, &weights);
                assert!(
                    equiv_random(&mig, &out, 256, seed).is_equal(),
                    "seed {seed}: extraction changed semantics"
                );
            }
        }
    }

    #[test]
    fn deep_graphs_cap_the_cost_but_still_extract() {
        // Tree costs grow exponentially with depth; a ~200-level chain
        // overflows u64 long before the end. Extraction must cap the
        // estimate and still rebuild the whole graph.
        let mut mig = Mig::new(4);
        let inputs: Vec<Signal> = mig.inputs().collect();
        let mut prev = inputs[0];
        let mut cur = mig.add_maj(inputs[0], inputs[1], inputs[2]);
        for i in 0..200 {
            let next = mig.add_maj(cur, prev, inputs[i % 4].complement_if(i % 3 == 0));
            prev = cur;
            cur = next;
        }
        mig.add_output(cur);
        for &weights in &[CostWeights::area(), CostWeights::endurance()] {
            let out = identical(&mig, &weights);
            assert!(equiv_random(&mig, &out, 128, 11).is_equal());
        }
    }

    #[test]
    fn dual_polarity_outputs_extract_correctly() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        // Force a polarity-canonicalized e-node: two complemented
        // children flips the stored spelling.
        let g = mig.add_maj(!a, !b, c);
        mig.add_output(g);
        mig.add_output(!g);
        let out = identical(&mig, &CostWeights::default());
        assert!(equiv_random(&mig, &out, 64, 3).is_equal());
    }
}
