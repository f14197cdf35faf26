//! Saturation: match the Ω rules against every e-class, instantiate the
//! right-hand sides, union, rebuild — until nothing new merges or the
//! budgets run out.
//!
//! Matching is structural backtracking over an obligation stack. A
//! majority pattern matches an e-class by trying every live e-node of
//! the class under **all six child permutations** (stored triples are
//! sorted, patterns are written in axiom order, and majority is fully
//! symmetric), and in **either polarity**: an e-node holding `¬class`
//! serves a positive obligation through its dual (self-duality again).
//! Variable obligations bind first-come and fail on conflicting
//! re-binds, which is what makes shared-variable rules like Ω.D
//! selective.
//!
//! Everything iterates in deterministic order — rules as listed, classes
//! by ascending id, e-nodes in insertion order, permutations in a fixed
//! table — so a saturation run is a pure function of the input graph and
//! budgets. A round matches against the graph as it stood when the round
//! began and applies each match as soon as it is found, so it finds no
//! match that a tripped budget would discard. Budgets bound the blow-up:
//! `max_nodes` stops rule application once the e-graph holds that many
//! live e-nodes (the expanding Ω.D direction grows fast), `max_iters`
//! bounds the match/apply/rebuild rounds, and a per-round match cap,
//! proportional to the node budget, ends a round that finds more
//! matches than that.

use rlim_mig::rewrite::rules::{Pattern, RewriteRule, MAX_VARS};
use rlim_mig::{NodeId, Signal};

use crate::graph::EGraph;

/// Saturation budgets. Defaults are deliberately modest: enough to
/// close small graphs, a bounded exploration on large ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Stop applying rules once this many live e-nodes exist.
    pub max_nodes: usize,
    /// Maximum match/apply/rebuild rounds.
    pub max_iters: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_nodes: 50_000,
            max_iters: 4,
        }
    }
}

/// What a saturation run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaturationReport {
    /// Rounds executed.
    pub iterations: usize,
    /// Class merges performed in total.
    pub unions: usize,
    /// Live e-nodes at the end.
    pub enodes: usize,
    /// True when the run stopped because no rule produced a new merge
    /// (a genuine fixed point), false when a budget cut it off.
    pub saturated: bool,
}

/// A variable binding: signals by variable index.
type Binding = [Option<Signal>; MAX_VARS];

/// The six permutations of three children.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Binds variable `var` to `want`, or checks an earlier binding: false
/// when `var` is already bound to another signal. Variables bind
/// first-come, so the binding a match ends with does not depend on the
/// order its variable obligations are met in.
fn bind(binding: &mut Binding, var: u8, want: Signal) -> bool {
    let slot = &mut binding[var as usize];
    match *slot {
        Some(bound) => bound == want,
        None => {
            *slot = Some(want);
            true
        }
    }
}

/// Matches `pattern` against the class signal `target`, extending
/// `binding`; complete bindings are appended to `out` (up to `cap`).
/// Class members are read from `classes`, the round's frozen copy of
/// the e-graph's class lists.
///
/// A majority pattern meets its variable children as soon as it picks
/// an e-node and a permutation, and defers only its majority children to
/// the obligation stack, so a permutation that contradicts a bound
/// variable is dropped before any child class is expanded. Variable
/// obligations open no choice, so the matches and their order are those
/// of meeting every child through the stack.
fn match_class(
    eg: &EGraph,
    classes: &[Vec<NodeId>],
    obligations: &mut Vec<(&Pattern, Signal)>,
    binding: &mut Binding,
    out: &mut Vec<Binding>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    let Some((pattern, target)) = obligations.pop() else {
        out.push(*binding);
        return;
    };
    match pattern {
        Pattern::Var { var, complement } => {
            let saved = *binding;
            if bind(binding, *var, target.complement_if(*complement)) {
                match_class(eg, classes, obligations, binding, out, cap);
            }
            *binding = saved;
        }
        Pattern::Maj {
            children,
            complement,
        } => {
            let want = target.complement_if(*complement);
            for &e in &classes[want.node().index()] {
                // The e-node computes its class xor its stored polarity;
                // serving `want` may require the dual spelling.
                let polarity = eg.node_class[e.index()].is_complement();
                let dual = polarity ^ want.is_complement();
                let tri = eg.nodes[e.index()];
                let t = [
                    tri[0].complement_if(dual),
                    tri[1].complement_if(dual),
                    tri[2].complement_if(dual),
                ];
                for perm in &PERMS {
                    let saved = *binding;
                    let consistent = (0..3).all(|k| match &children[k] {
                        Pattern::Var { var, complement } => {
                            bind(binding, *var, t[perm[k]].complement_if(*complement))
                        }
                        Pattern::Maj { .. } => true,
                    });
                    if consistent {
                        let depth = obligations.len();
                        for k in 0..3 {
                            if let Pattern::Maj { .. } = children[k] {
                                obligations.push((&children[k], t[perm[k]]));
                            }
                        }
                        match_class(eg, classes, obligations, binding, out, cap);
                        obligations.truncate(depth);
                    }
                    *binding = saved;
                }
            }
        }
    }
    obligations.push((pattern, target));
}

/// Instantiates `pattern` under `binding`, creating e-nodes as needed.
fn instantiate(eg: &mut EGraph, pattern: &Pattern, binding: &Binding) -> Signal {
    match pattern {
        Pattern::Var { var, complement } => binding[*var as usize]
            .expect("rule rhs uses a variable the lhs never bound")
            .complement_if(*complement),
        Pattern::Maj {
            children,
            complement,
        } => {
            let a = instantiate(eg, &children[0], binding);
            let b = instantiate(eg, &children[1], binding);
            let c = instantiate(eg, &children[2], binding);
            eg.add(a, b, c).complement_if(*complement)
        }
    }
}

/// Runs equality saturation over `rules` within `budget`.
pub fn saturate(eg: &mut EGraph, rules: &[RewriteRule], budget: &Budget) -> SaturationReport {
    eg.rebuild();
    let mut report = SaturationReport::default();
    let match_cap = budget.max_nodes.saturating_mul(4).max(1024);
    let mut frozen: Vec<Vec<NodeId>> = Vec::new();
    let mut obligations: Vec<(&Pattern, Signal)> = Vec::new();
    let mut bindings: Vec<Binding> = Vec::new();
    for _ in 0..budget.max_iters {
        if eg.num_enodes() >= budget.max_nodes {
            break;
        }
        report.iterations += 1;
        // Every match of the round is found in the graph as it stood
        // when the round began. Applying a match appends e-nodes and
        // moves e-nodes between class lists, but leaves existing e-nodes
        // untouched until `rebuild`, so the frozen class lists are all
        // the matcher needs to see the pre-round graph.
        frozen.clone_from(&eg.class_nodes);
        // Classes outer, rules inner: if the cap trips, coverage is cut
        // off by region rather than starving later rules entirely. Each
        // match is applied as soon as it is found: instantiate the rhs
        // and merge it with the matched class. Unions performed early
        // are visible to the `add`s of later instantiations (they
        // canonicalize on entry).
        let mut found = 0usize;
        let mut merged = 0usize;
        'round: for (cls, members) in frozen.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let target = Signal::new(NodeId::new(cls as u32), false);
            for rule in rules {
                bindings.clear();
                obligations.push((&rule.lhs, target));
                let mut binding: Binding = [None; MAX_VARS];
                let cap = match_cap - found;
                match_class(
                    eg,
                    &frozen,
                    &mut obligations,
                    &mut binding,
                    &mut bindings,
                    cap,
                );
                obligations.clear();
                for b in &bindings {
                    if eg.num_enodes() >= budget.max_nodes {
                        break 'round;
                    }
                    let rhs = instantiate(eg, &rule.rhs, b);
                    if eg.union(target, rhs) {
                        merged += 1;
                    }
                    found += 1;
                    if found >= match_cap {
                        break 'round;
                    }
                }
            }
        }
        eg.rebuild();
        report.unions += merged;
        if merged == 0 {
            report.saturated = true;
            break;
        }
    }
    report.enodes = eg.num_enodes();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_mig::rewrite::rules::omega_rules;
    use rlim_mig::Mig;

    fn saturated(mig: &Mig, budget: &Budget) -> (EGraph, Vec<Signal>, SaturationReport) {
        let (mut eg, outs) = EGraph::from_mig(mig);
        let report = saturate(&mut eg, &omega_rules(), budget);
        let outs = outs.iter().map(|&s| eg.canonical(s)).collect();
        (eg, outs, report)
    }

    #[test]
    fn associativity_merges_the_two_orientations() {
        // ⟨x u ⟨y u z⟩⟩ and ⟨z u ⟨y u x⟩⟩ built separately must end up
        // in one class.
        let mut mig = Mig::new(4);
        let [x, u, y, z] = [mig.input(0), mig.input(1), mig.input(2), mig.input(3)];
        let inner_a = mig.add_maj(y, u, z);
        let lhs = mig.add_maj(x, u, inner_a);
        let inner_b = mig.add_maj(y, u, x);
        let rhs = mig.add_maj(z, u, inner_b);
        mig.add_output(lhs);
        mig.add_output(rhs);
        // The expanding Ω.D direction keeps the engine from a true
        // fixed point, so bound the run tightly instead; one round of
        // Ω.A is all the merge needs.
        let budget = Budget {
            max_nodes: 500,
            max_iters: 2,
        };
        let (eg, outs, report) = saturated(&mig, &budget);
        assert_eq!(outs[0], outs[1], "Ω.A must merge the two spellings");
        assert!(report.unions >= 1);
        assert!(eg.num_enodes() >= 4);
    }

    #[test]
    fn distributivity_fuses_shared_pairs() {
        // ⟨⟨x y u⟩ ⟨x y v⟩ z⟩ ≡ ⟨x y ⟨u v z⟩⟩.
        let mut mig = Mig::new(5);
        let [x, y, u, v, z] = [
            mig.input(0),
            mig.input(1),
            mig.input(2),
            mig.input(3),
            mig.input(4),
        ];
        let g1 = mig.add_maj(x, y, u);
        let g2 = mig.add_maj(x, y, v);
        let wide = mig.add_maj(g1, g2, z);
        let inner = mig.add_maj(u, v, z);
        let fused = mig.add_maj(x, y, inner);
        mig.add_output(wide);
        mig.add_output(fused);
        let budget = Budget {
            max_nodes: 500,
            max_iters: 2,
        };
        let (_, outs, _) = saturated(&mig, &budget);
        assert_eq!(outs[0], outs[1], "Ω.D must merge the two spellings");
    }

    #[test]
    fn psi_c_substitution_closes() {
        // ⟨x u ⟨y ū z⟩⟩ ≡ ⟨x u ⟨y x z⟩⟩.
        let mut mig = Mig::new(4);
        let [x, u, y, z] = [mig.input(0), mig.input(1), mig.input(2), mig.input(3)];
        let inner_a = mig.add_maj(y, !u, z);
        let lhs = mig.add_maj(x, u, inner_a);
        let inner_b = mig.add_maj(y, x, z);
        let rhs = mig.add_maj(x, u, inner_b);
        mig.add_output(lhs);
        mig.add_output(rhs);
        let budget = Budget {
            max_nodes: 500,
            max_iters: 2,
        };
        let (_, outs, _) = saturated(&mig, &budget);
        assert_eq!(outs[0], outs[1], "Ψ.C must merge the two spellings");
    }

    /// E-nodes one instantiation of `pattern` can add.
    fn majorities(pattern: &Pattern) -> usize {
        match pattern {
            Pattern::Var { .. } => 0,
            Pattern::Maj { children, .. } => 1 + children.iter().map(majorities).sum::<usize>(),
        }
    }

    #[test]
    fn node_budget_stops_growth() {
        let mut mig = Mig::new(6);
        let inputs: Vec<Signal> = mig.inputs().collect();
        let mut acc = mig.add_maj(inputs[0], inputs[1], inputs[2]);
        for w in inputs.windows(3) {
            acc = mig.add_maj(acc, w[1], w[2]);
        }
        mig.add_output(acc);
        let rules = omega_rules();
        let widest_rhs = rules.iter().map(|r| majorities(&r.rhs)).max().unwrap();
        let start = EGraph::from_mig(&mig).0.num_enodes();
        for max_nodes in 1..=60 {
            let budget = Budget {
                max_nodes,
                max_iters: 8,
            };
            let (eg, _, report) = saturated(&mig, &budget);
            // The budget is checked before every application, so growth
            // stops at most one right-hand side past it.
            assert!(
                eg.num_enodes() <= start.max(max_nodes) + widest_rhs,
                "budget {max_nodes}: {} e-nodes from {start}",
                eg.num_enodes()
            );
            assert_eq!(report.enodes, eg.num_enodes());
            assert!(report.iterations <= 8);
            if max_nodes <= start {
                assert_eq!(report.iterations, 0, "budget {max_nodes} starts spent");
            } else if !report.saturated {
                assert!(eg.num_enodes() >= max_nodes || report.iterations == 8);
            }
        }
    }

    #[test]
    fn saturation_is_deterministic() {
        let mut mig = Mig::new(5);
        let [a, b, c, d, e] = [
            mig.input(0),
            mig.input(1),
            mig.input(2),
            mig.input(3),
            mig.input(4),
        ];
        let g1 = mig.add_maj(a, b, c);
        let g2 = mig.add_maj(g1, !d, e);
        let g3 = mig.add_maj(g2, g1, !a);
        mig.add_output(g3);
        let budget = Budget {
            max_nodes: 200,
            max_iters: 6,
        };
        let (eg1, outs1, r1) = saturated(&mig, &budget);
        let (eg2, outs2, r2) = saturated(&mig, &budget);
        assert_eq!(r1, r2);
        assert_eq!(outs1, outs2);
        assert_eq!(eg1.nodes, eg2.nodes);
        assert_eq!(eg1.node_class, eg2.node_class);
    }
}
