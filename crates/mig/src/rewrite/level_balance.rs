//! Level-balancing Ω.A: the paper's §III-B4 future-work objective.
//!
//! Blocked RRAMs arise when a node's value must wait many levels before its
//! fanout target is computed; the paper notes that "the issue of blocked
//! RRAMs could be considered as an objective during MIG rewriting to keep
//! the level differences between connected nodes low", while warning that
//! such rewriting may cost instructions. This pass implements that
//! objective: the associativity identity
//!
//! ```text
//! ⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩
//! ```
//!
//! is applied whenever the *inner* gate hides a signal `z` that is deeper
//! than the outer signal `x` — swapping them moves the late-arriving signal
//! up to the top gate (consumed sooner after it is produced) and pushes the
//! early signal down (less waiting). Unlike the conservative sharing-only
//! Ω.A pass, no hash hit is required; the inner gate must simply be
//! single-fanout so the restructuring cannot duplicate logic.

use crate::mig::Mig;
use crate::rewrite::associativity::find_swap;
use crate::rewrite::{add_nested, Built, Rule};
use crate::signal::Signal;
use crate::view::StructuralView;

/// Level of a signal in the graph matched against, memoised per node.
fn level_of(built: &impl Built, cache: &mut Vec<u32>, s: Signal) -> u32 {
    let idx = s.node().index();
    if idx >= cache.len() {
        cache.resize(idx + 1, u32::MAX);
    }
    if cache[idx] != u32::MAX {
        return cache[idx];
    }
    let level = match built.gate_children(s) {
        Some(children) => {
            1 + children
                .into_iter()
                .map(|c| level_of(built, cache, c))
                .max()
                .expect("gates have three children")
        }
        None => 0,
    };
    cache[idx] = level;
    level
}

/// The level-balancing Ω.A rule over a level memo of the graph it
/// matches against. A match is the outer pair `z u` and the new inner
/// triple `y u x`.
pub(super) struct LevelBalance<'a> {
    levels: &'a mut Vec<u32>,
}

impl<'a> LevelBalance<'a> {
    /// The rule with an emptied memo, for one rebuild or one scan.
    pub(super) fn new(levels: &'a mut Vec<u32>) -> Self {
        levels.clear();
        LevelBalance { levels }
    }
}

impl Rule for LevelBalance<'_> {
    type Match = ([Signal; 2], [Signal; 3]);

    fn find(
        &mut self,
        built: &impl Built,
        view: &StructuralView,
        children: [Signal; 3],
        mapped: [Signal; 3],
    ) -> Option<Self::Match> {
        let levels = &mut *self.levels;
        find_swap(built, view, children, mapped, |x, u, [r0, r1]| {
            // Pick the deeper of the two remaining inner children as z.
            let (y, z) = {
                let l0 = level_of(built, levels, r0);
                let l1 = level_of(built, levels, r1);
                if l0 >= l1 {
                    (r1, r0)
                } else {
                    (r0, r1)
                }
            };
            let lz = level_of(built, levels, z);
            let lx = level_of(built, levels, x);
            // Swap only when it strictly narrows the span: the hidden
            // signal is deeper than the exposed one.
            (lz > lx).then_some(([z, u], [y, u, x]))
        })
    }

    fn apply(&mut self, new: &mut Mig, (outer, inner): Self::Match) -> Signal {
        add_nested(new, outer, inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::equiv_random;

    /// Single-pass entry point (shadows the buffer-reusing `super::run`).
    fn run(mig: &Mig) -> Mig {
        crate::rewrite::Pass::LevelBalance.run(mig)
    }

    #[test]
    fn deep_signal_is_pulled_up() {
        // z is 2 levels deep; x is an input. ⟨x u ⟨y u z⟩⟩ buries z one
        // level further — the pass lifts it to the top gate.
        let mut mig = Mig::new(5);
        let s: Vec<Signal> = mig.inputs().collect();
        let (x, u, y) = (s[0], s[1], s[2]);
        let d1 = mig.add_maj(s[2], s[3], s[4]);
        let z = mig.add_maj(d1, s[3], !s[0]); // level 2
        let inner = mig.add_maj(y, u, z);
        let f = mig.add_maj(x, u, inner);
        mig.add_output(f);

        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 31).is_equal());

        // Lifting z out of the inner gate un-buries the deep path: the
        // root consumes z directly and overall depth shrinks 4 → 3.
        let _ = inner;
        assert_eq!(mig.depth(), 4);
        assert_eq!(out.depth(), 3, "deep signal now feeds the root directly");
    }

    #[test]
    fn balanced_children_untouched() {
        // x and z at the same level: no swap.
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let inner = mig.add_maj(s[2], s[1], s[3]);
        let f = mig.add_maj(s[0], s[1], inner);
        mig.add_output(f);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 32).is_equal());
        assert_eq!(out.num_live_gates(), 2);
        assert_eq!(out.depth(), mig.depth());
    }

    #[test]
    fn shared_inner_gate_not_restructured() {
        let mut mig = Mig::new(5);
        let s: Vec<Signal> = mig.inputs().collect();
        let deep = mig.add_maj(s[2], s[3], s[4]);
        let z = mig.add_maj(deep, s[3], s[0]);
        let inner = mig.add_maj(s[2], s[1], z);
        let f = mig.add_maj(s[0], s[1], inner);
        mig.add_output(f);
        mig.add_output(inner); // second fanout pins the inner gate
        let before = mig.num_live_gates();
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 33).is_equal());
        assert_eq!(out.num_live_gates(), before);
    }

    #[test]
    fn preserves_function_on_random_graphs() {
        for seed in 0..6 {
            let mig = crate::rewrite::tests::random_mig(seed, 9, 250, 7);
            let out = run(&mig);
            assert!(
                equiv_random(&mig, &out, 16, seed ^ 0x1E7E1).is_equal(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn never_grows_the_graph() {
        for seed in 0..4 {
            let mig = crate::rewrite::tests::random_mig(seed + 50, 10, 300, 8);
            let out = run(&mig);
            assert!(
                out.num_live_gates() <= mig.num_live_gates(),
                "seed {seed}: {} -> {}",
                mig.num_live_gates(),
                out.num_live_gates()
            );
        }
    }
}
