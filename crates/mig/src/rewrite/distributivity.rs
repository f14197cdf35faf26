//! Ω.D applied right-to-left: `⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩`.
//!
//! Merging two inner gates that share two children saves one node whenever
//! the inner gates are not otherwise used. The complemented variant
//! `⟨⟨xyu⟩̄ ⟨xyv⟩̄ z⟩ = ⟨x̄ ȳ ⟨ū v̄ z⟩⟩` (both outer edges complemented) is
//! handled by flipping through Ω.I first.

use crate::mig::Mig;
use crate::rewrite::{add_nested, single_fanout, Built, Rule};
use crate::signal::Signal;
use crate::view::StructuralView;

/// Signals present in both sorted triples (exact match incl. complement),
/// returned as `(buffer, count)`. Children of a gate always reference three
/// distinct nodes, so the intersection is duplicate-free.
fn shared_signals(a: &[Signal; 3], b: &[Signal; 3]) -> ([Signal; 3], usize) {
    let mut out = [Signal::FALSE; 3];
    let mut n = 0;
    for &s in a {
        if b.contains(&s) {
            out[n] = s;
            n += 1;
        }
    }
    (out, n)
}

/// The child of `t` that is not in `shared`.
fn leftover(t: &[Signal; 3], shared: &[Signal]) -> Option<Signal> {
    let mut it = t.iter().filter(|s| !shared.contains(s));
    let first = it.next().copied();
    if it.next().is_some() {
        None
    } else {
        first
    }
}

/// The Ω.D(R→L) rule. A match is the outer pair `x y` and the new inner
/// triple `u v z`.
pub(super) struct DistributivityRl;

impl Rule for DistributivityRl {
    type Match = ([Signal; 2], [Signal; 3]);

    #[inline]
    fn find(
        &mut self,
        built: &impl Built,
        view: &StructuralView,
        children: [Signal; 3],
        mapped: [Signal; 3],
    ) -> Option<Self::Match> {
        // Consider each pair of children as the two inner gates.
        for (i, j) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let (si, sj) = (mapped[i], mapped[j]);
            let k = 3 - i - j;
            let z = mapped[k];
            // Both uncomplemented gates or both complemented gates.
            if si.is_complement() != sj.is_complement() {
                continue;
            }
            let flipped = si.is_complement();
            let (gi, gj) = match (built.gate_children(si), built.gate_children(sj)) {
                (Some(a), Some(b)) => (a, b),
                _ => continue,
            };
            // Only profitable when the inner gates die after the merge. The
            // mapped signals may not correspond 1:1 to the source children,
            // so we conservatively require the *source* children at the
            // same positions to be single-fanout gates too.
            if !single_fanout(view, children[i]) || !single_fanout(view, children[j]) {
                continue;
            }
            let (shared, num_shared) = shared_signals(&gi, &gj);
            if num_shared != 2 {
                continue;
            }
            let shared = &shared[..2];
            let u = leftover(&gi, shared)?;
            let v = leftover(&gj, shared)?;
            let (x, y) = (shared[0], shared[1]);
            if flipped {
                // ⟨ḡi ḡj z⟩ with gi=⟨x y u⟩: ḡi = ⟨x̄ ȳ ū⟩, so
                // pattern = ⟨⟨x̄ȳū⟩ ⟨x̄ȳv̄⟩ z⟩ = ⟨x̄ ȳ ⟨ū v̄ z⟩⟩.
                return Some(([!x, !y], [!u, !v, z]));
            }
            return Some(([x, y], [u, v, z]));
        }
        None
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
        crate::rewrite::Pass::DistributivityRl.run(mig)
    }

    #[test]
    fn merges_shared_pair() {
        let mut mig = Mig::new(5);
        let s: Vec<Signal> = mig.inputs().collect();
        let g1 = mig.add_maj(s[0], s[1], s[2]);
        let g2 = mig.add_maj(s[0], s[1], s[3]);
        let top = mig.add_maj(g1, g2, s[4]);
        mig.add_output(top);
        assert_eq!(mig.num_gates(), 3);

        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 11).is_equal());
        assert_eq!(out.num_live_gates(), 2, "⟨xy⟨uvz⟩⟩ needs two gates");
    }

    #[test]
    fn merges_complemented_pair() {
        let mut mig = Mig::new(5);
        let s: Vec<Signal> = mig.inputs().collect();
        let g1 = mig.add_maj(s[0], s[1], s[2]);
        let g2 = mig.add_maj(s[0], s[1], s[3]);
        let top = mig.add_maj(!g1, !g2, s[4]);
        mig.add_output(top);

        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 12).is_equal());
        assert_eq!(out.num_live_gates(), 2);
    }

    #[test]
    fn respects_shared_fanout() {
        // g1 feeds both the top node and an extra output: merging would
        // duplicate logic, so the pass must leave the structure alone.
        let mut mig = Mig::new(5);
        let s: Vec<Signal> = mig.inputs().collect();
        let g1 = mig.add_maj(s[0], s[1], s[2]);
        let g2 = mig.add_maj(s[0], s[1], s[3]);
        let top = mig.add_maj(g1, g2, s[4]);
        mig.add_output(top);
        mig.add_output(g1);

        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 13).is_equal());
        assert_eq!(out.num_live_gates(), 3);
    }

    #[test]
    fn mixed_polarity_not_merged() {
        let mut mig = Mig::new(5);
        let s: Vec<Signal> = mig.inputs().collect();
        let g1 = mig.add_maj(s[0], s[1], s[2]);
        let g2 = mig.add_maj(s[0], s[1], s[3]);
        let top = mig.add_maj(g1, !g2, s[4]);
        mig.add_output(top);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 14).is_equal());
        assert_eq!(out.num_live_gates(), 3);
    }

    #[test]
    fn single_shared_signal_not_merged() {
        let mut mig = Mig::new(6);
        let s: Vec<Signal> = mig.inputs().collect();
        let g1 = mig.add_maj(s[0], s[1], s[2]);
        let g2 = mig.add_maj(s[0], s[3], s[4]);
        let top = mig.add_maj(g1, g2, s[5]);
        mig.add_output(top);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 15).is_equal());
        assert_eq!(out.num_live_gates(), 3);
    }

    #[test]
    fn and_or_pattern_collapses() {
        // (a∧b)∨(a∧c) = a∧(b∨c): AND = ⟨ab0⟩, OR = ⟨xy1⟩. The outer node is
        // ⟨⟨ab0⟩⟨ac0⟩1⟩; shared pair {a, 0} → ⟨a 0 ⟨b c 1⟩⟩. One node saved.
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let t1 = mig.and(a, b);
        let t2 = mig.and(a, c);
        let top = mig.or(t1, t2);
        mig.add_output(top);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 16).is_equal());
        assert_eq!(out.num_live_gates(), 2);
    }
}
