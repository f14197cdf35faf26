//! Ψ.C complementary associativity: `⟨x, u, ⟨y, ū, z⟩⟩ = ⟨x, u, ⟨y, x, z⟩⟩`.
//!
//! When an inner gate references the *complement* of an operand `u` it
//! shares with its parent, that complemented reference can be replaced by
//! the parent's other operand `x`, removing one complemented edge.
//! Algorithm 1 uses this pass to remove inverters; the endurance-aware
//! Algorithm 2 deliberately *omits* it because removing a node's single
//! complemented edge destroys the ideal one-inverter pattern that RM3
//! executes in a single instruction.
//!
//! (The DATE'17 paper's inline rendering of Ψ.C is typographically garbled;
//! the form implemented here is the original axiom from the DAC'14 MIG
//! paper, and is validated by exhaustive truth-table tests below.)

use crate::mig::Mig;
use crate::rewrite::{add_nested, nested_readings, Built, Rule};
use crate::signal::Signal;
use crate::view::StructuralView;

/// The Ψ.C rule. A match is the outer pair `x u` and the fixed inner
/// triple, with `x` in place of `ū`.
pub(super) struct ComplementaryAssociativity;

impl Rule for ComplementaryAssociativity {
    type Match = ([Signal; 2], [Signal; 3]);

    #[inline]
    fn find(
        &mut self,
        built: &impl Built,
        view: &StructuralView,
        children: [Signal; 3],
        mapped: [Signal; 3],
    ) -> Option<Self::Match> {
        for (inner, outer) in nested_readings(built, view, children, mapped) {
            // Try both assignments of (x, u) to the outer pair: we need the
            // inner gate to contain ū.
            for (x, u) in [(outer[0], outer[1]), (outer[1], outer[0])] {
                if u.is_constant() {
                    continue; // constant polarity is free for PLiM anyway
                }
                if let Some(pos) = inner.iter().position(|&s| s == !u) {
                    let mut fixed = inner;
                    fixed[pos] = x;
                    return Some(([x, u], fixed));
                }
            }
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
        crate::rewrite::Pass::ComplementaryAssociativity.run(mig)
    }

    /// Exhaustive check of the axiom itself: ⟨x,u,⟨y,ū,z⟩⟩ = ⟨x,u,⟨y,x,z⟩⟩.
    #[test]
    fn axiom_truth_table() {
        let maj = |a: bool, b: bool, c: bool| (a && b) || (c && (a || b));
        for p in 0..16u32 {
            let (x, u, y, z) = (p & 1 == 1, p & 2 == 2, p & 4 == 4, p & 8 == 8);
            let lhs = maj(x, u, maj(y, !u, z));
            let rhs = maj(x, u, maj(y, x, z));
            assert_eq!(lhs, rhs, "x={x} u={u} y={y} z={z}");
        }
    }

    #[test]
    fn drops_complement_of_shared_operand() {
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let (x, u, y, z) = (s[0], s[1], s[2], s[3]);
        let inner = mig.add_maj(y, !u, z);
        let f = mig.add_maj(x, u, inner);
        mig.add_output(f);

        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 31).is_equal());
        // The old inner gate survives as a dead node until the next pass
        // garbage-collects it, so count live gates only.
        let live = out.live_mask();
        let total: usize = out
            .gates()
            .filter(|g| live[g.index()])
            .map(|g| out.complemented_edge_count(g))
            .sum();
        assert_eq!(total, 0, "Ψ.C must remove the inner complement");
    }

    #[test]
    fn unrelated_complements_untouched() {
        let mut mig = Mig::new(5);
        let s: Vec<Signal> = mig.inputs().collect();
        let inner = mig.add_maj(s[2], !s[4], s[3]);
        let f = mig.add_maj(s[0], s[1], inner);
        mig.add_output(f);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 32).is_equal());
        let total: usize = out.gates().map(|g| out.complemented_edge_count(g)).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn shared_inner_gate_untouched() {
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let inner = mig.add_maj(s[2], !s[1], s[3]);
        let f = mig.add_maj(s[0], s[1], inner);
        mig.add_output(f);
        mig.add_output(inner);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 33).is_equal());
        // inner keeps its complement (rewriting it would change the second
        // output or force duplication)
        let total: usize = out.gates().map(|g| out.complemented_edge_count(g)).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn complemented_shared_operand_matches() {
        // outer child is !u; inner contains u = !(!u): Ψ.C with u := !u.
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let inner = mig.add_maj(s[2], s[1], s[3]);
        let f = mig.add_maj(s[0], !s[1], inner);
        mig.add_output(f);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 34).is_equal());
    }

    #[test]
    fn constant_shared_operand_skipped() {
        // u = TRUE: ū = FALSE appears in the inner gate, but constants are
        // free for PLiM, so the pass leaves the structure alone.
        let mut mig = Mig::new(3);
        let s: Vec<Signal> = mig.inputs().collect();
        let inner = mig.add_maj(s[1], Signal::FALSE, s[2]);
        let f = mig.add_maj(s[0], Signal::TRUE, inner);
        mig.add_output(f);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 35).is_equal());
    }
}
