//! Inverter propagation: the Ω.I(R→L) family.
//!
//! Ω.I states `⟨x y z⟩ = ⟨x̄ ȳ z̄⟩̄`. Read right-to-left it lets us *flip* a
//! node — complement all three children and complement the node's output —
//! which turns a node with two or three complemented children into one with
//! one or zero. The DATE'17 paper uses two flavours:
//!
//! * **Ω.I(R→L)(1–3)**: flip when ≥ 2 non-constant children are complemented
//!   (rules `⟨x̄ȳz̄⟩ = ⟨xyz⟩̄` and `⟨x̄ȳz⟩ = ⟨xyz̄⟩̄`).
//! * **Ω.I(R→L)**: flip only the all-complemented case (rule 1), removing
//!   the costliest nodes.
//!
//! Constant children are excluded from the count because the PLiM controller
//! reads constants in either polarity for free.

use crate::mig::Mig;
use crate::rewrite::{Built, Rule};
use crate::signal::Signal;
use crate::view::StructuralView;

/// Which complement patterns trigger a flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InverterMode {
    /// Flip nodes with 2 or 3 complemented non-constant children.
    TwoOrThree,
    /// Flip only nodes with 3 complemented non-constant children.
    ThreeOnly,
}

/// Number of complemented, non-constant signals in a triple.
fn complemented_count(children: &[Signal; 3]) -> usize {
    children
        .iter()
        .filter(|s| !s.is_constant() && s.is_complement())
        .count()
}

/// A match is the gate's mapped children, to be flipped.
impl Rule for InverterMode {
    type Match = [Signal; 3];

    #[inline]
    fn find(
        &mut self,
        _: &impl Built,
        _: &StructuralView,
        _: [Signal; 3],
        mapped: [Signal; 3],
    ) -> Option<[Signal; 3]> {
        let count = complemented_count(&mapped);
        let flip = match self {
            InverterMode::TwoOrThree => count >= 2,
            InverterMode::ThreeOnly => count == 3,
        };
        flip.then_some(mapped)
    }

    fn apply(&mut self, new: &mut Mig, ch: [Signal; 3]) -> Signal {
        !new.add_maj(!ch[0], !ch[1], !ch[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::NodeId;
    use crate::simulate::equiv_random;

    /// Single-pass entry point (shadows the buffer-reusing `super::run`).
    fn run(mig: &Mig, mode: InverterMode) -> Mig {
        match mode {
            InverterMode::TwoOrThree => crate::rewrite::Pass::InvertersTwoOrThree,
            InverterMode::ThreeOnly => crate::rewrite::Pass::InvertersThreeOnly,
        }
        .run(mig)
    }

    fn three_complemented() -> Mig {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g = mig.add_maj(!a, !b, !c);
        mig.add_output(g);
        mig
    }

    #[test]
    fn flips_triple_complement() {
        let mig = three_complemented();
        for mode in [InverterMode::ThreeOnly, InverterMode::TwoOrThree] {
            let out = run(&mig, mode);
            assert!(equiv_random(&mig, &out, 8, 1).is_equal());
            let g = out.gates().next().expect("one gate");
            assert_eq!(out.complemented_edge_count(g), 0);
            // output edge absorbed the inversion
            assert!(out.outputs()[0].is_complement());
        }
    }

    #[test]
    fn two_or_three_flips_double_complement() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g = mig.add_maj(!a, !b, c);
        mig.add_output(g);

        let strict = run(&mig, InverterMode::ThreeOnly);
        let g0 = strict.gates().next().expect("gate");
        assert_eq!(
            strict.complemented_edge_count(g0),
            2,
            "rule 1 must not fire"
        );

        let loose = run(&mig, InverterMode::TwoOrThree);
        assert!(equiv_random(&mig, &loose, 8, 2).is_equal());
        let g1 = loose.gates().next().expect("gate");
        assert_eq!(loose.complemented_edge_count(g1), 1);
    }

    #[test]
    fn single_complement_untouched() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g = mig.add_maj(!a, b, c);
        mig.add_output(g);
        let out = run(&mig, InverterMode::TwoOrThree);
        let g0 = out.gates().next().expect("gate");
        assert_eq!(out.complemented_edge_count(g0), 1);
        assert!(!out.outputs()[0].is_complement());
    }

    #[test]
    fn constant_children_do_not_count() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        // ⟨!a !b 1⟩: two non-constant complements plus TRUE — flips.
        let g = mig.or(!a, !b);
        mig.add_output(g);
        let out = run(&mig, InverterMode::TwoOrThree);
        assert!(equiv_random(&mig, &out, 8, 3).is_equal());
        let g0 = out.gates().next().expect("gate");
        assert_eq!(out.complemented_edge_count(g0), 0);

        // ⟨!a b 1⟩: only one non-constant complement — must not flip even
        // though the constant child is the TRUE (complemented) signal.
        let mut mig2 = Mig::new(2);
        let a2 = mig2.input(0);
        let b2 = mig2.input(1);
        let g2 = mig2.or(!a2, b2);
        mig2.add_output(g2);
        let out2 = run(&mig2, InverterMode::TwoOrThree);
        assert!(!out2.outputs()[0].is_complement());
    }

    #[test]
    fn flip_cascades_to_parents() {
        // Flipping a child complements its output edge; the parent sees the
        // new complement during the same bottom-up pass.
        let mut mig = Mig::new(4);
        let [a, b, c, d] = [mig.input(0), mig.input(1), mig.input(2), mig.input(3)];
        let inner = mig.add_maj(!a, !b, !c); // will flip
        let outer = mig.add_maj(inner, d, !a); // gains a complement after flip
        mig.add_output(outer);
        let out = run(&mig, InverterMode::TwoOrThree);
        assert!(equiv_random(&mig, &out, 8, 4).is_equal());
        for g in out.gates() {
            assert!(out.complemented_edge_count(g) <= 1);
        }
    }

    #[test]
    fn complemented_count_helper() {
        let a = Signal::new(NodeId::new(3), true);
        let b = Signal::new(NodeId::new(4), false);
        assert_eq!(complemented_count(&[a, b, Signal::TRUE]), 1);
        assert_eq!(complemented_count(&[a, !b, Signal::FALSE]), 2);
    }
}
