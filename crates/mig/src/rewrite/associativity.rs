//! Ω.A associativity reshaping: `⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩`.
//!
//! Swapping an outer operand with an inner one across a shared middle signal
//! `u` does not change the function but reshapes the graph. The pass applies
//! a swap only when the resulting inner gate *already exists* (a structural
//! hash hit), which guarantees one node of sharing is gained and none is
//! duplicated. This is the conservative, provably non-growing flavour used
//! by both of the paper's rewriting schedules; in Algorithm 2 it is
//! sandwiched between inverter-propagation passes so that freshly exposed
//! single-inverter nodes create more hash hits.

use crate::mig::Mig;
use crate::rewrite::{nested_readings, two_excluding, Built, Rule};
use crate::signal::Signal;
use crate::view::StructuralView;

/// Walks the `⟨x u ⟨y u z⟩⟩` shapes of one gate that an Ω.A swap can
/// restructure, in a fixed order, and returns the first `pick(x, u,
/// [y, z])` that is `Some`. The inner gate is a single-fanout,
/// uncomplemented child (see [`nested_readings`]) and `u` is shared by
/// the inner and the outer gate; `y` and `z` are the inner gate's other
/// two children, in stored order. Shared with level balancing, which
/// picks among the same shapes by level.
#[inline]
pub(super) fn find_swap<B: Built, T>(
    built: &B,
    view: &StructuralView,
    children: [Signal; 3],
    mapped: [Signal; 3],
    mut pick: impl FnMut(Signal, Signal, [Signal; 2]) -> Option<T>,
) -> Option<T> {
    for (inner, outer) in nested_readings(built, view, children, mapped) {
        // Shared middle signal u: present both as an outer child and an
        // inner child.
        for &u in &outer {
            if !inner.contains(&u) {
                continue;
            }
            // Both outer children can collapse to `u` after remapping
            // (the gate is then ⟨u,u,m⟩ = u): nothing to swap.
            let Some(&x) = outer.iter().find(|&&s| s != u) else {
                continue;
            };
            let Some(rest) = two_excluding(&inner, u) else {
                continue;
            };
            if let Some(found) = pick(x, u, rest) {
                return Some(found);
            }
        }
    }
    None
}

/// The sharing-only Ω.A rule. A match is the new gate's children
/// `z u ⟨y u x⟩`, the last of which already exists.
pub(super) struct Associativity;

impl Rule for Associativity {
    type Match = [Signal; 3];

    #[inline]
    fn find(
        &mut self,
        built: &impl Built,
        view: &StructuralView,
        children: [Signal; 3],
        mapped: [Signal; 3],
    ) -> Option<[Signal; 3]> {
        find_swap(built, view, children, mapped, |x, u, [r0, r1]| {
            // ⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩; y and z are symmetric so try
            // swapping x with either.
            [(r0, r1), (r1, r0)]
                .into_iter()
                .find_map(|(y, z)| Some([z, u, built.lookup(y, u, x)?]))
        })
    }

    fn apply(&mut self, new: &mut Mig, [z, u, shared]: [Signal; 3]) -> Signal {
        new.add_maj(z, u, shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::equiv_random;

    /// Single-pass entry point (shadows the buffer-reusing `super::run`).
    fn run(mig: &Mig) -> Mig {
        crate::rewrite::Pass::Associativity.run(mig)
    }

    #[test]
    fn swap_creates_sharing() {
        // f = ⟨x u ⟨y u z⟩⟩ and g = ⟨y u x⟩ both outputs. The swap rewrites
        // f to reuse g: live gates drop from 3 to 2.
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let (x, u, y, z) = (s[0], s[1], s[2], s[3]);
        let g = mig.add_maj(y, u, x);
        let inner = mig.add_maj(y, u, z);
        let f = mig.add_maj(x, u, inner);
        mig.add_output(f);
        mig.add_output(g);
        assert_eq!(mig.num_live_gates(), 3);

        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 21).is_equal());
        assert_eq!(out.num_live_gates(), 2);
    }

    #[test]
    fn no_hash_hit_means_no_change() {
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let inner = mig.add_maj(s[2], s[1], s[3]);
        let f = mig.add_maj(s[0], s[1], inner);
        mig.add_output(f);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 22).is_equal());
        assert_eq!(out.num_live_gates(), 2);
    }

    #[test]
    fn shared_inner_gate_not_restructured() {
        // The inner gate has another fanout: swapping would duplicate it.
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let g = mig.add_maj(s[2], s[1], s[0]);
        let inner = mig.add_maj(s[2], s[1], s[3]);
        let f = mig.add_maj(s[0], s[1], inner);
        mig.add_output(f);
        mig.add_output(g);
        mig.add_output(inner); // extra fanout on inner
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 23).is_equal());
        assert_eq!(out.num_live_gates(), 3);
    }

    #[test]
    fn complemented_inner_not_restructured() {
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let g = mig.add_maj(s[2], s[1], s[0]);
        let inner = mig.add_maj(s[2], s[1], s[3]);
        let f = mig.add_maj(s[0], s[1], !inner);
        mig.add_output(f);
        mig.add_output(g);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 24).is_equal());
        assert_eq!(out.num_live_gates(), 3);
    }

    #[test]
    fn symmetric_variant_found() {
        // Hash hit requires swapping x with the *other* inner child.
        let mut mig = Mig::new(4);
        let s: Vec<Signal> = mig.inputs().collect();
        let (x, u, y, z) = (s[0], s[1], s[2], s[3]);
        let g = mig.add_maj(z, u, x); // matches (y', u, x) with y' = z
        let inner = mig.add_maj(y, u, z);
        let f = mig.add_maj(x, u, inner);
        mig.add_output(f);
        mig.add_output(g);
        let out = run(&mig);
        assert!(equiv_random(&mig, &out, 16, 25).is_equal());
        assert_eq!(out.num_live_gates(), 2);
    }
}
