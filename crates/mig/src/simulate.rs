//! Bit-parallel simulation and random equivalence checking.
//!
//! Each node value is a 64-bit word, so one pass evaluates 64 input patterns
//! at once. This is the workhorse behind functional verification of the
//! rewriting passes and of compiled PLiM programs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::mig::{Mig, NodeKind};
use crate::signal::Signal;

/// Bitwise majority of three words.
#[inline]
pub fn maj_word(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

impl Mig {
    /// Evaluates every node for 64 parallel input patterns.
    ///
    /// `inputs[i]` carries 64 values of primary input `i`. The returned
    /// vector is indexed by node index and holds the uncomplemented node
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn simulate_nodes(&self, inputs: &[u64]) -> Vec<u64> {
        let mut values = Vec::new();
        self.simulate_nodes_into(inputs, &mut values);
        values
    }

    /// Like [`Mig::simulate_nodes`], writing into a caller-owned buffer so
    /// repeated 64-pattern blocks (e.g. the rounds of
    /// [`equiv_random`](crate::simulate::equiv_random)) reuse one
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn simulate_nodes_into(&self, inputs: &[u64], values: &mut Vec<u64>) {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "input word count must match the number of primary inputs"
        );
        values.clear();
        values.resize(self.num_nodes(), 0);
        for n in self.node_ids() {
            values[n.index()] = match self.kind(n) {
                NodeKind::Constant => 0,
                NodeKind::Input(i) => inputs[i as usize],
                NodeKind::Majority([a, b, c]) => {
                    let va = signal_value(values, a);
                    let vb = signal_value(values, b);
                    let vc = signal_value(values, c);
                    maj_word(va, vb, vc)
                }
            };
        }
    }

    /// Evaluates the primary outputs for 64 parallel input patterns.
    pub fn simulate(&self, inputs: &[u64]) -> Vec<u64> {
        let values = self.simulate_nodes(inputs);
        self.outputs()
            .iter()
            .map(|&s| signal_value(&values, s))
            .collect()
    }

    /// Evaluates the primary outputs for a single Boolean input pattern.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.simulate(&words)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }
}

/// Reads a signal value out of a node-value table, honouring complement.
#[inline]
pub fn signal_value(values: &[u64], s: Signal) -> u64 {
    let v = values[s.node().index()];
    if s.is_complement() {
        !v
    } else {
        v
    }
}

/// Outcome of [`equiv_random`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Equivalence {
    /// No differing pattern found after all rounds.
    ProbablyEqual,
    /// Interfaces differ (input or output counts).
    InterfaceMismatch,
    /// A counterexample pattern was found.
    NotEqual {
        /// Simulation round in which the mismatch appeared.
        round: usize,
        /// Index of the first differing primary output.
        output: usize,
    },
}

impl Equivalence {
    /// `true` when no mismatch was observed.
    pub fn is_equal(self) -> bool {
        matches!(self, Equivalence::ProbablyEqual)
    }
}

/// Random simulation equivalence check between two MIGs with identical
/// interfaces. Each round compares 64 random patterns; the first round also
/// injects the all-zero and all-one patterns.
///
/// This is a Monte-Carlo check — `ProbablyEqual` is not a proof — but for
/// rewriting-pass validation on large graphs it is the standard tool.
pub fn equiv_random(a: &Mig, b: &Mig, rounds: usize, seed: u64) -> Equivalence {
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return Equivalence::InterfaceMismatch;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // One input buffer and one node-value buffer per graph, reused across
    // all rounds; outputs are compared straight out of the node values.
    let mut inputs = vec![0u64; a.num_inputs()];
    let mut va: Vec<u64> = Vec::new();
    let mut vb: Vec<u64> = Vec::new();
    for round in 0..rounds {
        for w in inputs.iter_mut() {
            *w = rng.gen();
        }
        if round == 0 {
            // Force pattern 0 = all-zeros, pattern 1 = all-ones.
            for w in inputs.iter_mut() {
                *w = (*w & !0b11) | 0b10;
            }
        }
        a.simulate_nodes_into(&inputs, &mut va);
        b.simulate_nodes_into(&inputs, &mut vb);
        let mismatch = a
            .outputs()
            .iter()
            .zip(b.outputs())
            .position(|(&sa, &sb)| signal_value(&va, sa) != signal_value(&vb, sb));
        if let Some(output) = mismatch {
            return Equivalence::NotEqual { round, output };
        }
    }
    Equivalence::ProbablyEqual
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Mig {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let m = mig.add_maj(a, b, c);
        mig.add_output(m);
        mig.add_output(!m);
        mig
    }

    #[test]
    fn maj_word_is_bitwise_majority() {
        assert_eq!(maj_word(0b0011, 0b0101, 0b0110), 0b0111);
        assert_eq!(maj_word(!0, 0, 0), 0);
        assert_eq!(maj_word(!0, !0, 0), !0);
    }

    #[test]
    fn simulate_majority_and_complement_output() {
        let mig = tiny();
        let out = mig.simulate(&[0b0011, 0b0101, 0b0110]);
        assert_eq!(out[0] & 0b1111, 0b0111);
        assert_eq!(out[1] & 0b1111, 0b1000);
    }

    #[test]
    fn evaluate_single_pattern() {
        let mig = tiny();
        assert_eq!(mig.evaluate(&[true, true, false]), vec![true, false]);
        assert_eq!(mig.evaluate(&[false, true, false]), vec![false, true]);
    }

    #[test]
    fn full_adder_matches_arithmetic() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let (s, co) = mig.full_adder(a, b, c);
        mig.add_output(s);
        mig.add_output(co);
        for pattern in 0..8u32 {
            let bits = [pattern & 1 == 1, pattern & 2 == 2, pattern & 4 == 4];
            let out = mig.evaluate(&bits);
            let total = bits.iter().filter(|&&x| x).count() as u32;
            assert_eq!(out[0], total & 1 == 1, "sum for {bits:?}");
            assert_eq!(out[1], total >= 2, "carry for {bits:?}");
        }
    }

    #[test]
    fn xor_and_mux_semantics() {
        let mut mig = Mig::new(3);
        let [a, b, s] = [mig.input(0), mig.input(1), mig.input(2)];
        let x = mig.xor(a, b);
        let m = mig.mux(s, a, b);
        mig.add_output(x);
        mig.add_output(m);
        for p in 0..8u32 {
            let bits = [p & 1 == 1, p & 2 == 2, p & 4 == 4];
            let out = mig.evaluate(&bits);
            assert_eq!(out[0], bits[0] ^ bits[1]);
            assert_eq!(out[1], if bits[2] { bits[0] } else { bits[1] });
        }
    }

    #[test]
    fn equiv_detects_difference() {
        let mig1 = tiny();
        let mut mig2 = Mig::new(3);
        let [a, b, c] = [mig2.input(0), mig2.input(1), mig2.input(2)];
        let m = mig2.add_maj(a, b, c);
        mig2.add_output(m);
        mig2.add_output(m); // differs: second output not complemented
        assert!(matches!(
            equiv_random(&mig1, &mig2, 4, 42),
            Equivalence::NotEqual { .. }
        ));
    }

    #[test]
    fn equiv_detects_interface_mismatch() {
        let mig1 = tiny();
        let mig2 = Mig::new(2);
        assert_eq!(
            equiv_random(&mig1, &mig2, 1, 0),
            Equivalence::InterfaceMismatch
        );
    }

    #[test]
    fn equiv_accepts_identical() {
        let mig1 = tiny();
        let mig2 = tiny();
        assert!(equiv_random(&mig1, &mig2, 8, 7).is_equal());
    }
}
