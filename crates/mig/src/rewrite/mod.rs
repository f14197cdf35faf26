//! MIG algebraic rewriting: the Ω/Ψ axioms and the paper's two rewriting
//! algorithms.
//!
//! Every pass is a *rebuild*: it walks the old graph in topological order,
//! mapping each live gate through a rule-specific constructor into a second
//! graph buffer. Structural hashing plus the Ω.M axiom run on every node
//! insertion, so each pass also performs node minimisation and dead-node
//! garbage collection. [`rewrite`] double-buffers two recycled [`Mig`]s and
//! a shared internal `Workspace` (signal map, level memo), so the
//! passes of one call stay away from the allocator instead of
//! constructing a graph, strash table and derived-index vectors each.
//!
//! A call runs at most `1 + effort × cycle length` passes (51 for
//! Algorithm 2 at the paper's effort 5), but it stops at the fixed point
//! and skips a pass already known to leave the current graph unchanged.
//! Before it rebuilds, it runs the pass's matcher read-only over the
//! current graph ([`Pass::proves_idle`]): when every gate is live and no
//! gate matches, the rebuild would return the graph as it is, so the pass
//! is skipped with nothing built. Each rule's matcher exists once and
//! serves both the rebuild and this scan, and the fanout and liveness view
//! is computed once per graph version for both. Over the 18 benchmarks at
//! effort 5, Algorithm 2 scans 153 passes and rebuilds 32 of them (all 153
//! rebuilt before the scan, 318 without any skip), and Algorithm 1 scans
//! 245 and rebuilds 61 (245 before, 314 without any skip); one rebuild per
//! algorithm comes back unchanged. An input with no dead gates is cloned
//! instead of getting a cleanup rebuild.
//! Functional equivalence of every pass is enforced by the test-suite via
//! random simulation.
//!
//! * [`Pass`] — the individual axioms (Ω.M, Ω.D(R→L), Ω.A, Ψ.C, the
//!   inverter-propagation family Ω.I(R→L)).
//! * [`Algorithm::PlimCompiler`] — Algorithm 1 of the paper (the DAC'16
//!   PLiM-compiler schedule).
//! * [`Algorithm::EnduranceAware`] — Algorithm 2 of the paper (drops Ψ.C,
//!   sandwiches Ω.A between inverter-propagation passes).

mod associativity;
mod distributivity;
mod inverters;
mod level_balance;
mod psi;
pub mod rules;

pub use inverters::InverterMode;

use std::convert::Infallible;

use crate::mig::Mig;
use crate::signal::Signal;
use crate::view::StructuralView;

use associativity::Associativity;
use distributivity::DistributivityRl;
use level_balance::LevelBalance;
use psi::ComplementaryAssociativity;

/// One rewriting pass over the whole graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Ω.M + structural hashing only (node minimisation / cleanup).
    Majority,
    /// Ω.D applied right-to-left: `⟨⟨xyu⟩⟨xyv⟩z⟩ → ⟨xy⟨uvz⟩⟩`.
    DistributivityRl,
    /// Ω.A reshaping, applied only when it provably shares a node.
    Associativity,
    /// Ψ.C complementary associativity: `⟨x,u,⟨y,x̄,z⟩⟩ → ⟨x,u,⟨y,x,z⟩⟩`.
    ComplementaryAssociativity,
    /// Ω.I right-to-left, rules (1)–(3): flip nodes with ≥ 2 complemented
    /// (non-constant) children.
    InvertersTwoOrThree,
    /// Ω.I right-to-left, rule (1) only: flip nodes with 3 complemented
    /// children.
    InvertersThreeOnly,
    /// Level-balancing Ω.A (§III-B4 future work): swap deep inner signals
    /// toward their consumers to narrow parent-child level gaps — the
    /// structural source of blocked RRAMs.
    LevelBalance,
}

impl Pass {
    /// Runs this pass, producing a rewritten graph in fresh buffers.
    pub fn run(self, mig: &Mig) -> Mig {
        let mut new = Mig::new(mig.num_inputs());
        let view = StructuralView::of(mig);
        self.rebuild(mig, &view, &mut new, &mut Workspace::default());
        new
    }

    /// Whether a read-only scan of `mig` proves that [`Pass::run`] would
    /// return `mig` unchanged. `false` means the pass may change it: the
    /// scan is sound but not complete, since a match can rebuild the very
    /// node it replaces (Ω.A's `⟨x u ⟨y u x⟩⟩` does).
    pub fn proves_idle(self, mig: &Mig) -> bool {
        self.scan(mig, &StructuralView::of(mig), &mut Workspace::default())
    }

    /// Rebuilds `old` into the recycled `new` buffer. `view` is the
    /// structure of `old`; `ws` holds every other piece of scratch state.
    pub(crate) fn rebuild(
        self,
        old: &Mig,
        view: &StructuralView,
        new: &mut Mig,
        ws: &mut Workspace,
    ) {
        let Workspace { map, levels } = ws;
        match self {
            Pass::Majority => rebuild_into(old, view, new, map, Majority),
            Pass::DistributivityRl => rebuild_into(old, view, new, map, DistributivityRl),
            Pass::Associativity => rebuild_into(old, view, new, map, Associativity),
            Pass::ComplementaryAssociativity => {
                rebuild_into(old, view, new, map, ComplementaryAssociativity)
            }
            Pass::InvertersTwoOrThree => {
                rebuild_into(old, view, new, map, InverterMode::TwoOrThree)
            }
            Pass::InvertersThreeOnly => rebuild_into(old, view, new, map, InverterMode::ThreeOnly),
            Pass::LevelBalance => rebuild_into(old, view, new, map, LevelBalance::new(levels)),
        }
    }

    /// Whether a rebuild of `mig` would return it unchanged, decided by
    /// the same matcher the rebuild runs; see [`scan_idle`].
    pub(crate) fn scan(self, mig: &Mig, view: &StructuralView, ws: &mut Workspace) -> bool {
        match self {
            Pass::Majority => scan_idle(mig, view, Majority),
            Pass::DistributivityRl => scan_idle(mig, view, DistributivityRl),
            Pass::Associativity => scan_idle(mig, view, Associativity),
            Pass::ComplementaryAssociativity => scan_idle(mig, view, ComplementaryAssociativity),
            Pass::InvertersTwoOrThree => scan_idle(mig, view, InverterMode::TwoOrThree),
            Pass::InvertersThreeOnly => scan_idle(mig, view, InverterMode::ThreeOnly),
            Pass::LevelBalance => scan_idle(mig, view, LevelBalance::new(&mut ws.levels)),
        }
    }
}

/// The two pass schedules evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Paper Algorithm 1 — the baseline PLiM-compiler rewriting (DAC'16):
    /// `Ω.M; Ω.D(R→L); Ω.A; Ψ.C; Ω.M; Ω.D(R→L); Ω.I(R→L)(1–3); Ω.I(R→L)`.
    PlimCompiler,
    /// Paper Algorithm 2 — endurance-aware rewriting: removes Ψ.C and
    /// sandwiches Ω.A between inverter-propagation passes:
    /// `Ω.M; Ω.D(R→L); Ω.I(1–3); Ω.I; Ω.A; Ω.I(1–3); Ω.I; Ω.M; Ω.D(R→L); Ω.I`.
    #[default]
    EnduranceAware,
    /// Extension (paper §III-B4 future work): Algorithm 2 plus a final
    /// level-balancing pass that keeps parent-child level differences low
    /// to shorten blocked-RRAM storage durations, potentially at an
    /// instruction-count cost.
    LevelAware,
}

impl Algorithm {
    /// The pass sequence executed once per effort cycle.
    pub fn cycle(self) -> &'static [Pass] {
        match self {
            Algorithm::PlimCompiler => &[
                Pass::Majority,
                Pass::DistributivityRl,
                Pass::Associativity,
                Pass::ComplementaryAssociativity,
                Pass::Majority,
                Pass::DistributivityRl,
                Pass::InvertersTwoOrThree,
                Pass::InvertersThreeOnly,
            ],
            Algorithm::EnduranceAware => &[
                Pass::Majority,
                Pass::DistributivityRl,
                Pass::InvertersTwoOrThree,
                Pass::InvertersThreeOnly,
                Pass::Associativity,
                Pass::InvertersTwoOrThree,
                Pass::InvertersThreeOnly,
                Pass::Majority,
                Pass::DistributivityRl,
                Pass::InvertersThreeOnly,
            ],
            Algorithm::LevelAware => &[
                Pass::Majority,
                Pass::DistributivityRl,
                Pass::InvertersTwoOrThree,
                Pass::InvertersThreeOnly,
                Pass::Associativity,
                Pass::InvertersTwoOrThree,
                Pass::InvertersThreeOnly,
                Pass::Majority,
                Pass::DistributivityRl,
                Pass::InvertersThreeOnly,
                Pass::LevelBalance,
                Pass::InvertersThreeOnly,
            ],
        }
    }

    /// The stable name used in reports and on the daemon's wire.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::PlimCompiler => "plim-compiler",
            Algorithm::EnduranceAware => "endurance-aware",
            Algorithm::LevelAware => "level-aware",
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "plim-compiler" => Ok(Algorithm::PlimCompiler),
            "endurance-aware" => Ok(Algorithm::EnduranceAware),
            "level-aware" => Ok(Algorithm::LevelAware),
            other => Err(format!(
                "unknown rewriting algorithm `{other}` (plim-compiler | endurance-aware | level-aware)"
            )),
        }
    }
}

/// How much work one [`rewrite_with_stats`] call did, pass by pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RewriteStats {
    /// Read-only idle scans run, the one over the input graph included.
    pub scans: usize,
    /// Passes that rebuilt the graph, the input's cleanup pass included.
    pub rebuilds: usize,
    /// Rebuilds that came back equal to their input: the scan could not
    /// prove them idle, but they were.
    pub unchanged: usize,
}

/// Runs `effort` cycles of the given algorithm (the paper uses `effort = 5`).
///
/// # Examples
///
/// ```
/// use rlim_mig::{Mig, rewrite::{rewrite, Algorithm}};
///
/// let mut mig = Mig::new(3);
/// let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
/// let x = mig.xor(a, b);
/// let y = mig.xor(x, c);
/// mig.add_output(y);
/// let rewritten = rewrite(&mig, Algorithm::EnduranceAware, 5);
/// assert!(rewritten.num_gates() <= mig.num_gates());
/// ```
pub fn rewrite(mig: &Mig, algorithm: Algorithm, effort: usize) -> Mig {
    rewrite_with_stats(mig, algorithm, effort).0
}

/// [`rewrite`], also returning how many passes it scanned and rebuilt.
pub fn rewrite_with_stats(mig: &Mig, algorithm: Algorithm, effort: usize) -> (Mig, RewriteStats) {
    let mut stats = RewriteStats::default();
    let mut ws = Workspace::default();
    // The structure of `current`, recomputed only when `current` changes:
    // every scan of a graph version and the rebuild from it share it.
    let mut view = StructuralView::of(mig);
    let mut spare = Mig::new(mig.num_inputs());
    stats.scans += 1;
    let mut current = if Pass::Majority.scan(mig, &view, &mut ws) {
        debug_assert!(
            Pass::Majority.run(mig) == *mig,
            "cleanup scan misjudged the input"
        );
        mig.clone()
    } else {
        stats.rebuilds += 1;
        let mut current = Mig::new(mig.num_inputs());
        Pass::Majority.rebuild(mig, &view, &mut current, &mut ws);
        view.compute(&current);
        current
    };
    // Passes known to rebuild `current` exactly as it is. A pass is a pure
    // function of its input graph (the workspace is scratch), so running
    // one of them again before the graph changes would only repeat that.
    let mut idle: Vec<Pass> = Vec::new();
    // The fixed-point check compares exact structure: summary counts
    // (gates, complemented edges, depth) can stay put while a pass still
    // permutes the graph.
    let mut before = current.fingerprint();
    for _ in 0..effort {
        for &pass in algorithm.cycle() {
            if idle.contains(&pass) {
                continue;
            }
            stats.scans += 1;
            if pass.scan(&current, &view, &mut ws) {
                debug_assert!(
                    pass.run(&current) == current,
                    "{pass:?} scan misjudged the graph"
                );
                idle.push(pass);
                continue;
            }
            stats.rebuilds += 1;
            pass.rebuild(&current, &view, &mut spare, &mut ws);
            if spare == current {
                stats.unchanged += 1;
                idle.push(pass);
            } else {
                std::mem::swap(&mut current, &mut spare);
                view.compute(&current);
                idle.clear();
            }
        }
        let after = current.fingerprint();
        if after == before {
            break; // fixed point reached early
        }
        before = after;
    }
    (current, stats)
}

/// Reusable scratch shared by every pass of a [`rewrite`] call: the
/// old-node → new-signal map and the level memo used by
/// [`Pass::LevelBalance`]. Together with the two recycled [`Mig`] buffers
/// (whose strash tables clear without deallocating), this keeps the
/// rebuilds of a call away from the allocator once buffers reach their
/// high-water mark.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// `map[old node index]` -> new signal for the node's value.
    map: Vec<Signal>,
    /// Level memo over the graph being matched against (LevelBalance only).
    levels: Vec<u32>,
}

/// Read-only access to the graph a rule matches against. During a
/// rebuild that is the graph under construction; during an idle scan it
/// is the source graph cut off below the gate being matched ([`Prefix`]).
pub(crate) trait Built {
    /// The children of the gate behind `s` (in either polarity), or
    /// `None` when `s` is a constant or an input.
    fn gate_children(&self, s: Signal) -> Option<[Signal; 3]>;
    /// The signal `⟨a b c⟩` simplifies or hashes to, if it exists.
    fn lookup(&self, a: Signal, b: Signal, c: Signal) -> Option<Signal>;
}

impl Built for Mig {
    #[inline]
    fn gate_children(&self, s: Signal) -> Option<[Signal; 3]> {
        self.is_gate(s.node()).then(|| self.children(s.node()))
    }

    #[inline]
    fn lookup(&self, a: Signal, b: Signal, c: Signal) -> Option<Signal> {
        self.lookup_maj(a, b, c)
    }
}

/// The nodes of a graph below index `end`: what a rebuild of that graph
/// has built by the time it reaches gate `end`, if every earlier gate
/// rebuilt to itself.
struct Prefix<'a> {
    mig: &'a Mig,
    end: usize,
}

impl Built for Prefix<'_> {
    #[inline]
    fn gate_children(&self, s: Signal) -> Option<[Signal; 3]> {
        debug_assert!(s.node().index() < self.end);
        self.mig.gate_children(s)
    }

    #[inline]
    fn lookup(&self, a: Signal, b: Signal, c: Signal) -> Option<Signal> {
        self.mig
            .lookup_maj(a, b, c)
            .filter(|s| s.node().index() < self.end)
    }
}

/// One rewrite rule, split into a read-only matcher and the constructor
/// of its replacement. The rebuild and the idle scan both call
/// [`Rule::find`], so each rule's match logic exists once.
pub(crate) trait Rule {
    /// What a match found: everything [`Rule::apply`] needs.
    type Match;
    /// Looks for a rewrite of one live gate. `children` are the gate's
    /// children in the source graph, whose structure `view` holds;
    /// `mapped` are the same children as signals of `built`.
    fn find(
        &mut self,
        built: &impl Built,
        view: &StructuralView,
        children: [Signal; 3],
        mapped: [Signal; 3],
    ) -> Option<Self::Match>;
    /// Builds the replacement for a match in `new` and returns the
    /// signal of the gate's (uncomplemented) function.
    fn apply(&mut self, new: &mut Mig, found: Self::Match) -> Signal;
}

/// Ω.M and structural hashing alone: a rule that never matches, so its
/// rebuild only drops dead gates.
struct Majority;

impl Rule for Majority {
    type Match = Infallible;

    #[inline]
    fn find(
        &mut self,
        _: &impl Built,
        _: &StructuralView,
        _: [Signal; 3],
        _: [Signal; 3],
    ) -> Option<Infallible> {
        None
    }

    fn apply(&mut self, _: &mut Mig, found: Infallible) -> Signal {
        match found {}
    }
}

/// Rebuilds `old` gate by gate into the recycled `new` buffer: each live
/// gate becomes `rule`'s replacement when it matches, and the majority of
/// its mapped children otherwise. Dead gates are skipped; outputs are
/// remapped at the end. `view` must be the structure of `old`.
fn rebuild_into<R: Rule>(
    old: &Mig,
    view: &StructuralView,
    new: &mut Mig,
    map: &mut Vec<Signal>,
    mut rule: R,
) {
    new.reset(old.num_inputs());
    new.reserve(old.num_gates());
    map.clear();
    map.resize(old.num_nodes(), Signal::FALSE);
    for i in 0..old.num_inputs() {
        map[i + 1] = new.input(i);
    }
    for g in old.gates() {
        if !view.is_live(g) {
            continue;
        }
        let children = old.children(g);
        let mapped = children.map(|s| map_signal(map, s));
        map[g.index()] = match rule.find(new, view, children, mapped) {
            Some(found) => rule.apply(new, found),
            None => new.add_maj(mapped[0], mapped[1], mapped[2]),
        };
    }
    for &po in old.outputs() {
        let s = map_signal(map, po);
        new.add_output(s);
    }
}

/// Proves, without building anything, that [`rebuild_into`] would return
/// `mig` unchanged; `view` must be the structure of `mig`.
///
/// Every [`Mig`] is canonical: [`Mig::add_maj`] is the only code that
/// adds a node, so each gate's triple is sorted, not Ω.M-simplifiable and
/// unique. If every gate before `g` rebuilt to itself, the map is the
/// identity and the buffer holds exactly the nodes below `g`, so taking
/// the fallback `add_maj(children)` at `g` rebuilds `g` itself at the
/// same index. The rebuild therefore returns `mig` unchanged when every
/// gate is live and `rule` finds no match at any gate against that
/// prefix. The scan stops at the first gate where either fails. It is
/// sound but not complete: a match can still rebuild the node it
/// replaces, which only a rebuild and a comparison can tell.
fn scan_idle<R: Rule>(mig: &Mig, view: &StructuralView, mut rule: R) -> bool {
    mig.gates().all(|g| {
        let children = mig.children(g);
        let prefix = Prefix {
            mig,
            end: g.index(),
        };
        view.is_live(g) && rule.find(&prefix, view, children, children).is_none()
    })
}

/// Maps an old-graph signal through a node map, carrying the complement.
#[inline]
pub(crate) fn map_signal(map: &[Signal], s: Signal) -> Signal {
    map[s.node().index()].complement_if(s.is_complement())
}

/// Whether the source-graph node behind `child` has fanout 1 — used by
/// restructuring rules to avoid duplicating shared logic.
#[inline]
pub(crate) fn single_fanout(view: &StructuralView, child: Signal) -> bool {
    view.fanout(child.node()) <= 1
}

/// The `⟨o₀ o₁ ⟨inner⟩⟩` readings of one gate that Ω.A, Ψ.C and level
/// balancing restructure: for each uncomplemented child that is a gate of
/// `built` whose source node has fanout 1, in child order, that gate's
/// children and the gate's two other children.
#[inline]
pub(crate) fn nested_readings<'a, B: Built>(
    built: &'a B,
    view: &'a StructuralView,
    children: [Signal; 3],
    mapped: [Signal; 3],
) -> impl Iterator<Item = ([Signal; 3], [Signal; 2])> + 'a {
    (0..3).filter_map(move |i| {
        let m = mapped[i];
        // The inner gate must be uncomplemented (as the axioms are stated)
        // and about to die, otherwise restructuring duplicates it.
        if m.is_complement() || !single_fanout(view, children[i]) {
            return None;
        }
        Some((built.gate_children(m)?, other_two(mapped, i)))
    })
}

/// Builds `⟨outer₀ outer₁ ⟨inner⟩⟩`, the inner gate first.
#[inline]
pub(crate) fn add_nested(new: &mut Mig, outer: [Signal; 2], inner: [Signal; 3]) -> Signal {
    let inner = new.add_maj(inner[0], inner[1], inner[2]);
    new.add_maj(outer[0], outer[1], inner)
}

/// The two children of `ch` other than `ch[skip]`, in order.
#[inline]
pub(crate) fn other_two(ch: [Signal; 3], skip: usize) -> [Signal; 2] {
    match skip {
        0 => [ch[1], ch[2]],
        1 => [ch[0], ch[2]],
        _ => [ch[0], ch[1]],
    }
}

/// The children of `t` other than `exclude`, when there are exactly two
/// (i.e. `exclude` occurs exactly once in the triple).
#[inline]
pub(crate) fn two_excluding(t: &[Signal; 3], exclude: Signal) -> Option<[Signal; 2]> {
    let mut out = [Signal::FALSE; 2];
    let mut n = 0;
    for &s in t {
        if s != exclude {
            if n == 2 {
                return None;
            }
            out[n] = s;
            n += 1;
        }
    }
    (n == 2).then_some(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simulate::equiv_random;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Random layered MIG used to stress the passes.
    pub(crate) fn random_mig(seed: u64, inputs: usize, gates: usize, outputs: usize) -> Mig {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut mig = Mig::new(inputs);
        let mut pool: Vec<Signal> = mig.inputs().collect();
        pool.push(Signal::FALSE);
        while mig.num_gates() < gates {
            let mut pick = || {
                let s = pool[rng.gen_range(0..pool.len())];
                s.complement_if(rng.gen_bool(0.35))
            };
            let (a, b, c) = (pick(), pick(), pick());
            let g = mig.add_maj(a, b, c);
            pool.push(g);
        }
        for _ in 0..outputs {
            let s = pool[rng.gen_range(0..pool.len())];
            mig.add_output(s.complement_if(rng.gen_bool(0.3)));
        }
        mig
    }

    #[test]
    fn majority_pass_gc_and_preserves_function() {
        let mig = random_mig(1, 8, 200, 6);
        let out = Pass::Majority.run(&mig);
        assert!(out.num_gates() <= mig.num_gates());
        assert!(equiv_random(&mig, &out, 16, 99).is_equal());
    }

    #[test]
    fn every_pass_preserves_function_on_random_graphs() {
        for seed in 0..6 {
            let mig = random_mig(seed, 10, 300, 8);
            for pass in [
                Pass::Majority,
                Pass::DistributivityRl,
                Pass::Associativity,
                Pass::ComplementaryAssociativity,
                Pass::InvertersTwoOrThree,
                Pass::InvertersThreeOnly,
            ] {
                let out = pass.run(&mig);
                assert!(
                    equiv_random(&mig, &out, 16, seed ^ 0xABCD).is_equal(),
                    "pass {pass:?} broke seed {seed}"
                );
            }
        }
    }

    #[test]
    fn algorithms_preserve_function_and_do_not_grow() {
        for seed in [3, 17] {
            let mig = random_mig(seed, 12, 400, 10);
            let baseline = Pass::Majority.run(&mig).num_gates();
            for alg in [Algorithm::PlimCompiler, Algorithm::EnduranceAware] {
                let out = rewrite(&mig, alg, 5);
                assert!(
                    equiv_random(&mig, &out, 16, seed).is_equal(),
                    "{alg:?} broke seed {seed}"
                );
                assert!(
                    out.num_gates() <= baseline,
                    "{alg:?} grew the graph on seed {seed}"
                );
            }
        }
    }

    #[test]
    fn endurance_rewriting_controls_complemented_edges() {
        // After Algorithm 2, no gate should have ≥ 2 complemented
        // non-constant children (the inverter passes flip them away).
        let mig = random_mig(5, 10, 500, 8);
        let out = rewrite(&mig, Algorithm::EnduranceAware, 5);
        for g in out.gates() {
            assert!(
                out.complemented_edge_count(g) <= 1,
                "gate {g} kept {} complemented edges",
                out.complemented_edge_count(g)
            );
        }
    }

    #[test]
    fn rewrite_is_deterministic() {
        let mig = random_mig(9, 10, 300, 8);
        let a = rewrite(&mig, Algorithm::EnduranceAware, 3);
        let b = rewrite(&mig, Algorithm::EnduranceAware, 3);
        assert!(a == b);
    }

    #[test]
    fn fingerprint_distinguishes_depth_only_changes() {
        // The exact shape LevelBalance produces: same gate count, same
        // complemented-edge count, different depth. The fixed-point check
        // must not treat these as converged.
        let mut a = Mig::new(5);
        let s: Vec<Signal> = a.inputs().collect();
        let d1 = a.add_maj(s[2], s[3], s[4]);
        let z = a.add_maj(d1, s[3], !s[0]);
        let inner = a.add_maj(s[2], s[1], z);
        let f = a.add_maj(s[0], s[1], inner);
        a.add_output(f);

        // LevelBalance leaves the bypassed inner gate dead; a Majority
        // (GC) pass removes it, as happens inside every real cycle.
        let b = Pass::Majority.run(&Pass::LevelBalance.run(&a));
        assert_eq!(a.num_gates(), b.num_gates());
        assert_eq!(a.total_complemented_edges(), b.total_complemented_edges());
        assert_ne!(a.depth(), b.depth());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    const PASSES: [Pass; 7] = [
        Pass::Majority,
        Pass::DistributivityRl,
        Pass::Associativity,
        Pass::ComplementaryAssociativity,
        Pass::InvertersTwoOrThree,
        Pass::InvertersThreeOnly,
        Pass::LevelBalance,
    ];

    #[test]
    fn every_pass_is_a_pure_function_of_its_input() {
        // The idle-pass skip in `rewrite` relies on this: a pass's output
        // depends on its input graph alone, not on what the recycled
        // workspace or output buffer held before.
        for seed in 0..4 {
            let other = random_mig(seed + 100, 14, 600, 10);
            let input = Pass::Majority.run(&random_mig(seed, 10, 300, 8));
            for pass in PASSES {
                let mut ws = Workspace::default();
                let mut recycled = Mig::new(other.num_inputs());
                pass.rebuild(&other, &StructuralView::of(&other), &mut recycled, &mut ws);
                let mut first = Mig::new(0);
                let view = StructuralView::of(&input);
                pass.rebuild(&input, &view, &mut first, &mut ws);
                pass.rebuild(&input, &view, &mut recycled, &mut ws);
                assert!(first == recycled, "{pass:?} is not pure on seed {seed}");
                assert!(
                    first == pass.run(&input),
                    "{pass:?} depends on its workspace"
                );
            }
        }
    }

    #[test]
    fn xor_chain_shrinks() {
        let mut mig = Mig::new(6);
        let mut acc = mig.input(0);
        for i in 1..6 {
            let x = mig.input(i);
            acc = mig.xor(acc, x);
        }
        mig.add_output(acc);
        let out = rewrite(&mig, Algorithm::EnduranceAware, 5);
        assert!(equiv_random(&mig, &out, 16, 0).is_equal());
        assert!(out.num_gates() <= mig.num_gates());
    }
}
