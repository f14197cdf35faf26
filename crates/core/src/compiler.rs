//! The MIG → PLiM compile entry point and its result type.
//!
//! [`compile`] builds the [`FrontEnd`] (rewrite, then schedule) and
//! compiles from it ([`compile_front`]): translate → optional peephole →
//! finalize, plus the best-of guards of copy-reuse and esat, which share
//! the graph stages and branch only at translation. See
//! [`crate::pipeline`] for the passes and [`crate::translate`] for the
//! node-translation rules.

use std::sync::Arc;

use rlim_mig::Mig;
use rlim_plim::Program;
use rlim_rram::WriteStats;

use crate::frontend::{FrontEnd, FrontKey, WearSummary};
use crate::options::CompileOptions;
use crate::peephole::{elide_dead_writes, elide_redundant_writes};
use crate::pipeline::{esat_search, translate_arms};

/// Output of [`compile`]: the program plus the graph it was generated from.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The compiled PLiM program.
    pub program: Program,
    /// The (possibly rewritten) MIG the program computes, shared with
    /// the front end it came from when esat kept no other graph.
    pub mig: Arc<Mig>,
    /// The options used.
    pub options: CompileOptions,
}

impl CompileResult {
    /// Write-distribution statistics over **all** cells the program
    /// allocates — the paper's STDEV / min / max metrics.
    pub fn write_stats(&self) -> WriteStats {
        self.program.write_stats()
    }

    /// The paper's `#I` metric.
    pub fn num_instructions(&self) -> usize {
        self.program.num_instructions()
    }

    /// The paper's `#R` metric.
    pub fn num_rrams(&self) -> usize {
        self.program.num_rrams()
    }

    /// Total writes one execution inflicts on its array (= `#I`; every
    /// RM3 instruction is one destination write). This is the unit a
    /// fleet's per-array write budget is expressed in.
    pub fn total_writes(&self) -> u64 {
        self.program.num_instructions() as u64
    }

    /// The hottest cell's per-execution write count — with a device
    /// endurance `E`, one array survives `⌊E / peak⌋` executions of this
    /// program (see `rlim_rram::lifetime`).
    pub fn peak_writes(&self) -> u64 {
        self.write_stats().max
    }
}

/// Compiles an MIG into a PLiM program under the given options, running
/// the standard pass pipeline.
///
/// [`CompileOptions::with_copy_reuse`] and [`CompileOptions::with_esat`]
/// each add a best-of guard, so neither option can worsen the paper's
/// endurance metrics (`#I`, peak per-cell writes, write STDEV):
///
/// * the copy-reuse program is kept only when its wear profile is
///   pointwise no worse than the program translated without reuse;
/// * one level up, the equality-saturated graph is kept only when its
///   guarded program is pointwise no worse than the greedy fixed
///   point's.
///
/// Ties keep the reuse and the saturated results. The graph stages run
/// once and the arms branch only at translation: one rewrite, one esat
/// search whose candidates are scored under each translate arm (keeping
/// one best graph per arm), one schedule per distinct graph, then
/// translate and peephole per arm. The result is the one the guarded
/// pipelines would each produce when run on their own.
///
/// This is [`compile_front`] on a fresh [`FrontEnd`]; compile many
/// configurations of one circuit through one front end to rewrite and
/// schedule it once.
///
/// # Examples
///
/// ```
/// use rlim_compiler::{compile, CompileOptions};
/// use rlim_mig::Mig;
///
/// let mut mig = Mig::new(3);
/// let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
/// let m = mig.add_maj(a, !b, c);
/// mig.add_output(m);
/// let result = compile(&mig, &CompileOptions::naive());
/// // One ideal node: a single RM3 instruction, no extra cells.
/// assert_eq!(result.num_instructions(), 1);
/// assert_eq!(result.num_rrams(), 3);
/// ```
pub fn compile(mig: &Mig, options: &CompileOptions) -> CompileResult {
    compile_front(&FrontEnd::build(mig, FrontKey::of(options)), options)
}

/// [`compile`] from an already built front end: everything after
/// rewrite and schedule, reading the front end's graph and its schedule
/// under `options.selection` (filled on first use). An uncapped compile
/// also fills the front end's RM3 slot for `options` (see
/// [`FrontEnd::rm3_summary`]) with its program's wear summary and its
/// translated peak.
///
/// # Panics
///
/// Panics if `front` was built for another rewriting algorithm or
/// effort ([`FrontEnd::serves`]).
pub fn compile_front(front: &FrontEnd, options: &CompileOptions) -> CompileResult {
    assert!(
        front.serves(options),
        "a front end compiles only the rewriting it was built with"
    );
    let greedy = front.graph();
    // Translate arms, the one the guard prefers first. Copy discovery
    // always removes instructions, but on graphs with little reuse the
    // elided materialisations double as implicit wear leveling, so the
    // program without reuse competes.
    let mut arms = vec![*options];
    if options.copy_reuse {
        arms.push(options.with_copy_reuse(false));
    }
    // The largest write count one cell took in any translation below,
    // before peephole: the translated peak of an uncapped compile.
    let mut peak = 0;
    let greedy_programs =
        translate_arms(greedy, front.schedule(options.selection), &arms, &mut peak);
    // The extraction cost is a tree estimate, so on reconvergent graphs
    // the saturated pick can lose to the greedy fixed point once real
    // scheduling and allocation run: the greedy arms compete.
    let saturated = options
        .esat
        .then(|| esat_search(greedy, options, &arms, greedy_programs.clone(), &mut peak));

    // The guard: the preferred arm unless it is worse somewhere. Scores
    // are taken only where two arms compete.
    type Arm = (Option<Arc<Mig>>, Program);
    let prefer = |preferred: Arm, other: Arm| {
        if WearSummary::of(&preferred.1).no_worse_than(&WearSummary::of(&other.1)) {
            preferred
        } else {
            other
        }
    };
    let guarded = |candidates: Vec<Arm>| {
        candidates
            .into_iter()
            .map(|(graph, mut program)| {
                if options.peephole {
                    elide_redundant_writes(&mut program);
                    elide_dead_writes(&mut program);
                    debug_assert_eq!(program.validate(), Ok(()));
                }
                (graph, program)
            })
            .reduce(prefer)
            .expect("at least one translate arm")
    };
    let mut best = guarded(greedy_programs.into_iter().map(|p| (None, p)).collect());
    if let Some(saturated) = saturated {
        let esat = saturated.into_iter().map(|b| (b.graph, b.program));
        best = prefer(guarded(esat.collect()), best);
    }
    let (graph, program) = best;
    if options.max_writes.is_none() {
        front.fill_rm3(options, WearSummary::of(&program), peak);
    }
    CompileResult {
        program,
        mig: graph.unwrap_or_else(|| Arc::clone(greedy)),
        options: *options,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_mig::Signal;
    use rlim_plim::Machine;

    /// Compile + execute on the machine must match MIG evaluation.
    fn assert_functional(mig: &Mig, options: &CompileOptions, seed: u64) {
        use rand::{Rng, SeedableRng};
        let result = compile(mig, options);
        result.program.validate().expect("program is well-formed");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..16 {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
            let expect = mig.evaluate(&inputs);
            let mut machine = Machine::for_program(&result.program);
            let got = machine
                .run(&result.program, &inputs)
                .expect("no endurance limit");
            assert_eq!(got, expect, "inputs {inputs:?} options {options:?}");
        }
    }

    fn all_option_sets() -> Vec<CompileOptions> {
        vec![
            CompileOptions::naive(),
            CompileOptions::plim_compiler(),
            CompileOptions::min_write(),
            CompileOptions::endurance_rewriting(),
            CompileOptions::endurance_aware(),
            CompileOptions::endurance_aware().with_max_writes(10),
            CompileOptions::endurance_aware().with_max_writes(3),
            CompileOptions::endurance_aware().with_peephole(true),
            CompileOptions::naive().with_peephole(true),
            CompileOptions::endurance_aware().with_copy_reuse(true),
            CompileOptions::naive().with_copy_reuse(true),
            CompileOptions::endurance_aware()
                .with_copy_reuse(true)
                .with_peephole(true),
            CompileOptions::endurance_aware()
                .with_max_writes(10)
                .with_copy_reuse(true),
            CompileOptions::endurance_aware().with_esat(true),
            CompileOptions::naive().with_esat(true),
            CompileOptions::endurance_aware()
                .with_esat(true)
                .with_copy_reuse(true)
                .with_peephole(true),
        ]
    }

    #[test]
    fn ideal_node_is_one_instruction() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let m = mig.add_maj(a, !b, c);
        mig.add_output(m);
        let r = compile(&mig, &CompileOptions::naive());
        assert_eq!(r.num_instructions(), 1);
        assert_eq!(r.num_rrams(), 3, "three input cells, no extras");
        assert_functional(&mig, &CompileOptions::naive(), 1);
    }

    #[test]
    fn zero_complement_node_needs_materialisation() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let m = mig.add_maj(a, b, c);
        mig.add_output(m);
        let r = compile(&mig, &CompileOptions::naive());
        // Q must be an inverse: set + load + main = 3 instructions, 1 temp.
        assert_eq!(r.num_instructions(), 3);
        assert_eq!(r.num_rrams(), 4);
        assert_functional(&mig, &CompileOptions::naive(), 2);
    }

    #[test]
    fn and_gate_uses_constant_operands() {
        // ⟨a b 0⟩: Q can be the constant (free), Z consumes a or b in place.
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g = mig.and(a, b);
        mig.add_output(g);
        let r = compile(&mig, &CompileOptions::naive());
        assert_eq!(r.num_instructions(), 1);
        assert_eq!(r.num_rrams(), 2);
        assert_functional(&mig, &CompileOptions::naive(), 3);
    }

    #[test]
    fn multi_fanout_child_forces_copy() {
        // g1 = a∧b feeds two parents: the first parent cannot consume it.
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g1 = mig.and(a, b);
        let g2 = mig.and(g1, c);
        let g3 = mig.or(g1, c);
        mig.add_output(g2);
        mig.add_output(g3);
        assert_functional(&mig, &CompileOptions::naive(), 4);
    }

    #[test]
    fn complemented_output_materialised() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g = mig.and(a, b);
        mig.add_output(!g);
        mig.add_output(!g); // shared: one materialisation
        let r = compile(&mig, &CompileOptions::naive());
        assert_eq!(r.program.output_cells[0], r.program.output_cells[1]);
        assert_functional(&mig, &CompileOptions::naive(), 5);
    }

    #[test]
    fn constant_output_supported() {
        let mut mig = Mig::new(1);
        mig.add_output(Signal::TRUE);
        mig.add_output(Signal::FALSE);
        let r = compile(&mig, &CompileOptions::naive());
        let mut machine = Machine::for_program(&r.program);
        let out = machine.run(&r.program, &[false]).unwrap();
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn input_passthrough_output() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        mig.add_output(a);
        mig.add_output(!a);
        for opts in all_option_sets() {
            assert_functional(&mig, &opts, 6);
        }
    }

    #[test]
    fn all_policies_functionally_correct_on_random_graphs() {
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 120,
            ..Default::default()
        };
        for seed in 0..3 {
            let mig = generate(&cfg, seed);
            for opts in all_option_sets() {
                assert_functional(&mig, &opts, seed ^ 77);
            }
        }
    }

    #[test]
    fn max_write_strategy_bounds_every_cell() {
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 200,
            ..Default::default()
        };
        let mig = generate(&cfg, 11);
        for limit in [3, 10, 20] {
            for peephole in [false, true] {
                for copy_reuse in [false, true] {
                    let opts = CompileOptions::endurance_aware()
                        .with_max_writes(limit)
                        .with_peephole(peephole)
                        .with_copy_reuse(copy_reuse);
                    let r = compile(&mig, &opts);
                    let counts = r.program.write_counts();
                    assert!(
                        counts.iter().all(|&c| c <= limit),
                        "limit {limit} violated (peephole {peephole}, \
                         copy_reuse {copy_reuse}): max {}",
                        counts.iter().max().unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn min_write_strategy_does_not_change_instruction_or_cell_counts() {
        // Paper: "the minimum write count strategy does not influence the
        // number of required instructions and RRAMs."
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 10,
            outputs: 8,
            gates: 300,
            ..Default::default()
        };
        for seed in 0..3 {
            let mig = generate(&cfg, seed);
            let lifo = compile(&mig, &CompileOptions::plim_compiler());
            let minw = compile(&mig, &CompileOptions::min_write());
            assert_eq!(lifo.num_instructions(), minw.num_instructions());
            assert_eq!(lifo.num_rrams(), minw.num_rrams());
        }
    }

    #[test]
    fn min_write_improves_balance_on_hot_cell_pattern() {
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 10,
            outputs: 8,
            gates: 400,
            ..Default::default()
        };
        let mut improved = 0;
        for seed in 0..5 {
            let mig = generate(&cfg, seed);
            let lifo = compile(&mig, &CompileOptions::plim_compiler()).write_stats();
            let minw = compile(&mig, &CompileOptions::min_write()).write_stats();
            if minw.stdev <= lifo.stdev {
                improved += 1;
            }
        }
        assert!(improved >= 4, "min-write should usually balance better");
    }

    #[test]
    fn compile_result_metrics_consistent() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g = mig.xor(a, b);
        mig.add_output(g);
        let r = compile(&mig, &CompileOptions::endurance_aware());
        assert_eq!(r.num_instructions(), r.program.instructions.len());
        assert_eq!(r.num_rrams(), r.program.num_cells);
        let stats = r.write_stats();
        assert_eq!(stats.cells, r.num_rrams());
        assert_eq!(stats.total as usize, r.num_instructions());
    }

    #[test]
    fn copy_reuse_never_grows_instructions_on_random_graphs() {
        // Copy discovery only replaces materialisation chains with reads
        // of existing holders, so `#I` can only shrink; `#R` may move in
        // either direction (spilling adds cold cells, chain elision and
        // PO reuse remove them).
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 250,
            ..Default::default()
        };
        for seed in 0..4 {
            let mig = generate(&cfg, seed);
            for base in [
                CompileOptions::naive(),
                CompileOptions::plim_compiler(),
                CompileOptions::endurance_aware(),
            ] {
                let off = compile(&mig, &base);
                let on = compile(&mig, &base.with_copy_reuse(true));
                assert!(
                    on.num_instructions() <= off.num_instructions(),
                    "copy reuse grew #I on seed {seed}"
                );
                // Wear-aware selection: the reuse schedule is only kept
                // when pointwise no worse, so these hold on every input.
                let (on_stats, off_stats) = (on.write_stats(), off.write_stats());
                assert!(
                    on_stats.max <= off_stats.max,
                    "copy reuse raised peak writes on seed {seed}"
                );
                assert!(
                    on_stats.stdev <= off_stats.stdev,
                    "copy reuse worsened balance on seed {seed}"
                );
            }
        }
    }

    #[test]
    fn esat_never_degrades_the_paper_metrics_on_random_graphs() {
        // The best-of guard in `compile` makes this hold on every input,
        // not just in expectation.
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 120,
            ..Default::default()
        };
        for seed in 0..3 {
            let mig = generate(&cfg, seed);
            for base in [CompileOptions::naive(), CompileOptions::endurance_aware()] {
                let off = compile(&mig, &base);
                let esat = base
                    .with_esat(true)
                    .with_esat_nodes(2_000)
                    .with_esat_iters(2);
                let on = compile(&mig, &esat);
                assert!(
                    on.num_instructions() <= off.num_instructions(),
                    "esat grew #I on seed {seed}"
                );
                let (on_stats, off_stats) = (on.write_stats(), off.write_stats());
                assert!(
                    on_stats.max <= off_stats.max,
                    "esat raised peak writes on seed {seed}"
                );
                assert!(
                    on_stats.stdev <= off_stats.stdev,
                    "esat worsened balance on seed {seed}"
                );
                assert_eq!(on.options, esat, "reported options keep the esat flag");
            }
        }
    }

    #[test]
    fn peephole_never_grows_programs_on_random_graphs() {
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 250,
            ..Default::default()
        };
        for seed in 0..4 {
            let mig = generate(&cfg, seed);
            for base in [
                CompileOptions::naive(),
                CompileOptions::plim_compiler(),
                CompileOptions::endurance_aware(),
            ] {
                let off = compile(&mig, &base);
                let on = compile(&mig, &base.with_peephole(true));
                assert!(on.num_instructions() <= off.num_instructions());
                assert!(on.write_stats().max <= off.write_stats().max);
                assert_eq!(on.num_rrams(), off.num_rrams(), "cells are not renumbered");
            }
        }
    }
}
