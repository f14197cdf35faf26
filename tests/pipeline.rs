//! Pass-pipeline invariants: every pipeline stage is semantics-preserving
//! on arbitrary graphs (oracle-verified), and the peephole write-elision
//! pass never worsens any metric on the full 18-benchmark suite.

use proptest::prelude::*;
use rlim::benchmarks::Benchmark;
use rlim::compiler::{compile, CompileOptions, CompileResult, FrontEnd, FrontKey, PassManager};
use rlim::imp::ImpMachine;
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::mig::Mig;
use rlim::plim::parallel::parallel_map;
use rlim::plim::{Controller, Machine};
use rlim_testkit::Oracle;

fn mig_strategy() -> impl Strategy<Value = Mig> {
    (
        2usize..9,    // inputs
        1usize..6,    // outputs
        0usize..120,  // gates
        0.0f64..0.6,  // complement probability
        any::<u64>(), // seed
    )
        .prop_map(|(inputs, outputs, gates, complement_prob, seed)| {
            let cfg = RandomMigConfig {
                inputs,
                outputs,
                gates,
                complement_prob,
                ..Default::default()
            };
            generate(&cfg, seed)
        })
}

/// Reference for `compile()`'s guards: the nested best-of that reruns
/// the whole standard pipeline per guard arm (four runs with esat and
/// copy-reuse both on), each guard comparing the paper's metrics
/// pointwise and keeping the preferred arm on ties.
fn nested_best_of(mig: &Mig, options: &CompileOptions) -> CompileResult {
    fn guard(
        preferred: CompileResult,
        mut other: CompileResult,
        options: &CompileOptions,
    ) -> CompileResult {
        let (a, b) = (preferred.write_stats(), other.write_stats());
        if preferred.num_instructions() <= other.num_instructions()
            && a.max <= b.max
            && a.stdev <= b.stdev
        {
            preferred
        } else {
            other.options = *options;
            other
        }
    }
    let reuse_guarded = |options: &CompileOptions| {
        let reused = PassManager::standard(options).run(mig, options);
        if !options.copy_reuse {
            return reused;
        }
        let plain = options.with_copy_reuse(false);
        guard(
            reused,
            PassManager::standard(&plain).run(mig, &plain),
            options,
        )
    };
    let saturated = reuse_guarded(options);
    if !options.esat {
        return saturated;
    }
    guard(saturated, reuse_guarded(&options.with_esat(false)), options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every prefix of the standard pipeline is semantics-preserving:
    /// the baseline pipeline (schedule → translate), the rewriting
    /// pipeline, and the full pipeline with the peephole each produce a
    /// program the oracle confirms against direct MIG evaluation.
    #[test]
    fn every_pipeline_stage_preserves_semantics(mig in mig_strategy()) {
        let oracle = Oracle::new().with_sample_rounds(6).with_imp(false);
        let stage_options = [
            ("baseline", CompileOptions::naive()),
            ("rewrite", CompileOptions::endurance_aware()),
            ("peephole", CompileOptions::endurance_aware().with_peephole(true)),
        ];
        for (label, options) in stage_options {
            let result = PassManager::standard(&options).run(&mig, &options);
            prop_assert_eq!(result.program.validate(), Ok(()));
            oracle.verify_program(&mig, "pipeline", label, &result.program);
        }
    }

    /// The pipeline entry point and a hand-assembled pass manager agree
    /// instruction for instruction, and the peephole output is always a
    /// same-or-smaller program with same-or-smaller per-cell writes.
    #[test]
    fn peephole_is_monotone_on_random_graphs(mig in mig_strategy()) {
        let base = CompileOptions::endurance_aware();
        let off = compile(&mig, &base);
        let on = compile(&mig, &base.with_peephole(true));
        prop_assert!(on.num_instructions() <= off.num_instructions());
        let off_counts = off.program.write_counts();
        let on_counts = on.program.write_counts();
        prop_assert_eq!(off_counts.len(), on_counts.len());
        for (cell, (&a, &b)) in on_counts.iter().zip(&off_counts).enumerate() {
            prop_assert!(a <= b, "cell r{} gained writes: {} > {}", cell, a, b);
        }
    }

    /// Copy discovery is semantics-preserving under every canonical
    /// preset: the translator may read values already live in cells and
    /// spill still-useful cells to spares, but the compiled program must
    /// compute the MIG's function bit for bit (oracle-verified).
    #[test]
    fn copy_reuse_preserves_semantics_across_presets(mig in mig_strategy()) {
        let oracle = Oracle::new().with_sample_rounds(6).with_imp(false);
        for &name in CompileOptions::preset_names() {
            let options = CompileOptions::preset(name)
                .expect("canonical preset")
                .with_copy_reuse(true);
            let result = compile(&mig, &options);
            prop_assert_eq!(result.program.validate(), Ok(()));
            oracle.verify_program(&mig, "copy_reuse", name, &result.program);
        }
    }

    /// The wear-aware selection guarantee: turning copy-reuse on never
    /// worsens `#I`, the max per-cell write count or the write stdev —
    /// `compile` keeps the reuse schedule only when it is pointwise no
    /// worse, so the guarantee holds on *every* input, not just the
    /// benchmark suite.
    #[test]
    fn copy_reuse_is_monotone_on_random_graphs(mig in mig_strategy()) {
        let base = CompileOptions::endurance_aware();
        let off = compile(&mig, &base);
        let on = compile(&mig, &base.with_copy_reuse(true));
        prop_assert!(on.num_instructions() <= off.num_instructions());
        let (on_stats, off_stats) = (on.write_stats(), off.write_stats());
        prop_assert!(on_stats.max <= off_stats.max);
        prop_assert!(on_stats.stdev <= off_stats.stdev);
    }

    /// Equality saturation is semantics-preserving under every canonical
    /// preset: whatever realization the extractor picks out of the
    /// saturated e-graph, the compiled program computes the MIG's
    /// function bit for bit (oracle-verified). Tight budgets keep the
    /// debug-mode e-graphs small without changing what is being proved.
    #[test]
    fn esat_preserves_semantics_across_presets(mig in mig_strategy()) {
        let oracle = Oracle::new().with_sample_rounds(6).with_imp(false);
        for &name in CompileOptions::preset_names() {
            let options = CompileOptions::preset(name)
                .expect("canonical preset")
                .with_esat(true)
                .with_esat_nodes(2_000)
                .with_esat_iters(2);
            let result = compile(&mig, &options);
            prop_assert_eq!(result.program.validate(), Ok(()));
            oracle.verify_program(&mig, "esat", name, &result.program);
        }
    }

    /// The esat guarantee: turning saturation on never worsens `#I`, the
    /// max per-cell write count or the write stdev — `compile` keeps the
    /// extracted graph only when it is pointwise no worse than the greedy
    /// fixed point, so the guarantee holds on *every* input.
    #[test]
    fn esat_is_monotone_on_random_graphs(mig in mig_strategy()) {
        let base = CompileOptions::endurance_aware();
        let off = compile(&mig, &base);
        let on = compile(
            &mig,
            &base.with_esat(true).with_esat_nodes(2_000).with_esat_iters(2),
        );
        prop_assert!(on.num_instructions() <= off.num_instructions());
        let (on_stats, off_stats) = (on.write_stats(), off.write_stats());
        prop_assert!(on_stats.max <= off_stats.max);
        prop_assert!(on_stats.stdev <= off_stats.stdev);
    }

    /// `compile()` computes each graph stage once and branches only at
    /// translation, yet returns exactly what the nested best-of returns:
    /// the same program, options and graph, for copy-reuse, esat and
    /// both, under every preset with and without a write cap or the
    /// peephole.
    #[test]
    fn shared_stage_compile_matches_the_nested_best_of(
        mig in mig_strategy(),
        preset in 0..CompileOptions::preset_names().len(),
        variant in 0usize..3,
    ) {
        let name = CompileOptions::preset_names()[preset];
        let base = CompileOptions::preset(name).expect("canonical preset");
        let base = match variant {
            0 => base,
            1 => base.with_max_writes(5),
            _ => base.with_peephole(true),
        };
        for (copy_reuse, esat) in [(true, false), (false, true), (true, true)] {
            let options = base
                .with_copy_reuse(copy_reuse)
                .with_esat(esat)
                .with_esat_nodes(2_000)
                .with_esat_iters(2);
            let got = compile(&mig, &options);
            let want = nested_best_of(&mig, &options);
            prop_assert_eq!(&got.program, &want.program, "{:?}", options);
            prop_assert_eq!(got.options, want.options);
            prop_assert_eq!(got.mig.fingerprint(), want.mig.fingerprint());
        }
    }

    /// Saturation is deterministic: two compiles of the same graph with
    /// the same budgets produce instruction-identical programs (the
    /// e-graph iterates no hash-order-dependent state).
    #[test]
    fn esat_is_deterministic(mig in mig_strategy()) {
        let options = CompileOptions::endurance_aware()
            .with_esat(true)
            .with_esat_nodes(2_000)
            .with_esat_iters(2);
        let a = compile(&mig, &options);
        let b = compile(&mig, &options);
        prop_assert_eq!(a.program, b.program);
    }

    /// Fleet safety: copy discovery tracks only values the program itself
    /// materialised, so a program dropped onto a long-lived array full of
    /// a *prior job's* residue still computes the right outputs — no
    /// copy-discovery read is ever satisfied by leftover garbage.
    #[test]
    fn copy_reuse_programs_ignore_prior_job_residue(
        mig in mig_strategy(),
        residue_seed: u64,
        input_seed: u64,
    ) {
        use rand::{Rng, SeedableRng};
        use rlim::rram::{CellId, Crossbar};

        let options = CompileOptions::endurance_aware().with_copy_reuse(true);
        let program = compile(&mig, &options).program;

        // A dirty array: every cell holds a pseudorandom prior value.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(residue_seed);
        let mut array = Crossbar::new();
        array.grow_to(program.num_cells);
        for i in 0..program.num_cells {
            array.preload(CellId::new(i as u32), rng.gen());
        }
        let mut machine = Machine::with_array(array);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(input_seed);
        for _ in 0..3 {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
            let expect = mig.evaluate(&inputs);
            let got = machine.run(&program, &inputs).expect("no endurance limit");
            prop_assert_eq!(&got, &expect, "residue leaked into the outputs");
        }
    }

    /// Every backend computes the MIG's function on every input pattern
    /// (MIG = RM3 = hosted-RM3 = IMPLY): the RM3 program on the external
    /// machine and self-hosted under the controller, and the IMPLY
    /// program on its machine.
    #[test]
    fn backends_agree_through_the_api(mig in mig_strategy()) {
        let options = CompileOptions::naive();
        let rm3 = compile(&mig, &options).program;
        let imp = FrontEnd::build(&mig, FrontKey::of(&options)).imp_program(&options);
        for pattern in 0..1usize << mig.num_inputs() {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|i| (pattern >> i) & 1 == 1).collect();
            let expect = mig.evaluate(&inputs);
            prop_assert_eq!(&Machine::for_program(&rm3).run(&rm3, &inputs).unwrap(), &expect);
            prop_assert_eq!(&Controller::host(&rm3).unwrap().run(&inputs).unwrap(), &expect);
            prop_assert_eq!(&ImpMachine::for_program(&imp).run(&imp, &inputs).unwrap(), &expect);
        }
    }
}

/// Exact `#I` of the endurance-aware preset (effort 5) with the peephole
/// on, for the seven largest benchmarks. The pass elides writes on two
/// of them: `log2` (59073 without it) and `mem_ctrl` (84823 without it).
const ENDURANCE_AWARE_PEEPHOLE_INSTRUCTIONS: &[(Benchmark, usize)] = &[
    (Benchmark::Div, 77000),
    (Benchmark::Multiplier, 64004),
    (Benchmark::Square, 58015),
    (Benchmark::Sqrt, 50468),
    (Benchmark::Log2, 58935),
    (Benchmark::MemCtrl, 84763),
    (Benchmark::Voter, 12913),
];

/// Golden acceptance check on the full 18-benchmark suite: the peephole
/// pass never increases `#I` or the maximum per-cell write count, never
/// changes `#R`, and strictly shrinks `#I` on at least 3 benchmarks. The
/// endurance-aware compiles of the largest benchmarks are held to the
/// same bounds and to their exact peephole `#I`.
#[test]
fn peephole_golden_on_benchmark_suite() {
    // `naive` keeps the full sweep debug-mode-fast (no rewriting cycles)
    // while still exercising every benchmark; the per-preset behaviour
    // is covered by the property tests above.
    let naive = Benchmark::all()
        .iter()
        .map(|&b| (b, CompileOptions::naive(), None));
    let endurance_aware = ENDURANCE_AWARE_PEEPHOLE_INSTRUCTIONS
        .iter()
        .map(|&(b, expect)| (b, CompileOptions::endurance_aware(), Some(expect)));
    let jobs = naive.chain(endurance_aware).collect();
    let rows = parallel_map(jobs, 0, |(b, base, expect)| {
        let mig = b.build();
        let off = compile(&mig, &base).program;
        let on = compile(&mig, &base.with_peephole(true)).program;
        (b, off, on, expect)
    });
    let mut strictly_smaller = 0;
    for (b, off, on, expect) in rows {
        assert!(
            on.num_instructions() <= off.num_instructions(),
            "{b}: peephole grew #I"
        );
        assert!(
            on.write_stats().max <= off.write_stats().max,
            "{b}: peephole grew the max per-cell write count"
        );
        assert_eq!(on.num_rrams(), off.num_rrams(), "{b}: cells renumbered");
        match expect {
            Some(expect) => assert_eq!(
                on.num_instructions(),
                expect,
                "{b}: endurance-aware peephole #I moved"
            ),
            None if on.num_instructions() < off.num_instructions() => strictly_smaller += 1,
            None => {}
        }
    }
    assert!(
        strictly_smaller >= 3,
        "peephole should strictly shrink #I on at least 3 of the 18 \
         benchmarks, got {strictly_smaller}"
    );
}
