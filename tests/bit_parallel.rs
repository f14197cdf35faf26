//! Property-based tests of the word-level bit-parallel execution path:
//! on arbitrary random MIGs, compiler presets and lane counts, one
//! 64-lane-celled word pass must be indistinguishable from the same
//! number of independent scalar runs — output bits *and* per-cell
//! logical write counts (the wear-equivalence invariant that keeps the
//! paper's endurance numbers valid on the SIMD path).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlim::compiler::{compile, Backend, CompileOptions, Rm3Backend, WideRm3Backend};
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::mig::Mig;
use rlim::plim::{
    run_once, run_once_wide, DispatchPolicy, Fleet, FleetConfig, Job, Machine, WideMachine,
};
use rlim::rram::WideCrossbar;
use rlim_testkit::replay_fleet;

/// Strategy: a seeded random MIG configuration small enough for
/// debug-mode compile+execute rounds (same shape as property_based.rs).
fn mig_strategy() -> impl Strategy<Value = Mig> {
    (
        2usize..10,   // inputs
        1usize..8,    // outputs
        0usize..160,  // gates
        0.0f64..0.6,  // complement probability
        0.0f64..0.5,  // long-edge probability
        any::<u64>(), // seed
    )
        .prop_map(
            |(inputs, outputs, gates, complement_prob, long_edge_prob, seed)| {
                let cfg = RandomMigConfig {
                    inputs,
                    outputs,
                    gates,
                    complement_prob,
                    long_edge_prob,
                    ..Default::default()
                };
                generate(&cfg, seed)
            },
        )
}

fn any_options() -> impl Strategy<Value = CompileOptions> {
    prop_oneof![
        Just(CompileOptions::naive()),
        Just(CompileOptions::plim_compiler()),
        Just(CompileOptions::min_write()),
        Just(CompileOptions::endurance_rewriting()),
        Just(CompileOptions::endurance_aware()),
        Just(CompileOptions::naive().with_peephole(true)),
        (3u64..40).prop_map(|w| CompileOptions::endurance_aware().with_max_writes(w)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) The tentpole invariant: a `lanes`-wide word pass equals
    /// `lanes` independent scalar runs bit-for-bit, and its per-cell
    /// write counts are exactly `lanes ×` the (input-independent)
    /// scalar per-run counts.
    #[test]
    fn wide_run_equals_independent_scalar_runs(
        mig in mig_strategy(),
        options in any_options(),
        lanes in 1usize..65,
        seed in any::<u64>(),
    ) {
        let result = compile(&mig, &options);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input_sets: Vec<Vec<bool>> = (0..lanes)
            .map(|_| (0..mig.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let lane_inputs: Vec<&[bool]> = input_sets.iter().map(Vec::as_slice).collect();
        let (wide_outputs, wide_counts) = run_once_wide(&result.program, &lane_inputs);

        prop_assert_eq!(wide_outputs.len(), lanes);
        let mut scalar_counts = None;
        for (k, inputs) in input_sets.iter().enumerate() {
            let (outputs, counts) = run_once(&result.program, inputs);
            prop_assert_eq!(&wide_outputs[k], &outputs, "lane {} diverges", k);
            prop_assert_eq!(&outputs, &mig.evaluate(inputs), "lane {} vs MIG", k);
            // Scalar per-run write counts are input-independent — every
            // instruction writes its destination exactly once.
            if let Some(first) = &scalar_counts {
                prop_assert_eq!(first, &counts, "scalar counts vary with inputs");
            } else {
                scalar_counts = Some(counts);
            }
        }
        let scalar_counts = scalar_counts.expect("lanes >= 1");
        let expected: Vec<u64> = scalar_counts.iter().map(|&c| lanes as u64 * c).collect();
        prop_assert_eq!(wide_counts, expected, "wear must scale by lane count");
    }

    /// (b) The `WideRm3Backend` batch API chunks arbitrary pattern
    /// counts (including > 64, forcing multiple word passes) and agrees
    /// with the scalar backend pattern-by-pattern.
    #[test]
    fn wide_backend_execute_many_chunks_correctly(
        mig in mig_strategy(),
        patterns in 1usize..150,
        seed in any::<u64>(),
    ) {
        let options = CompileOptions::endurance_aware().with_effort(1);
        let program = WideRm3Backend.compile(&mig, &options);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input_sets: Vec<Vec<bool>> = (0..patterns)
            .map(|_| (0..mig.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let refs: Vec<&[bool]> = input_sets.iter().map(Vec::as_slice).collect();
        let wide = WideRm3Backend.execute_many(&program, &refs);
        prop_assert_eq!(wide.len(), patterns);
        for (k, inputs) in input_sets.iter().enumerate() {
            let scalar = Rm3Backend.execute(&program, inputs).expect("no endurance limit");
            prop_assert_eq!(&wide[k], &scalar, "pattern {}", k);
        }
    }

    /// (d) Satellite: the wide path under an endurance limit `E = 64·t`.
    /// `WideCrossbar`'s conservative pre-check is exactly as permissive
    /// as the accumulated wear of 64 scalar runs: both paths fail iff
    /// some cell's per-run write count exceeds `t`, and every failing
    /// cell stalls having absorbed exactly `E` logical writes. The wide
    /// failure additionally lands on the same cell, at 64× the write
    /// count, as a single scalar run against the per-run budget `t` —
    /// the interleaving-free restatement of "64 runs at once" (the
    /// accumulated-serial path may fail on a different cell first, since
    /// it interleaves at run granularity instead of instruction
    /// granularity, but never at a different logical write count).
    #[test]
    fn wide_endurance_precheck_matches_scalar_runs(
        mig in mig_strategy(),
        options in any_options(),
        seed in any::<u64>(),
        threshold_pick in any::<u64>(),
    ) {
        let result = compile(&mig, &options);
        let program = &result.program;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input_sets: Vec<Vec<bool>> = (0..64)
            .map(|_| (0..mig.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let lane_inputs: Vec<&[bool]> = input_sets.iter().map(Vec::as_slice).collect();

        // Per-run per-cell write counts are input-independent.
        let (_, per_run) = run_once(program, &input_sets[0]);
        let max_per_run = per_run.iter().copied().max().unwrap_or(0);
        if max_per_run == 0 {
            // Trivial program (no instructions): nothing to wear out.
            return Ok(());
        }
        // A per-run budget around the peak, so both outcomes are hit.
        let t = 1 + threshold_pick % (max_per_run + 1);
        let limit = 64 * t;
        let should_fail = max_per_run > t;

        // The 64-lane word pass against E.
        let mut wide = WideMachine::with_array(WideCrossbar::with_endurance(limit), 64);
        wide.ensure_cells(program.num_cells);
        let wide_result = wide.run(program, &lane_inputs);

        // 64 scalar runs accumulating wear on one crossbar against E.
        let mut scalar = Machine::with_endurance(program, limit);
        let mut scalar_fault = None;
        for inputs in &input_sets {
            if let Err(fault) = scalar.run(program, inputs) {
                scalar_fault = Some(fault);
                break;
            }
        }

        // One scalar run against the per-run budget t.
        let mut single = Machine::with_endurance(program, t);
        let single_result = single.run(program, &input_sets[0]);

        prop_assert_eq!(wide_result.is_err(), should_fail, "wide vs prediction");
        prop_assert_eq!(scalar_fault.is_some(), should_fail, "scalar vs prediction");
        prop_assert_eq!(single_result.is_err(), should_fail, "single vs prediction");
        match (wide_result, single_result) {
            (Ok(_), Ok(_)) => {
                // All paths complete with identical final wear: 64× the
                // per-run counts.
                let expected: Vec<u64> = per_run.iter().map(|&c| 64 * c).collect();
                prop_assert_eq!(wide.array().write_counts(), expected.clone());
                prop_assert_eq!(scalar.array().write_counts(), expected);
            }
            (Err(wide_err), Err(single_err)) => {
                // Same cell as the single budget-t run, at 64× the
                // logical write count.
                prop_assert_eq!(wide_err.cell, single_err.cell());
                prop_assert_eq!(wide_err.limit, limit);
                prop_assert_eq!(
                    wide.array().writes(wide_err.cell),
                    64 * single.array().writes(single_err.cell())
                );
                // Every failing path stalls its cell at exactly E logical
                // writes — the "same logical write count" guarantee.
                prop_assert_eq!(wide.array().writes(wide_err.cell), limit);
                let fault = scalar_fault.expect("accumulated runs fail too");
                prop_assert_eq!(scalar.array().writes(fault.cell()), limit);
            }
            (wide, single) => prop_assert!(
                false,
                "paths disagree: wide ok={} single ok={}",
                wide.is_ok(),
                single.is_ok()
            ),
        }
    }

    /// (c) Fleet lanes on random graphs and workloads: outputs, per-cell
    /// wear and final cell values match a one-job-at-a-time replay on
    /// bare machines in dispatch order, for every policy, serial and
    /// parallel.
    #[test]
    fn simd_fleet_matches_unbatched_on_random_workloads(
        mig in mig_strategy(),
        arrays in 1usize..5,
        jobs in 1usize..12,
        policy_lw in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let heavy = compile(&mig, &CompileOptions::naive());
        let light = compile(&mig, &CompileOptions::endurance_aware().with_effort(1));
        let policy = if policy_lw { DispatchPolicy::LeastWorn } else { DispatchPolicy::RoundRobin };

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input_sets: Vec<Vec<bool>> = (0..jobs)
            .map(|_| (0..mig.num_inputs()).map(|_| rng.gen()).collect())
            .collect();
        let picks: Vec<bool> = (0..jobs).map(|_| rng.gen()).collect();
        let job_list: Vec<Job<'_>> = picks
            .iter()
            .zip(&input_sets)
            .map(|(&h, inputs)| Job::new(if h { &heavy.program } else { &light.program }, inputs))
            .collect();

        let (out_replay, machines) = replay_fleet(arrays, policy, &job_list);
        for (out, inputs) in out_replay.iter().zip(&input_sets) {
            prop_assert_eq!(out, &mig.evaluate(inputs));
        }
        for threads in [1, 0] {
            let mut fleet = Fleet::new(FleetConfig::new(arrays).with_policy(policy));
            let out = fleet.run_batch(&job_list, threads).expect("no limits configured");
            prop_assert_eq!(&out, &out_replay, "threads={}", threads);
            for (i, machine) in machines.iter().enumerate() {
                prop_assert_eq!(
                    fleet.array(i).write_counts(),
                    machine.array().write_counts(),
                    "array {} wear, threads={}", i, threads
                );
                prop_assert_eq!(
                    fleet.array(i).values(),
                    machine.array().values(),
                    "array {} values, threads={}", i, threads
                );
            }
        }
    }
}
