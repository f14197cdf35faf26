//! Property-based tests of the word-level bit-parallel execution path:
//! on arbitrary random MIGs, compiler presets and lane counts, one
//! 64-lane-celled word pass must be indistinguishable from the same
//! number of independent scalar runs — output bits *and* per-cell
//! logical write counts (the wear-equivalence invariant that keeps the
//! paper's endurance numbers valid on the SIMD path).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlim::compiler::{compile, CompileOptions};
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::mig::Mig;
use rlim::plim::{run_once, run_once_wide, DispatchPolicy, Fleet, FleetConfig, Job};
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

    /// (b) Fleet lanes on random graphs and workloads: outputs, per-cell
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
