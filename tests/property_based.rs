//! Property-based tests (proptest) over randomly generated MIGs: the
//! compiler, rewriting passes, and policies must uphold their invariants on
//! arbitrary graph shapes, not just the curated benchmarks.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlim::compiler::{compile, elide_dead_writes, CompileOptions};
use rlim::imp::{synthesize, ImpSynthOptions};
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::mig::rewrite::{rewrite, Algorithm};
use rlim::mig::{equiv_random, Mig};
use rlim::plim::{DispatchPolicy, Fleet, FleetConfig, Job, Machine};

/// Strategy: a seeded random MIG configuration small enough for debug-mode
/// compile+execute rounds.
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
        (3u64..40).prop_map(|w| CompileOptions::endurance_aware().with_max_writes(w)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Every rewriting algorithm preserves the Boolean function.
    #[test]
    fn rewriting_preserves_function(mig in mig_strategy(), effort in 0usize..4) {
        for alg in [Algorithm::PlimCompiler, Algorithm::EnduranceAware] {
            let rewritten = rewrite(&mig, alg, effort);
            let check = equiv_random(&mig, &rewritten, 4, 99);
            prop_assert!(check.is_equal(), "{alg:?} changed the function: {check:?}");
        }
    }

    /// (b) compile → execute equals direct evaluation for every policy.
    #[test]
    fn compile_execute_matches_simulation(mig in mig_strategy(), options in any_options(), seed in any::<u64>()) {
        let result = compile(&mig, &options);
        prop_assert_eq!(result.program.validate(), Ok(()));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..3 {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
            let mut machine = Machine::for_program(&result.program);
            let got = machine.run(&result.program, &inputs).expect("no endurance limit");
            prop_assert_eq!(got, mig.evaluate(&inputs));
        }
    }

    /// (c) The maximum write strategy is a hard per-cell bound.
    #[test]
    fn max_write_bound_holds(mig in mig_strategy(), budget in 3u64..30) {
        let result = compile(&mig, &CompileOptions::endurance_aware().with_max_writes(budget));
        let counts = result.program.write_counts();
        let max = counts.iter().max().copied().unwrap_or(0);
        prop_assert!(max <= budget, "W={budget} but max={max}");
    }

    /// (d) Write statistics invariants.
    #[test]
    fn write_stats_invariants(mig in mig_strategy(), options in any_options()) {
        let result = compile(&mig, &options);
        let stats = result.write_stats();
        let counts = result.program.write_counts();
        prop_assert_eq!(stats.cells, counts.len());
        prop_assert_eq!(stats.total, counts.iter().sum::<u64>());
        prop_assert_eq!(stats.min, counts.iter().min().copied().unwrap_or(0));
        prop_assert_eq!(stats.max, counts.iter().max().copied().unwrap_or(0));
        let mean = stats.total as f64 / stats.cells.max(1) as f64;
        prop_assert!(stats.min as f64 <= mean + 1e-9);
        prop_assert!(mean <= stats.max as f64 + 1e-9);
        prop_assert!(stats.stdev >= 0.0);
        if stats.min == stats.max {
            prop_assert!(stats.stdev.abs() < 1e-9, "all-equal counts must have stdev 0");
        }
    }

    /// (e) min-write allocation changes only the *distribution*, never the
    /// instruction or cell count (paper §IV).
    #[test]
    fn min_write_is_cost_neutral(mig in mig_strategy()) {
        let lifo = compile(&mig, &CompileOptions::plim_compiler());
        let minw = compile(&mig, &CompileOptions::min_write());
        prop_assert_eq!(lifo.num_instructions(), minw.num_instructions());
        prop_assert_eq!(lifo.num_rrams(), minw.num_rrams());
    }

    /// (f) Compilation is deterministic.
    #[test]
    fn compile_is_deterministic(mig in mig_strategy(), options in any_options()) {
        let a = compile(&mig, &options);
        let b = compile(&mig, &options);
        prop_assert_eq!(a.num_rrams(), b.num_rrams());
        prop_assert_eq!(a.program.instructions, b.program.instructions);
    }

    /// (g) Input cells are never written by the program (they are
    /// preloaded), so the total write count equals the instruction count.
    #[test]
    fn every_instruction_is_one_write(mig in mig_strategy(), options in any_options()) {
        let result = compile(&mig, &options);
        let counts = result.program.write_counts();
        prop_assert_eq!(counts.iter().sum::<u64>() as usize, result.num_instructions());
    }

    /// (g2) IMPLY synthesis emits no dead write under either allocation
    /// policy, so dead-write elision leaves its programs unchanged: the
    /// reason the IMPLY backend ignores `peephole`.
    #[test]
    fn imp_synthesis_emits_no_dead_write(mig in mig_strategy(), min_write in any::<bool>()) {
        let options = if min_write {
            ImpSynthOptions::min_write()
        } else {
            ImpSynthOptions::lifo()
        };
        let program = synthesize(&mig, &options);
        let mut elided = program.clone();
        prop_assert_eq!(elide_dead_writes(&mut elided), 0);
        prop_assert_eq!(elided, program);
    }

    /// (h) Fleet dispatch invariants on arbitrary graphs and workloads:
    /// outputs equal direct MIG evaluation in job order for every policy
    /// and thread count, serial == parallel (outputs and per-array wear),
    /// and per-array totals match the dispatched programs' static costs.
    #[test]
    fn fleet_dispatch_is_correct_and_deterministic(
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

        let mut serial = Fleet::new(FleetConfig::new(arrays).with_policy(policy));
        let out_serial = serial.run_batch(&job_list, 1).expect("no limits configured");
        let mut parallel = Fleet::new(FleetConfig::new(arrays).with_policy(policy));
        let out_parallel = parallel.run_batch(&job_list, 0).expect("no limits configured");

        prop_assert_eq!(&out_serial, &out_parallel);
        for (out, inputs) in out_serial.iter().zip(&input_sets) {
            prop_assert_eq!(out, &mig.evaluate(inputs));
        }
        let mut planned_total = 0u64;
        for job in &job_list {
            planned_total += job.cost();
        }
        let mut executed_total = 0u64;
        for i in 0..arrays {
            prop_assert_eq!(
                serial.array(i).write_counts(),
                parallel.array(i).write_counts()
            );
            let executed: u64 = serial.array(i).write_counts().iter().sum();
            prop_assert_eq!(serial.total_writes(i), executed);
            executed_total += executed;
        }
        prop_assert_eq!(executed_total, planned_total);
    }

    /// (i) The fleet write budget is a hard per-array bound, and retired
    /// arrays stay frozen.
    #[test]
    fn fleet_budget_is_a_hard_bound(
        mig in mig_strategy(),
        arrays in 1usize..4,
        capacity in 1u64..6,
        policy_lw in any::<bool>(),
    ) {
        let result = compile(&mig, &CompileOptions::endurance_aware().with_effort(1));
        if result.num_instructions() == 0 {
            // A write-free program never exhausts any budget.
            return Ok(());
        }
        let cost = result.total_writes();
        let budget = capacity * cost;
        let policy = if policy_lw { DispatchPolicy::LeastWorn } else { DispatchPolicy::RoundRobin };
        let mut fleet = Fleet::new(
            FleetConfig::new(arrays)
                .with_policy(policy)
                .with_write_budget(budget),
        );
        let inputs = vec![false; mig.num_inputs()];
        let job = Job::new(&result.program, &inputs);

        // Run to exhaustion, one job at a time.
        let mut served = 0u64;
        while fleet.run_batch(&[job], 1).is_ok() {
            served += 1;
            prop_assert!(served <= arrays as u64 * capacity, "served past fleet capacity");
        }
        prop_assert_eq!(served, arrays as u64 * capacity);
        prop_assert_eq!(fleet.remaining_jobs(cost), Some(0));
        for i in 0..arrays {
            prop_assert!(fleet.total_writes(i) <= budget, "array {} over budget", i);
            prop_assert!(fleet.is_retired(i));
        }
    }
}
