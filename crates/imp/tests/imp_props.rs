//! Property-based tests for the IMPLY baseline: synthesis must preserve
//! function and uphold its write-accounting invariants on arbitrary MIGs.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlim_imp::{synthesize, ImpMachine, ImpSynthOptions};
use rlim_mig::random::{generate, RandomMigConfig};
use rlim_mig::Mig;
use rlim_rram::Allocation;

fn mig_strategy() -> impl Strategy<Value = Mig> {
    (2usize..8, 1usize..6, 0usize..120, 0.0f64..0.6, any::<u64>()).prop_map(
        |(inputs, outputs, gates, complement_prob, seed)| {
            let cfg = RandomMigConfig {
                inputs,
                outputs,
                gates,
                complement_prob,
                ..Default::default()
            };
            generate(&cfg, seed)
        },
    )
}

fn options_strategy() -> impl Strategy<Value = ImpSynthOptions> {
    prop_oneof![
        Just(ImpSynthOptions::lifo()),
        Just(ImpSynthOptions::min_write()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Synthesised IMP programs compute the MIG's function.
    #[test]
    fn synthesis_preserves_function(mig in mig_strategy(), options in options_strategy(), seed: u64) {
        let program = synthesize(&mig, &options);
        prop_assert_eq!(program.validate(), Ok(()));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..3 {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
            let mut machine = ImpMachine::for_program(&program);
            let got = machine.run(&program, &inputs).expect("no endurance limit");
            prop_assert_eq!(got, mig.evaluate(&inputs));
        }
    }

    /// One write per op; total writes equal the op count.
    #[test]
    fn write_accounting(mig in mig_strategy(), options in options_strategy()) {
        let program = synthesize(&mig, &options);
        let counts = program.write_counts();
        prop_assert_eq!(counts.len(), program.num_rrams());
        prop_assert_eq!(counts.iter().sum::<u64>() as usize, program.num_instructions());
    }

    /// Allocation policy never changes op or cell *counts*, only which
    /// cells carry the writes (the IMP analogue of the paper's min-write
    /// cost-neutrality).
    #[test]
    fn allocation_is_cost_neutral(mig in mig_strategy()) {
        let lifo = synthesize(&mig, &ImpSynthOptions { allocation: Allocation::Lifo });
        let minw = synthesize(&mig, &ImpSynthOptions { allocation: Allocation::MinWrite });
        prop_assert_eq!(lifo.num_instructions(), minw.num_instructions());
        prop_assert_eq!(lifo.num_rrams(), minw.num_rrams());
    }

    /// The machine's crossbar wear agrees with the program's static
    /// write-count accounting.
    #[test]
    fn machine_wear_matches_static_counts(mig in mig_strategy(), seed: u64) {
        let program = synthesize(&mig, &ImpSynthOptions::lifo());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
        let mut machine = ImpMachine::for_program(&program);
        machine.run(&program, &inputs).expect("no endurance limit");
        prop_assert_eq!(machine.array().write_counts(), program.write_counts());
    }

    /// Synthesis is deterministic.
    #[test]
    fn synthesis_is_deterministic(mig in mig_strategy(), options in options_strategy()) {
        let a = synthesize(&mig, &options);
        let b = synthesize(&mig, &options);
        prop_assert_eq!(a, b);
    }
}
