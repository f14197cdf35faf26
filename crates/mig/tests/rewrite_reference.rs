//! `rewrite` against a reference that runs every pass of every cycle
//! into fresh buffers: the double-buffered engine, which skips passes
//! already seen to leave the graph unchanged, must build exactly the
//! same graph.

use rlim_benchmarks::Benchmark;
use rlim_mig::random::{generate, RandomMigConfig};
use rlim_mig::rewrite::{rewrite, Algorithm, Pass};
use rlim_mig::{equiv_random, Mig};

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::PlimCompiler,
    Algorithm::EnduranceAware,
    Algorithm::LevelAware,
];

/// The graph `rewrite` must return at each effort `1..=max_effort`
/// (element `e - 1` for effort `e`), computed with no pass skipped.
fn every_pass_reference(mig: &Mig, algorithm: Algorithm, max_effort: usize) -> Vec<Mig> {
    let mut current = Pass::Majority.run(mig);
    let mut converged = false;
    (0..max_effort)
        .map(|_| {
            if !converged {
                let before = current.fingerprint();
                for pass in algorithm.cycle() {
                    current = pass.run(&current);
                }
                converged = current.fingerprint() == before;
            }
            current.clone()
        })
        .collect()
}

fn assert_matches_reference(name: &str, mig: &Mig) {
    for algorithm in ALGORITHMS {
        let reference = every_pass_reference(mig, algorithm, 5);
        for (effort, expected) in (1..=5).zip(&reference) {
            let out = rewrite(mig, algorithm, effort);
            assert!(
                out == *expected,
                "{name}: {algorithm:?} at effort {effort} diverged from the every-pass reference"
            );
        }
    }
}

#[test]
fn repeated_rewrites_share_buffers_and_stay_equivalent() {
    for seed in [23, 41, 77] {
        let config = RandomMigConfig {
            inputs: 10,
            outputs: 8,
            gates: 300,
            ..RandomMigConfig::default()
        };
        let mig = generate(&config, seed);
        assert_matches_reference(&format!("random seed {seed}"), &mig);
        let out = rewrite(&mig, Algorithm::EnduranceAware, 5);
        assert!(equiv_random(&mig, &out, 16, 99).is_equal());
    }
    for benchmark in [
        Benchmark::Ctrl,
        Benchmark::Sin,
        Benchmark::Log2,
        Benchmark::Adder,
        Benchmark::Voter,
    ] {
        assert_matches_reference(benchmark.name(), &benchmark.build());
    }
}
