//! The read-only idle scan that `rewrite` runs before each pass must be
//! sound: whenever it says a pass leaves a graph unchanged, running the
//! pass must return that graph exactly. The per-algorithm amount of work
//! it saves on the benchmark suite is pinned too.

use proptest::prelude::*;
use rlim_benchmarks::Benchmark;
use rlim_mig::blif::{parse_blif, write_blif};
use rlim_mig::random::{generate, RandomMigConfig};
use rlim_mig::rewrite::{rewrite, rewrite_with_stats, Algorithm, Pass, RewriteStats};
use rlim_mig::{Mig, Signal};

const PASSES: [Pass; 7] = [
    Pass::Majority,
    Pass::DistributivityRl,
    Pass::Associativity,
    Pass::ComplementaryAssociativity,
    Pass::InvertersTwoOrThree,
    Pass::InvertersThreeOnly,
    Pass::LevelBalance,
];

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::PlimCompiler,
    Algorithm::EnduranceAware,
    Algorithm::LevelAware,
];

/// Runs every pass the scan proves idle on `mig` and checks that it
/// returns `mig`. Returns how many passes the scan proved idle.
fn assert_scan_sound(name: &str, mig: &Mig) -> usize {
    let mut proved = 0;
    for pass in PASSES {
        if pass.proves_idle(mig) {
            proved += 1;
            assert!(
                pass.run(mig) == *mig,
                "{name}: {pass:?} was scanned idle but changes the graph"
            );
        }
    }
    proved
}

/// `mig`, its cleaned-up form, the graph each pass makes of that, and
/// the two paper algorithms' fixed points. Random graphs carry dead
/// gates, which no scan can prove idle; the graphs derived from them
/// have none, or only the ones a pass left behind.
fn neighbourhood(mig: &Mig) -> Vec<Mig> {
    let clean = Pass::Majority.run(mig);
    let mut graphs = vec![mig.clone()];
    graphs.extend(PASSES.iter().map(|pass| pass.run(&clean)));
    graphs.push(rewrite(mig, Algorithm::PlimCompiler, 5));
    graphs.push(rewrite(mig, Algorithm::EnduranceAware, 5));
    graphs.push(clean);
    graphs
}

fn random_config(
    inputs: usize,
    outputs: usize,
    gates: usize,
    complement_prob: f64,
) -> RandomMigConfig {
    RandomMigConfig {
        inputs,
        outputs,
        gates,
        complement_prob,
        ..RandomMigConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random MIGs and their one-pass neighbours.
    #[test]
    fn scan_is_sound_on_random_graphs(
        inputs in 2usize..10,
        outputs in 1usize..8,
        gates in 0usize..200,
        complement_prob in 0.0f64..0.7,
        seed in any::<u64>(),
    ) {
        let mig = generate(&random_config(inputs, outputs, gates, complement_prob), seed);
        for (i, graph) in neighbourhood(&mig).iter().enumerate() {
            assert_scan_sound(&format!("seed {seed}, graph {i}"), graph);
        }
    }
}

/// The scan proves something on random graphs: the proptest above
/// would pass vacuously on a scan that never says idle.
#[test]
fn scan_proves_passes_idle_on_random_fixed_points() {
    let mut proved = 0;
    for seed in 0..8 {
        let mig = generate(&random_config(8, 6, 150, 0.4), seed);
        for graph in neighbourhood(&mig) {
            proved += assert_scan_sound(&format!("seed {seed}"), &graph);
        }
    }
    assert!(proved >= 8 * 7, "only {proved} passes proved idle");
}

/// Graphs read back from BLIF: the parser builds through `add_maj` in
/// its own node order.
#[test]
fn scan_is_sound_after_a_blif_round_trip() {
    let mut sources: Vec<(String, Mig)> = (0..6)
        .map(|seed| {
            let mig = generate(&random_config(7, 5, 120, 0.35), seed);
            (format!("random seed {seed}"), mig)
        })
        .collect();
    for benchmark in [Benchmark::Ctrl, Benchmark::Dec, Benchmark::Int2float] {
        let mig = rewrite(&benchmark.build(), Algorithm::EnduranceAware, 5);
        sources.push((benchmark.name().to_string(), mig));
    }
    let mut proved = 0;
    for (name, mig) in sources {
        for graph in neighbourhood(&mig) {
            let back = parse_blif(&write_blif(&graph, "round_trip")).expect("own BLIF parses");
            proved += assert_scan_sound(&format!("{name} via BLIF"), &back);
        }
    }
    assert!(
        proved > 0,
        "the scan proved nothing after a BLIF round trip"
    );
}

/// Every graph the rewrite loop visits on the benchmark suite under all
/// three algorithms: the input, its cleanup, and each graph a pass turns
/// the current one into, up to the fixed point. The walk runs every pass
/// (no scan), so it does not rely on what it checks.
#[test]
fn scan_is_sound_on_every_graph_rewrite_visits() {
    let mut seen = std::collections::HashSet::new();
    let mut proved = 0;
    for &benchmark in Benchmark::all() {
        let mig = benchmark.build();
        for algorithm in ALGORITHMS {
            let mut check = |graph: &Mig| {
                if seen.insert(graph.fingerprint()) {
                    proved +=
                        assert_scan_sound(&format!("{} ({algorithm:?})", benchmark.name()), graph);
                }
            };
            check(&mig);
            let mut current = Pass::Majority.run(&mig);
            check(&current);
            for _ in 0..5 {
                let before = current.fingerprint();
                for pass in algorithm.cycle() {
                    let next = pass.run(&current);
                    if next != current {
                        current = next;
                        check(&current);
                    }
                }
                if current.fingerprint() == before {
                    break;
                }
            }
        }
    }
    assert!(proved > 0, "the scan proved nothing on the benchmarks");
}

/// How much each algorithm scans and rebuilds over the 18 benchmarks at
/// the paper's effort 5. Without the scan every pass rebuilt: 318
/// passes for Algorithm 2 and 314 for Algorithm 1, after a skip of the
/// passes already seen idle that itself needed a rebuild each time.
#[test]
fn scan_and_rebuild_counts_are_pinned() {
    let expected = [
        (
            Algorithm::PlimCompiler,
            RewriteStats {
                scans: 245,
                rebuilds: 61,
                unchanged: 1,
            },
        ),
        (
            Algorithm::EnduranceAware,
            RewriteStats {
                scans: 153,
                rebuilds: 32,
                unchanged: 1,
            },
        ),
        (
            Algorithm::LevelAware,
            RewriteStats {
                scans: 270,
                rebuilds: 63,
                unchanged: 0,
            },
        ),
    ];
    let graphs: Vec<Mig> = Benchmark::all().iter().map(|b| b.build()).collect();
    for (algorithm, want) in expected {
        let mut total = RewriteStats::default();
        for mig in &graphs {
            let (_, stats) = rewrite_with_stats(mig, algorithm, 5);
            total.scans += stats.scans;
            total.rebuilds += stats.rebuilds;
            total.unchanged += stats.unchanged;
        }
        assert_eq!(total, want, "{algorithm:?}");
    }
}

/// An input with no dead gates is cloned, not rebuilt; one with dead
/// gates gets its cleanup pass.
#[test]
fn input_cleanup_runs_only_for_dead_gates() {
    let live = Benchmark::Adder.build();
    assert!(Pass::Majority.proves_idle(&live));
    let (_, stats) = rewrite_with_stats(&live, Algorithm::EnduranceAware, 0);
    assert_eq!(
        stats,
        RewriteStats {
            scans: 1,
            rebuilds: 0,
            unchanged: 0
        }
    );

    let mut dead = live.clone();
    let [a, b] = [dead.input(0), dead.input(1)];
    dead.add_maj(a, !b, Signal::TRUE);
    assert_eq!(dead.num_gates(), live.num_gates() + 1);
    assert!(!Pass::Majority.proves_idle(&dead));
    let (out, stats) = rewrite_with_stats(&dead, Algorithm::EnduranceAware, 0);
    assert_eq!(stats.rebuilds, 1);
    assert!(out == live);
}
