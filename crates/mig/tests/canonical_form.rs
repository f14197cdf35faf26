//! Every `Mig` is canonical by construction: `add_maj` is the only code
//! that adds a node, so each gate's child triple is sorted, not
//! Ω.M-simplifiable and unique in the graph. The idle scan in `rewrite`
//! rests on this, so it is checked on every way a graph comes to be:
//! random generation, BLIF parsing, esat extraction and every pass.

use std::collections::HashMap;

use rlim_benchmarks::Benchmark;
use rlim_egraph::{extract_around, saturate, Budget, CostWeights, EGraph};
use rlim_mig::blif::{parse_blif, write_blif};
use rlim_mig::random::{generate, RandomMigConfig};
use rlim_mig::rewrite::{rewrite, rules::omega_rules, Algorithm, Pass};
use rlim_mig::Mig;

const PASSES: [Pass; 7] = [
    Pass::Majority,
    Pass::DistributivityRl,
    Pass::Associativity,
    Pass::ComplementaryAssociativity,
    Pass::InvertersTwoOrThree,
    Pass::InvertersThreeOnly,
    Pass::LevelBalance,
];

fn assert_canonical(name: &str, mig: &Mig) {
    let mut owner = HashMap::new();
    for g in mig.gates() {
        let ch = mig.children(g);
        assert!(
            ch.iter().all(|s| s.node() < g),
            "{name}: gate {g} has a child at or above it"
        );
        // `simplify_maj` sorts what it cannot simplify, so a canonical
        // triple is its own result.
        assert_eq!(
            Mig::simplify_maj(ch[0], ch[1], ch[2]),
            Err(ch),
            "{name}: gate {g} is unsorted or Ω.M-simplifiable"
        );
        if let Some(first) = owner.insert(ch, g) {
            panic!("{name}: gates {first} and {g} share the triple {ch:?}");
        }
    }
}

/// `mig` and the output of every pass on it.
fn assert_canonical_with_passes(name: &str, mig: &Mig) {
    assert_canonical(name, mig);
    for pass in PASSES {
        assert_canonical(&format!("{name} after {pass:?}"), &pass.run(mig));
    }
}

fn random_graphs() -> Vec<(String, Mig)> {
    let mut graphs = Vec::new();
    for seed in 0..12u64 {
        let config = RandomMigConfig {
            inputs: 3 + seed as usize % 6,
            outputs: 1 + seed as usize % 5,
            gates: 40 + 30 * seed as usize,
            complement_prob: 0.1 + 0.05 * seed as f64,
            ..RandomMigConfig::default()
        };
        graphs.push((format!("random seed {seed}"), generate(&config, seed)));
    }
    graphs
}

#[test]
fn random_graphs_are_canonical() {
    for (name, mig) in random_graphs() {
        assert_canonical_with_passes(&name, &mig);
        for algorithm in [Algorithm::PlimCompiler, Algorithm::EnduranceAware] {
            assert_canonical_with_passes(
                &format!("{name} {algorithm:?}"),
                &rewrite(&mig, algorithm, 5),
            );
        }
    }
}

#[test]
fn benchmark_graphs_are_canonical() {
    for &benchmark in Benchmark::all() {
        let mig = benchmark.build();
        assert_canonical_with_passes(benchmark.name(), &mig);
        let rewritten = rewrite(&mig, Algorithm::EnduranceAware, 5);
        assert_canonical(&format!("{} rewritten", benchmark.name()), &rewritten);
    }
}

#[test]
fn parsed_blif_is_canonical() {
    let mut sources = random_graphs();
    for benchmark in [Benchmark::Ctrl, Benchmark::Router, Benchmark::Int2float] {
        sources.push((benchmark.name().to_string(), benchmark.build()));
    }
    for (name, mig) in sources {
        let back = parse_blif(&write_blif(&mig, "canonical")).expect("own BLIF parses");
        assert_canonical_with_passes(&format!("{name} via BLIF"), &back);
    }
    // Hand-written covers the parser must fold into existing nodes: a
    // duplicated AND, an AND of a signal with itself, and a majority
    // with a complementary pair.
    let text = "\
.model redundant
.inputs a b c
.outputs f g h k
.names a b t1
11 1
.names b a t2
11 1
.names t1 t2 f
11 1
.names c c g
11 1
.names a b c h
11- 1
1-1 1
-11 1
.names t1 c k
01 1
10 1
.end
";
    let mig = parse_blif(text).expect("valid BLIF");
    assert_canonical_with_passes("hand-written BLIF", &mig);
}

#[test]
fn esat_extractions_are_canonical() {
    let mut sources = random_graphs();
    sources.truncate(6);
    for benchmark in [Benchmark::Ctrl, Benchmark::Router, Benchmark::Dec] {
        let start = rewrite(&benchmark.build(), Algorithm::EnduranceAware, 5);
        sources.push((benchmark.name().to_string(), start));
    }
    let budget = Budget {
        max_nodes: 3000,
        max_iters: 3,
    };
    for (name, start) in sources {
        let (mut eg, outputs, classes) = EGraph::from_mig_with_classes(&start);
        saturate(&mut eg, &omega_rules(), &budget);
        for weights in [CostWeights::endurance(), CostWeights::area()] {
            let around = extract_around(&eg, &outputs, &weights, &start, &classes);
            assert_canonical_with_passes(&format!("{name} extracted around"), &around);
        }
    }
}
