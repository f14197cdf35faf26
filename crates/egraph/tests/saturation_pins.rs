//! Pinned saturation results on benchmarks whose node budget trips in
//! the middle of a round, so the order in which matches are found and
//! applied, and where application stops, decide the e-graph.

use rlim_benchmarks::Benchmark;
use rlim_egraph::{extract_around, saturate, Budget, CostWeights, EGraph, SaturationReport};
use rlim_mig::rewrite::{rewrite, rules::omega_rules, Algorithm};

/// The esat search's first round on `benchmark`: saturate the
/// endurance-aware fixed point under a 5000-node budget, then extract
/// around it with the endurance weights.
fn first_round(benchmark: Benchmark) -> (SaturationReport, u128) {
    let start = rewrite(&benchmark.build(), Algorithm::EnduranceAware, 5);
    let (mut eg, outputs, classes) = EGraph::from_mig_with_classes(&start);
    let budget = Budget {
        max_nodes: 5000,
        max_iters: 4,
    };
    let report = saturate(&mut eg, &omega_rules(), &budget);
    let extracted = extract_around(&eg, &outputs, &CostWeights::endurance(), &start, &classes);
    (report, extracted.fingerprint())
}

#[test]
fn budget_tripped_rounds_are_pinned() {
    let pins = [
        (
            Benchmark::Ctrl,
            3,
            2708,
            5000,
            0x43ca958b2ee1bf0bfbba941813fd771e,
        ),
        (
            Benchmark::Router,
            3,
            2756,
            5000,
            0x365fff45bd5d63ba9c5d9377b857fa1b,
        ),
        (
            Benchmark::Adder,
            1,
            2216,
            5001,
            0x220ee17b954539731ebf51d3dc60083b,
        ),
    ];
    for (benchmark, iterations, unions, enodes, fingerprint) in pins {
        let (report, extracted) = first_round(benchmark);
        let expected = SaturationReport {
            iterations,
            unions,
            enodes,
            saturated: false,
        };
        assert_eq!(report, expected, "{}", benchmark.name());
        assert_eq!(
            extracted,
            fingerprint,
            "{}: extracted graph {extracted:#034x}",
            benchmark.name()
        );
    }
}
