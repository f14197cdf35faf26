//! End-to-end functional equivalence: for every benchmark × configuration,
//! the compiled PLiM program executed on the crossbar machine must compute
//! the same outputs as direct MIG evaluation — the load-bearing invariant
//! of the whole reproduction (README.md, "Verification").
//!
//! Coverage is delegated to `rlim-testkit`: circuits with few enough
//! inputs are proven over their **entire truth table** (MIG ≡ RM3 ≡ IMPLY
//! under every `CompileOptions` preset); larger ones get the deterministic
//! sampling oracle.

use rlim::benchmarks::Benchmark;
use rlim::mig::Mig;
use rlim_testkit::{Oracle, DEFAULT_EXHAUSTIVE_LIMIT};

#[test]
fn small_benchmarks_exhaustive_all_presets() {
    // cavlc (10 PI), ctrl (7 PI), dec (8 PI) and int2float (11 PI) are
    // proven over all 2^n patterns; priority (128 PI) and router (60 PI)
    // fall back to the sampling oracle.
    let oracle = Oracle::new();
    let mut exhaustive = 0;
    for &b in Benchmark::small() {
        let report = oracle.verify(&b.build(), b.name());
        assert_eq!(
            report.exhaustive,
            b.interface().0 <= DEFAULT_EXHAUSTIVE_LIMIT,
            "{b}: unexpected coverage tier"
        );
        if report.exhaustive {
            assert_eq!(report.patterns, 1 << b.interface().0, "{b}");
            exhaustive += 1;
        }
    }
    assert_eq!(
        exhaustive, 4,
        "cavlc, ctrl, dec and int2float are exhaustive"
    );
}

#[test]
fn synthetic_benchmarks_small() {
    // The smaller synthetic profiles; mem_ctrl/log2 are covered by the
    // release-mode eval binaries (too slow for debug-mode tests).
    let oracle = Oracle::new().with_sample_rounds(8);
    for &b in &[Benchmark::Sin, Benchmark::Router] {
        oracle.verify(&b.build(), b.name());
    }
}

#[test]
fn arithmetic_benchmarks_reduced_width() {
    use rlim::benchmarks::{arith, misc};
    // Same generators as the paper-size benchmarks, at widths that compile
    // in debug-mode test time. The ≤11-input ones (sqrt6, dec6) are
    // exhaustive automatically.
    let cases: Vec<(&str, Mig)> = vec![
        ("adder16", arith::adder_with_width(16)),
        ("multiplier8", arith::multiplier_with_width(8)),
        ("square8", arith::square_with_width(8)),
        ("div8", arith::div_with_width(8)),
        ("sqrt6", arith::sqrt_with_width(6)),
        ("bar16", misc::bar_with_width(16)),
        ("max8", misc::max_with_width(8)),
        ("voter31", misc::voter_with_inputs(31)),
        ("dec6", misc::dec_with_width(6)),
        ("priority32", misc::priority_with_inputs(32)),
    ];
    let oracle = Oracle::new().with_sample_rounds(6).with_seed(0xAB5E11);
    for (name, mig) in &cases {
        oracle.verify(mig, name);
    }
}

#[test]
fn full_size_adder_functional() {
    // One paper-size benchmark end-to-end (the cheapest arithmetic one).
    // IMP is deliberately skipped here: NAND-synthesising a 256-input
    // adder is release-mode territory, and no other suite covers it.
    let oracle = Oracle::new().with_sample_rounds(3).with_imp(false);
    oracle.verify(&Benchmark::Adder.build(), "adder");
}
