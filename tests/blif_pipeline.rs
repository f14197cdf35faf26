//! End-to-end BLIF pipeline: export a benchmark to BLIF, re-import it,
//! compile both versions, and check functional equivalence all the way to
//! the machine — the path an external user's circuit takes through the
//! toolchain.

use rlim::benchmarks::Benchmark;
use rlim::compiler::{compile, CompileOptions};
use rlim::mig::rewrite::Pass;
use rlim::mig::{blif, equiv_random};
use rlim::plim::{asm, Machine};
use rlim_testkit::{equiv_exhaustive, Oracle, DEFAULT_EXHAUSTIVE_LIMIT};

#[test]
fn blif_round_trip_preserves_benchmarks() {
    for &b in &[Benchmark::Int2float, Benchmark::Ctrl, Benchmark::Router] {
        let mig = b.build();
        let text = blif::write_blif(&mig, b.name());
        let back = blif::parse_blif(&text).unwrap_or_else(|e| panic!("{b}: {e}"));
        assert_eq!(back.num_inputs(), mig.num_inputs(), "{b}");
        assert_eq!(back.num_outputs(), mig.num_outputs(), "{b}");
        if mig.num_inputs() <= DEFAULT_EXHAUSTIVE_LIMIT {
            assert_eq!(
                equiv_exhaustive(&mig, &back),
                None,
                "{b}: BLIF round trip changed the function"
            );
        } else {
            assert!(
                equiv_random(&mig, &back, 8, b as u64).is_equal(),
                "{b}: BLIF round trip changed the function"
            );
        }
    }
}

/// `write_blif` writes each gate as a majority cover, and `parse_blif`
/// reads such a cover back as that one gate: on every benchmark the round
/// trip returns the graph node for node, less its dead gates, which is
/// the graph the rewrite's cleanup rebuild returns.
#[test]
fn blif_round_trip_is_exact_on_every_benchmark() {
    for &b in Benchmark::all() {
        let mig = b.build();
        let back = blif::parse_blif(&blif::write_blif(&mig, b.name()))
            .unwrap_or_else(|e| panic!("{b}: {e}"));
        let expected = Pass::Majority.run(&mig);
        assert_eq!(back.num_gates(), expected.num_gates(), "{b}");
        assert!(back == expected, "{b}: round trip changed the graph");
    }
}

#[test]
fn imported_circuit_compiles_and_executes() {
    let mig = Benchmark::Int2float.build();
    let text = blif::write_blif(&mig, "int2float");
    let imported = blif::parse_blif(&text).expect("parses");
    let result = compile(&imported, &CompileOptions::endurance_aware());
    // Exhaustive: the program compiled from the *imported* graph must match
    // the original MIG on all 2048 patterns.
    Oracle::new().verify_program(&mig, "int2float", "blif_import", &result.program);
}

#[test]
fn assembly_round_trip_preserves_compiled_programs() {
    for &b in &[Benchmark::Int2float, Benchmark::Dec] {
        let mig = b.build();
        for options in [CompileOptions::naive(), CompileOptions::endurance_aware()] {
            let result = compile(&mig, &options);
            let text = asm::to_text(&result.program);
            let parsed = asm::parse_text(&text).unwrap_or_else(|e| panic!("{b}: {e}"));
            assert_eq!(parsed, result.program, "{b}: asm round trip");
        }
    }
}

#[test]
fn full_text_pipeline_blif_to_plim_to_machine() {
    // circuit (BLIF text) → MIG → compile → PLiM assembly text → parse →
    // execute. Nothing but text artefacts between the stages.
    let blif_text = "\
.model vote3
.inputs a b c
.outputs maj odd
.names a b c maj
11- 1
1-1 1
-11 1
.names a b x
10 1
01 1
.names x c odd
10 1
01 1
.end
";
    let mig = blif::parse_blif(blif_text).expect("parses");
    let result = compile(&mig, &CompileOptions::endurance_aware());
    let plim_text = asm::to_text(&result.program);
    let program = asm::parse_text(&plim_text).expect("parses back");

    for bits in 0..8u32 {
        let inputs: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
        let ones = inputs.iter().filter(|&&x| x).count();
        let mut machine = Machine::for_program(&program);
        let out = machine.run(&program, &inputs).expect("no limit");
        assert_eq!(out[0], ones >= 2, "majority, bits={bits:03b}");
        assert_eq!(out[1], ones % 2 == 1, "parity, bits={bits:03b}");
    }
}
