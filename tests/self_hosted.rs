//! Cross-crate tests of the self-hosted PLiM controller: real compiled
//! programs, hosted in the crossbar and executed by the FSM, must agree
//! with the external machine and with MIG evaluation.

use rlim::benchmarks::Benchmark;
use rlim::compiler::{compile, CompileOptions};
use rlim::plim::{Controller, Machine, State};
use rlim_testkit::Oracle;

#[test]
fn hosted_execution_matches_machine_on_benchmarks() {
    // With `hosted` enabled the oracle runs every compiled program both on
    // the external machine and self-hosted under the controller FSM, so
    // MIG ≡ RM3 ≡ hosted RM3 over the whole truth table of ctrl; cavlc and
    // int2float sample (hosting 2^10+ patterns is release-mode territory).
    let oracle = Oracle::new()
        .with_hosted(true)
        .with_imp(false)
        .with_exhaustive_limit(8)
        .with_sample_rounds(6)
        .with_seed(0x5E1F);
    for &b in &[Benchmark::Int2float, Benchmark::Ctrl, Benchmark::Cavlc] {
        oracle.verify(&b.build(), b.name());
    }
}

#[test]
fn controller_halts_cleanly() {
    let mig = Benchmark::Ctrl.build();
    let result = compile(&mig, &CompileOptions::endurance_aware());
    let mut controller = Controller::host(&result.program).expect("hosts");
    controller
        .run(&vec![false; mig.num_inputs()])
        .expect("no limit");
    assert_eq!(controller.state(), State::Halted);
}

#[test]
fn controller_cycle_model_is_six_per_instruction() {
    let mig = Benchmark::Int2float.build();
    let result = compile(&mig, &CompileOptions::naive());
    let mut controller = Controller::host(&result.program).expect("hosts");
    controller
        .run(&vec![false; mig.num_inputs()])
        .expect("no limit");
    assert_eq!(
        controller.cycles(),
        6 * result.num_instructions() as u64,
        "fetch×3 + read×2 + execute per RM3"
    );
}

#[test]
fn program_image_overhead_is_reported_in_the_array() {
    let mig = Benchmark::Ctrl.build();
    let result = compile(&mig, &CompileOptions::endurance_aware());
    let controller = Controller::host(&result.program).expect("hosts");
    let data_cells = result.num_rrams();
    assert_eq!(controller.code_base(), data_cells);
    assert!(
        controller.array().len() > data_cells,
        "instruction region allocated above the data region"
    );
    // Program-load wear: every code cell written exactly once before
    // execution starts.
    let counts = controller.array().write_counts();
    assert!(counts[data_cells..].iter().all(|&w| w == 1));
}

#[test]
fn data_region_wear_identical_to_external_machine() {
    let mig = Benchmark::Int2float.build();
    let result = compile(&mig, &CompileOptions::min_write());
    let inputs = vec![true; mig.num_inputs()];

    let mut machine = Machine::for_program(&result.program);
    machine.run(&result.program, &inputs).expect("no limit");
    let external = machine.array().write_counts();

    let mut controller = Controller::host(&result.program).expect("hosts");
    controller.run(&inputs).expect("no limit");
    let hosted = controller.array().write_counts();

    assert_eq!(&hosted[..result.num_rrams()], &external[..]);
}

#[test]
fn hosted_runs_baseline_pipeline_output() {
    // A 2-bit adder compiled naive (no rewriting, topological selection,
    // LIFO allocation), hosted and checked exhaustively.
    use rlim::mig::Mig;

    let mut mig = Mig::new(4);
    let (a0, b0) = (mig.input(0), mig.input(1));
    let (a1, b1) = (mig.input(2), mig.input(3));
    let (s0, c0) = mig.half_adder(a0, b0);
    let (s1, c1) = mig.full_adder(a1, b1, c0);
    mig.add_output(s0);
    mig.add_output(s1);
    mig.add_output(c1);

    let result = compile(&mig, &CompileOptions::naive());
    for bits in 0..16u32 {
        let inputs: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
        let mut controller = Controller::host(&result.program).expect("hosts");
        let got = controller.run(&inputs).expect("no limit");
        assert_eq!(got, mig.evaluate(&inputs), "bits {bits:04b}");
    }
}
