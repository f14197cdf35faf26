//! Prints the size profile of every benchmark — gates, naive-compiled
//! instruction/cell counts — next to the paper's Table II reference values,
//! for calibrating the synthetic profiles (see `rlim_benchmarks::synthetic`).
//! The table carries no timings, so it is pinned; each compile's wall-clock
//! time goes to stderr.

use rlim_benchmarks::Benchmark;
use rlim_eval::{Column, RunPlan, TextTable};
use rlim_service::{JobSpec, Service};

/// Paper Table II "naive" reference values (#I, #R).
fn paper_naive(b: Benchmark) -> (usize, usize) {
    match b {
        Benchmark::Adder => (2844, 512),
        Benchmark::Bar => (8136, 523),
        Benchmark::Div => (146_617, 687),
        Benchmark::Log2 => (78_885, 1597),
        Benchmark::Max => (6731, 1021),
        Benchmark::Multiplier => (76_156, 2798),
        Benchmark::Sin => (12_479, 438),
        Benchmark::Sqrt => (60_691, 375),
        Benchmark::Square => (54_704, 3272),
        Benchmark::Cavlc => (1919, 262),
        Benchmark::Ctrl => (499, 66),
        Benchmark::Dec => (822, 257),
        Benchmark::I2c => (3314, 545),
        Benchmark::Int2float => (648, 99),
        Benchmark::MemCtrl => (113_244, 8127),
        Benchmark::Priority => (2461, 315),
        Benchmark::Router => (503, 117),
        Benchmark::Voter => (38_002, 1749),
    }
}

fn main() {
    let plan = RunPlan::from_env();
    let mut table = TextTable::new([
        "benchmark",
        "PI/PO",
        "gates",
        "#I naive",
        "#I paper",
        "ratio",
        "#R naive",
        "#R paper",
    ]);
    let specs: Vec<JobSpec> = plan
        .benchmarks
        .iter()
        .map(|&b| JobSpec::benchmark(b).with_options(Column::Naive.options(0)))
        .collect();
    let reports = Service::new()
        .with_threads(plan.threads)
        .run_batch(&specs)
        .expect("benchmark compilations cannot fail");
    for (&b, report) in plan.benchmarks.iter().zip(&reports) {
        let (pi, po) = b.interface();
        let (paper_i, paper_r) = paper_naive(b);
        table.row([
            b.name().to_string(),
            format!("{pi}/{po}"),
            report.circuit.gates.to_string(),
            report.instructions.to_string(),
            paper_i.to_string(),
            format!("{:.2}", report.instructions as f64 / paper_i as f64),
            report.rrams.to_string(),
            paper_r.to_string(),
        ]);
        eprintln!("[{}] {:.2} s", b.name(), report.seconds);
    }
    println!("{}", table.render());
}
