//! Extension experiment (E8): quantifies the paper's §II survey claims by
//! compiling every benchmark with both in-memory computing styles —
//! material-implication NAND synthesis (the IMP baseline) and the RM3/PLiM
//! flow — and comparing operation counts, cell counts and write balance.
//!
//! Expected shape (paper §II and \[19\]): RM3 needs fewer operations and
//! cells, and IMP's non-commutativity concentrates writes on work cells
//! (higher max / stdev for the same allocation policy).
//!
//! ```text
//! cargo run --release -p rlim-eval --bin imp_vs_rm3
//! ```

use rlim_compiler::{Allocation, CompileOptions};
use rlim_eval::{fmt_stdev, measure_batch, Column, RunPlan, TextTable};
use rlim_service::{BackendKind, JobSpec};

fn main() {
    let plan = RunPlan::from_env();
    let mut table = TextTable::new([
        "benchmark",
        "IMP #ops",
        "#R",
        "max",
        "STDEV",
        "RM3 #I",
        "#R",
        "max",
        "STDEV",
        "ops ratio",
    ]);

    // Like for like: both backends get minimum-write allocation through
    // the shared options space; IMP gets no rewriting (isolating the
    // computing-style difference, as in the paper's §II comparison).
    let imp_options = CompileOptions {
        allocation: Allocation::MinWrite,
        ..CompileOptions::naive()
    };

    let specs: Vec<JobSpec> = plan
        .benchmarks
        .iter()
        .flat_map(|&b| {
            [
                JobSpec::benchmark(b)
                    .with_backend(BackendKind::Imp)
                    .with_options(imp_options),
                JobSpec::benchmark(b).with_options(Column::MinWrite.options(0)),
            ]
        })
        .collect();
    let measurements = measure_batch(&plan, &specs);

    let mut sums = [0.0f64; 5];
    for (&b, pair) in plan.benchmarks.iter().zip(measurements.chunks_exact(2)) {
        let (imp, rm3) = (&pair[0], &pair[1]);

        let ratio = imp.instructions as f64 / rm3.instructions as f64;
        table.row([
            b.name().to_string(),
            imp.instructions.to_string(),
            imp.rrams.to_string(),
            imp.stats.max.to_string(),
            fmt_stdev(imp.stats.stdev),
            rm3.instructions.to_string(),
            rm3.rrams.to_string(),
            rm3.stats.max.to_string(),
            fmt_stdev(rm3.stats.stdev),
            format!("{ratio:.2}"),
        ]);
        sums[0] += imp.instructions as f64;
        sums[1] += rm3.instructions as f64;
        sums[2] += imp.rrams as f64;
        sums[3] += rm3.rrams as f64;
        sums[4] += ratio;
        eprintln!(
            "[{b}] IMP {} ops vs RM3 {} instructions",
            imp.instructions, rm3.instructions
        );
    }

    let n = plan.benchmarks.len().max(1) as f64;
    println!("IMP (NAND synthesis) vs RM3 (PLiM) — min-write allocation, no rewriting\n");
    println!("{}", table.render());
    println!(
        "average: IMP needs {:.2}x the operations of RM3 ({:.0} vs {:.0}) and {:.2}x the cells",
        sums[4] / n,
        sums[0] / n,
        sums[1] / n,
        sums[2] / sums[3].max(1.0),
    );
}
