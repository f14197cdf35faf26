//! Generates **COPY table**: the copy-discovery + spilling-aware
//! allocator (`CompileOptions::with_copy_reuse`) against the paper's full
//! endurance-aware compilation, on the paper's per-cell metrics — `#I`,
//! maximum per-cell writes and the write-count standard deviation (the
//! endurance-aware reference column of TABLE2/TABLE3).
//!
//! ```text
//! cargo run -p rlim-eval --release --bin copy_table
//! ```

use rlim_eval::{Column, RunPlan, Versus};

fn main() {
    rlim_eval::print_versus_table(
        &RunPlan::from_env(),
        &Versus {
            candidate: Column::CopyReuse,
            label: "+copy",
            title: "COPY table — copy discovery + spilling vs endurance-aware compilation",
            improved_label: "max per-cell writes reduced",
            improved: |copy, ea| copy.stats.max < ea.stats.max,
        },
    );
}
