//! Generates **ESAT table**: equality saturation over the Ω rules with
//! endurance-cost extraction (`CompileOptions::with_esat`) against the
//! paper's full endurance-aware compilation, on the paper's per-cell
//! metrics — `#I`, maximum per-cell writes and the write-count standard
//! deviation (the endurance-aware reference column of TABLE2/TABLE3).
//!
//! The compiler's best-of guard makes every row pointwise no worse than
//! the reference: the saturated realization is kept only when it beats
//! (or ties) the greedy fixed point on all three metrics.
//!
//! ```text
//! cargo run -p rlim-eval --release --bin esat_table
//! ```

use rlim_eval::{Column, RunPlan, Versus};

fn main() {
    rlim_eval::print_versus_table(
        &RunPlan::from_env(),
        &Versus {
            candidate: Column::Esat,
            label: "+esat",
            title: "ESAT table — equality saturation + endurance-cost extraction vs \
                    endurance-aware compilation",
            improved_label: "#I or max per-cell writes strictly improved",
            improved: |esat, ea| {
                esat.instructions < ea.instructions || esat.stats.max < ea.stats.max
            },
        },
    );
}
