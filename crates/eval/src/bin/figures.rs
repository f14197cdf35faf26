//! Walks through the paper's two motivating examples:
//!
//! * **Fig. 1** — an MIG where the area/latency-optimal destination choice
//!   rewrites the same RRAM cell over and over (the `A → B → C` in-place
//!   chain), and how the maximum write count strategy breaks the chain.
//! * **Fig. 2** — an MIG with a *blocked RRAM*: node `A` feeds a node many
//!   levels up, so its cell is pinned while its siblings' cells are
//!   recycled; endurance-aware node selection (Algorithm 3) computes the
//!   short-lived nodes first.
//!
//! ```text
//! cargo run -p rlim-eval --bin figures
//! ```

use rlim_compiler::{compile, CompileOptions};
use rlim_mig::{Mig, Signal};
use rlim_plim::analysis::longest_same_cell_run;

/// Builds the paper's Fig. 1 example: node B's best destination is the cell
/// of its single-fanout child A (its other children are shared), and node C
/// then again picks the cell holding B — the same physical cell.
fn figure1() -> Mig {
    let mut mig = Mig::new(5);
    let x: Vec<Signal> = mig.inputs().collect();
    // Shared nodes with multiple fanouts (cannot be consumed in place).
    let s1 = mig.add_maj(x[0], x[1], x[2]);
    let s2 = mig.add_maj(x[1], x[2], x[3]);
    // A: single-fanout child of B.
    let a = mig.add_maj(x[2], x[3], !x[4]);
    // B = ⟨A, S1, S2⟩ — the compiler will overwrite A's cell.
    let b = mig.add_maj(a, s1, !s2);
    // D: complemented child of C (ideal second operand).
    let d = mig.add_maj(x[0], x[3], x[4]);
    // C = ⟨B, D̄, S1⟩ — again the only single-fanout child is B, so the
    // same cell is rewritten a third time.
    let c = mig.add_maj(b, !d, s1);
    mig.add_output(c);
    mig.add_output(s1); // keep the shared nodes alive as outputs
    mig.add_output(s2);
    mig.add_output(d);
    mig
}

/// Builds the paper's Fig. 2 example: A feeds the root G far above its own
/// level, while B and C feed only the next level (D, E, then F).
fn figure2() -> Mig {
    let mut mig = Mig::new(6);
    let x: Vec<Signal> = mig.inputs().collect();
    let a = mig.add_maj(x[0], x[1], !x[2]); // long-lived: used only by G
    let b = mig.add_maj(x[1], x[2], !x[3]);
    let c = mig.add_maj(x[2], !x[3], x[4]);
    let d = mig.add_maj(b, !x[4], x[5]);
    let e = mig.add_maj(c, !x[5], x[0]);
    let f = mig.add_maj(d, !e, x[1]);
    let g = mig.add_maj(f, !a, x[3]); // A finally consumed at the root
    mig.add_output(g);
    mig
}

fn show(label: &str, mig: &Mig, options: &CompileOptions) {
    let r = compile(mig, options);
    let stats = r.write_stats();
    let counts = r.program.write_counts();
    println!(
        "  {label:<28} #I={:<3} #R={:<3} writes/cell={counts:?}",
        r.num_instructions(),
        r.num_rrams()
    );
    println!(
        "  {:<28} min={} max={} stdev={:.2} longest-same-cell-run={}",
        "",
        stats.min,
        stats.max,
        stats.stdev,
        longest_same_cell_run(&r.program)
    );
}

fn main() {
    println!("== Fig. 1: repeated in-place destination (area/latency pressure) ==");
    let fig1 = figure1();
    println!(
        "MIG: {} gates, {} complemented edges",
        fig1.num_gates(),
        fig1.total_complemented_edges()
    );
    show(
        "PLiM compiler [21]:",
        &fig1,
        &CompileOptions::plim_compiler(),
    );
    show("+ min-write:", &fig1, &CompileOptions::min_write());
    show(
        "+ max-write W=3:",
        &fig1,
        &CompileOptions::min_write().with_max_writes(3),
    );
    println!();
    println!("The [21] column shows one hot cell absorbing the A→B→C chain;");
    println!("the W=3 budget forces fresh destinations at the cost of extra");
    println!("instructions and cells (the paper's latency/area trade-off).\n");

    println!("== Fig. 2: blocked RRAM (long storage duration) ==");
    let fig2 = figure2();
    println!("MIG: {} gates, depth {}", fig2.num_gates(), fig2.depth());
    show(
        "area-aware selection [21]:",
        &fig2,
        &CompileOptions::min_write(),
    );
    show(
        "endurance-aware (Alg. 3):",
        &fig2,
        &CompileOptions::endurance_aware(),
    );
    println!();
    println!("Algorithm 3 computes the short-lived nodes (B, C) before the");
    println!("blocked node A, narrowing the gap between the most- and");
    println!("least-written cells.");
}
