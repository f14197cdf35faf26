//! # rlim-testkit — cross-backend differential verification
//!
//! The load-bearing invariant of the whole reproduction is that every
//! backend computes the same Boolean function as the source
//! Majority-Inverter Graph:
//!
//! * direct MIG evaluation (the golden model),
//! * the compiled RM3 program executed on the external machine
//!   ([`Rm3Backend`]),
//! * optionally the same program self-hosted in the crossbar and driven by
//!   the controller FSM ([`HostedRm3Backend`]),
//! * the same program executed bit-parallel on the word-level machine,
//!   64 input patterns per pass, including the wear-equivalence
//!   invariant: per-cell logical write counts must equal `lanes ×` the
//!   scalar machine's per-run counts,
//! * the IMPLY baseline synthesised through
//!   [`ImpBackend`].
//!
//! This crate machine-checks that invariant with two oracles:
//!
//! * an **exhaustive truth-table oracle** for circuits with at most
//!   [`Oracle::exhaustive_limit`] primary inputs (default
//!   [`DEFAULT_EXHAUSTIVE_LIMIT`]) — every one of the `2^n` input patterns
//!   is driven through every backend;
//! * a **seeded-RNG sampling oracle** above that limit — deterministic,
//!   reproducible rounds of random patterns (always including the all-zero
//!   and all-one patterns).
//!
//! The rewritten MIG inside every [`CompileResult`] is additionally checked
//! against the source graph, exhaustively (64-way bit-parallel) when small
//! enough and by random simulation otherwise.
//!
//! ## Example
//!
//! ```
//! use rlim_benchmarks::Benchmark;
//! use rlim_testkit::Oracle;
//!
//! // `ctrl` has 7 inputs: all 128 patterns × every compiler preset ×
//! // every backend.
//! let report = Oracle::new().verify(&Benchmark::Ctrl.build(), "ctrl");
//! assert!(report.exhaustive);
//! assert_eq!(report.patterns, 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use rlim_compiler::{
    compile, Backend, CompileOptions, CompileResult, HostedRm3Backend, ImpBackend, Rm3Backend,
};
use rlim_isa::Program as IsaProgram;
use rlim_mig::{equiv_random, Mig};
use rlim_plim::parallel::parallel_map;
use rlim_plim::{run_once, run_once_wide, DispatchPolicy, Job, Machine, Program};
use rlim_rram::{Crossbar, WideCrossbar};

/// Largest input count that is verified exhaustively by default.
///
/// The issue's bar is "exhaustive for ≤ 10 inputs"; 11 keeps the historic
/// `int2float` (11 PI, 2048 patterns) exhaustive as well, at negligible
/// cost.
pub const DEFAULT_EXHAUSTIVE_LIMIT: usize = 11;

/// Default number of sampled patterns for circuits above the limit.
pub const DEFAULT_SAMPLE_ROUNDS: usize = 24;

/// The canonical compiler configurations: every `CompileOptions` preset
/// constructor (the paper's Table I columns) plus two maximum-write
/// budgets (Table III), two peephole variants and two copy-reuse
/// variants, under their conventional labels.
pub fn presets() -> Vec<(&'static str, CompileOptions)> {
    vec![
        ("naive", CompileOptions::naive()),
        ("plim_compiler", CompileOptions::plim_compiler()),
        ("min_write", CompileOptions::min_write()),
        ("endurance_rewriting", CompileOptions::endurance_rewriting()),
        ("endurance_aware", CompileOptions::endurance_aware()),
        (
            "max_write_10",
            CompileOptions::endurance_aware().with_max_writes(10),
        ),
        (
            "max_write_3",
            CompileOptions::endurance_aware().with_max_writes(3),
        ),
        (
            "naive_peephole",
            CompileOptions::naive().with_peephole(true),
        ),
        (
            "endurance_aware_peephole",
            CompileOptions::endurance_aware().with_peephole(true),
        ),
        (
            "copy_reuse",
            CompileOptions::endurance_aware().with_copy_reuse(true),
        ),
        (
            "copy_reuse_peephole",
            CompileOptions::endurance_aware()
                .with_copy_reuse(true)
                .with_peephole(true),
        ),
    ]
}

/// How a circuit's input space was covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// All `2^n` patterns were driven.
    Exhaustive {
        /// Number of patterns (`2^n`).
        patterns: usize,
    },
    /// A deterministic random sample was driven.
    Sampled {
        /// Number of sampled patterns.
        rounds: usize,
        /// Seed the sample derives from.
        seed: u64,
    },
}

/// What one oracle run proved; returned so suites can assert on scope.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Circuit label used in failure messages.
    pub name: String,
    /// Whether the truth table was covered exhaustively.
    pub exhaustive: bool,
    /// Input patterns driven through each backend.
    pub patterns: usize,
    /// Compiler presets verified.
    pub presets: usize,
    /// Individual output-vector comparisons performed.
    pub comparisons: usize,
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} over {} patterns x {} presets ({} comparisons)",
            self.name,
            if self.exhaustive {
                "exhaustive"
            } else {
                "sampled"
            },
            self.patterns,
            self.presets,
            self.comparisons
        )
    }
}

/// The differential verification oracle. Construct with [`Oracle::new`],
/// tune with the builder methods, then call [`Oracle::verify`] (panics on
/// the first divergence, like an assertion).
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Inputs at or below this count get the exhaustive oracle.
    pub exhaustive_limit: usize,
    /// Patterns per circuit for the sampling oracle.
    pub sample_rounds: usize,
    /// Base seed for the sampling oracle.
    pub seed: u64,
    /// Also execute each compiled program through the self-hosted
    /// controller backend (slower; off by default).
    pub hosted: bool,
    /// Also synthesise and check the IMPLY baseline (both allocation
    /// policies; on by default).
    pub imp: bool,
    /// Also execute each compiled RM3 program on the word-level
    /// bit-parallel machine, 64 patterns per pass, and check per-cell
    /// logical write counts against the scalar machine (on by default).
    pub wide: bool,
    /// Worker threads for the preset × backend matrix: `0` = one per
    /// available core (the default), `1` = serial.
    pub threads: usize,
}

impl Default for Oracle {
    fn default() -> Self {
        Self {
            exhaustive_limit: DEFAULT_EXHAUSTIVE_LIMIT,
            sample_rounds: DEFAULT_SAMPLE_ROUNDS,
            seed: 0x0DA7_E201_7EAD_BEEF,
            hosted: false,
            imp: true,
            wide: true,
            threads: 0,
        }
    }
}

impl Oracle {
    /// The default oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the exhaustive-coverage input limit.
    pub fn with_exhaustive_limit(mut self, limit: usize) -> Self {
        self.exhaustive_limit = limit;
        self
    }

    /// Sets the number of sampled patterns above the limit.
    pub fn with_sample_rounds(mut self, rounds: usize) -> Self {
        self.sample_rounds = rounds;
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the self-hosted controller backend.
    pub fn with_hosted(mut self, hosted: bool) -> Self {
        self.hosted = hosted;
        self
    }

    /// Enables or disables the IMPLY baseline backend.
    pub fn with_imp(mut self, imp: bool) -> Self {
        self.imp = imp;
        self
    }

    /// Enables or disables the word-level bit-parallel check.
    pub fn with_wide(mut self, wide: bool) -> Self {
        self.wide = wide;
        self
    }

    /// Sets the worker-thread count for the preset × backend matrix
    /// (`0` = one per core, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The coverage [`Oracle::verify`] will use for an `n`-input circuit.
    pub fn coverage(&self, num_inputs: usize) -> Coverage {
        if num_inputs <= self.exhaustive_limit {
            Coverage::Exhaustive {
                patterns: 1usize << num_inputs,
            }
        } else {
            Coverage::Sampled {
                rounds: self.sample_rounds,
                seed: self.seed,
            }
        }
    }

    /// Materialises the input patterns for an `n`-input circuit.
    pub fn inputs(&self, num_inputs: usize) -> Vec<Vec<bool>> {
        match self.coverage(num_inputs) {
            Coverage::Exhaustive { patterns } => (0..patterns)
                .map(|p| (0..num_inputs).map(|i| (p >> i) & 1 == 1).collect())
                .collect(),
            Coverage::Sampled { rounds, seed } => sampled_inputs(num_inputs, rounds, seed),
        }
    }

    /// Differentially verifies `mig` against every backend under every
    /// compiler preset — all through the shared [`Backend`] API —
    /// distributing the preset ×
    /// backend matrix across scoped worker threads ([`Oracle::threads`]; a
    /// divergence found on any worker propagates when the scope joins).
    /// The report is independent of the thread count: every job runs
    /// either way and the comparison count is an order-insensitive sum.
    /// Panics with a labelled message on the first divergence; returns
    /// what was covered on success.
    pub fn verify(&self, mig: &Mig, name: &str) -> VerifyReport {
        let inputs = self.inputs(mig.num_inputs());
        let reference: Vec<Vec<bool>> = inputs.iter().map(|v| mig.evaluate(v)).collect();
        let preset_list = presets();

        // The IMP baseline's two allocation policies, expressed in the
        // shared options space (no rewriting, like the paper's §II
        // comparison).
        let imp_configs: &[(&str, CompileOptions)] = &[
            ("imp_lifo", CompileOptions::naive()),
            (
                "imp_min_write",
                CompileOptions {
                    allocation: rlim_compiler::Allocation::MinWrite,
                    ..CompileOptions::naive()
                },
            ),
        ];
        let num_jobs = preset_list.len() + if self.imp { imp_configs.len() } else { 0 };
        let comparisons = parallel_sum(num_jobs, self.threads, |job| {
            if let Some((label, options)) = preset_list.get(job) {
                // The RM3 pipeline is compiled once per preset; its program
                // is shared between the external and the self-hosted
                // backend (which compile identically by construction).
                let result = compile(mig, options);
                self.check_rewrite(mig, name, label, &result);
                let mut n = self.check_backend(
                    &Rm3Backend,
                    name,
                    label,
                    &result.program,
                    &inputs,
                    &reference,
                );
                if self.hosted {
                    n += self.check_backend(
                        &HostedRm3Backend,
                        name,
                        label,
                        &result.program,
                        &inputs,
                        &reference,
                    );
                }
                if self.wide {
                    n += self.check_wide(name, label, &result.program, &inputs, &reference);
                }
                n
            } else {
                let (label, options) = &imp_configs[job - preset_list.len()];
                let program = ImpBackend.compile(mig, options);
                self.check_backend(&ImpBackend, name, label, &program, &inputs, &reference)
            }
        });

        VerifyReport {
            name: name.to_owned(),
            exhaustive: matches!(self.coverage(mig.num_inputs()), Coverage::Exhaustive { .. }),
            patterns: inputs.len(),
            presets: preset_list.len(),
            comparisons,
        }
    }

    /// Verifies a single compiled program against the golden model over
    /// this oracle's input coverage (used for programs that went through
    /// extra stages, e.g. assembly or BLIF round trips).
    pub fn verify_program(&self, mig: &Mig, name: &str, label: &str, program: &Program) -> usize {
        let inputs = self.inputs(mig.num_inputs());
        let reference: Vec<Vec<bool>> = inputs.iter().map(|v| mig.evaluate(v)).collect();
        self.check_backend(&Rm3Backend, name, label, program, &inputs, &reference)
    }

    /// Checks that the rewritten MIG inside a [`CompileResult`] is
    /// equivalent to the source graph.
    fn check_rewrite(&self, mig: &Mig, name: &str, label: &str, result: &CompileResult) {
        if mig.num_inputs() <= self.exhaustive_limit {
            if let Some(pattern) = equiv_exhaustive(mig, &result.mig) {
                panic!(
                    "{name}/{label}: rewriting changed the function \
                     (first divergence at pattern {pattern})"
                );
            }
        } else {
            let check = equiv_random(mig, &result.mig, 8, self.seed ^ fnv1a(label));
            assert!(
                check.is_equal(),
                "{name}/{label}: rewriting changed the function: {check:?}"
            );
        }
    }

    /// Executes the compiled RM3 program on the word-level bit-parallel
    /// machine, packing up to 64 input patterns into each pass, and
    /// checks (a) that every lane reproduces the golden model and
    /// (b) the wear-equivalence invariant of the word-level backend:
    /// per-cell *logical* write counts after a `lanes`-wide pass equal
    /// exactly `lanes ×` the scalar machine's per-run counts. The scalar
    /// baseline is input-independent — every RM3 instruction writes its
    /// destination exactly once regardless of data — so a single scalar
    /// run anchors every chunk.
    fn check_wide(
        &self,
        name: &str,
        label: &str,
        program: &Program,
        inputs: &[Vec<bool>],
        reference: &[Vec<bool>],
    ) -> usize {
        let (_, scalar_counts) = run_once(program, &inputs[0]);
        let mut comparisons = 0;
        for (chunk_index, chunk) in inputs.chunks(WideCrossbar::LANES).enumerate() {
            let lane_inputs: Vec<&[bool]> = chunk.iter().map(Vec::as_slice).collect();
            let (outputs, wide_counts) = run_once_wide(program, &lane_inputs);
            let base = chunk_index * WideCrossbar::LANES;
            for (k, got) in outputs.iter().enumerate() {
                assert_eq!(
                    got,
                    &reference[base + k],
                    "{name}/{label}: rm3-wide lane {k} diverges from MIG at pattern {}",
                    base + k
                );
                comparisons += 1;
            }
            assert_eq!(
                wide_counts.len(),
                scalar_counts.len(),
                "{name}/{label}: rm3-wide array size diverges from scalar"
            );
            for (cell, (&wide, &scalar)) in wide_counts.iter().zip(&scalar_counts).enumerate() {
                assert_eq!(
                    wide,
                    chunk.len() as u64 * scalar,
                    "{name}/{label}: cell {cell} wear diverges: a {}-lane word pass \
                     must cost exactly lanes x the scalar per-run writes",
                    chunk.len()
                );
            }
        }
        comparisons
    }

    /// Validates `program` and runs it through `backend` for every
    /// pattern, comparing against `reference` — the single per-backend
    /// check behind the whole matrix.
    fn check_backend<B: Backend>(
        &self,
        backend: &B,
        name: &str,
        label: &str,
        program: &IsaProgram<B::Instr>,
        inputs: &[Vec<bool>],
        reference: &[Vec<bool>],
    ) -> usize {
        program
            .validate()
            .unwrap_or_else(|e| panic!("{name}/{label}: invalid {} program: {e}", B::NAME));
        let mut comparisons = 0;
        for (pattern, (input, expect)) in inputs.iter().zip(reference).enumerate() {
            let got = backend
                .execute(program, input)
                .unwrap_or_else(|e| panic!("{name}/{label}: {} endurance error: {e}", B::NAME));
            assert_eq!(
                &got,
                expect,
                "{name}/{label}: {} backend diverges from MIG at pattern {pattern}",
                B::NAME
            );
            comparisons += 1;
        }
        comparisons
    }
}

/// Runs `f(0..jobs)` across the shared worker pool and sums the results
/// (an order-insensitive reduction, so the outcome is independent of the
/// thread count).
fn parallel_sum<F>(jobs: usize, threads: usize, f: F) -> usize
where
    F: Fn(usize) -> usize + Sync,
{
    parallel_map((0..jobs).collect(), threads, f)
        .into_iter()
        .sum()
}

/// Exhaustive 64-way bit-parallel equivalence check between two MIGs with
/// identical interfaces. Returns the first diverging pattern index, or
/// `None` when the graphs agree on all `2^n` patterns.
///
/// Patterns are packed 64 to a simulation word, so even the 2048-pattern
/// `int2float` table costs only 32 simulation sweeps.
pub fn equiv_exhaustive(a: &Mig, b: &Mig) -> Option<usize> {
    assert_eq!(a.num_inputs(), b.num_inputs(), "interface mismatch");
    assert_eq!(a.num_outputs(), b.num_outputs(), "interface mismatch");
    let n = a.num_inputs();
    assert!(
        n < usize::BITS as usize,
        "exhaustive check needs n < 64-ish"
    );
    let total: usize = 1 << n;
    let mut base = 0usize;
    while base < total {
        let lanes = (total - base).min(64);
        // Lane k simulates pattern `base + k`: input word i holds bit i of
        // each lane's pattern index.
        let words: Vec<u64> = (0..n)
            .map(|i| (0..lanes).fold(0u64, |w, k| w | ((((base + k) >> i) & 1) as u64) << k))
            .collect();
        let oa = a.simulate(&words);
        let ob = b.simulate(&words);
        let mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        for (wa, wb) in oa.iter().zip(&ob) {
            let diff = (wa ^ wb) & mask;
            if diff != 0 {
                return Some(base + diff.trailing_zeros() as usize);
            }
        }
        base += lanes;
    }
    None
}

/// Deterministic sampled input patterns: the all-zero and all-one vectors
/// first, then seeded random vectors.
pub fn sampled_inputs(num_inputs: usize, rounds: usize, seed: u64) -> Vec<Vec<bool>> {
    use rand::{Rng, SeedableRng};
    let mut rng =
        rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ (num_inputs as u64).rotate_left(32));
    let mut out = Vec::with_capacity(rounds);
    if rounds > 0 {
        out.push(vec![false; num_inputs]);
    }
    if rounds > 1 {
        out.push(vec![true; num_inputs]);
    }
    while out.len() < rounds {
        out.push((0..num_inputs).map(|_| rng.gen()).collect());
    }
    out
}

/// Replays a fleet batch on bare scalar [`Machine`]s, one per array, in
/// the order a fresh, unbudgeted fleet of `arrays` arrays dispatches it
/// under `policy`: round-robin runs job `i` on array `i % arrays`,
/// least-worn on the array with the fewest writes so far (lowest index
/// on ties). Returns the outputs in job order and the machines in array
/// order — what every fleet executor must reproduce, output for output
/// and cell for cell.
///
/// # Panics
///
/// Panics if `arrays` is zero or a job's inputs do not fit its program.
pub fn replay_fleet(
    arrays: usize,
    policy: DispatchPolicy,
    jobs: &[Job<'_>],
) -> (Vec<Vec<bool>>, Vec<Machine>) {
    let mut machines = vec![Machine::with_array(Crossbar::new()); arrays];
    let mut totals = vec![0u64; arrays];
    let outputs = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let array = match policy {
                DispatchPolicy::RoundRobin => i % arrays,
                DispatchPolicy::LeastWorn => (0..arrays)
                    .min_by_key(|&a| (totals[a], a))
                    .expect("a fleet has arrays"),
            };
            totals[array] += job.cost();
            let machine = &mut machines[array];
            machine.ensure_cells(job.program.num_cells);
            machine
                .run(job.program, job.inputs)
                .expect("bare arrays have no endurance limit")
        })
        .collect();
    (outputs, machines)
}

/// FNV-1a, for decorrelating per-label seeds.
fn fnv1a(data: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in data.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor3() -> Mig {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let x = mig.xor(a, b);
        let f = mig.xor(x, c);
        mig.add_output(f);
        mig
    }

    #[test]
    fn coverage_switches_at_the_limit() {
        let oracle = Oracle::new();
        assert_eq!(
            oracle.coverage(DEFAULT_EXHAUSTIVE_LIMIT),
            Coverage::Exhaustive {
                patterns: 1 << DEFAULT_EXHAUSTIVE_LIMIT
            }
        );
        assert!(matches!(
            oracle.coverage(DEFAULT_EXHAUSTIVE_LIMIT + 1),
            Coverage::Sampled { .. }
        ));
    }

    #[test]
    fn exhaustive_inputs_enumerate_every_pattern() {
        let inputs = Oracle::new().inputs(4);
        assert_eq!(inputs.len(), 16);
        let as_ints: Vec<usize> = inputs
            .iter()
            .map(|v| v.iter().enumerate().map(|(i, &b)| (b as usize) << i).sum())
            .collect();
        assert_eq!(as_ints, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn sampled_inputs_are_deterministic_and_include_extremes() {
        let a = sampled_inputs(20, 8, 42);
        let b = sampled_inputs(20, 8, 42);
        let c = sampled_inputs(20, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[0], vec![false; 20]);
        assert_eq!(a[1], vec![true; 20]);
    }

    #[test]
    fn equiv_exhaustive_agrees_and_finds_divergence() {
        let mig = xor3();
        assert_eq!(equiv_exhaustive(&mig, &mig), None);

        // A graph with the same interface but a different function: the
        // first divergence from xor3 must be reported at pattern 1.
        let mut other = Mig::new(3);
        let [a, b, c] = [other.input(0), other.input(1), other.input(2)];
        let m = other.add_maj(a, b, c);
        other.add_output(m);
        assert_eq!(equiv_exhaustive(&mig, &other), Some(1));
    }

    #[test]
    fn oracle_verifies_a_tiny_circuit_across_all_backends() {
        let report = Oracle::new().with_hosted(true).verify(&xor3(), "xor3");
        assert!(report.exhaustive);
        assert_eq!(report.patterns, 8);
        assert_eq!(report.presets, presets().len());
        // RM3 + hosted + word-level per preset per pattern, plus two IMP
        // allocations.
        assert_eq!(report.comparisons, 8 * (3 * report.presets + 2));
    }

    /// The word-level check is on by default and contributes exactly one
    /// lane comparison per pattern per preset; disabling it removes
    /// precisely that share of the matrix.
    #[test]
    fn wide_check_rides_along_per_preset() {
        let with = Oracle::new().verify(&xor3(), "xor3");
        let without = Oracle::new().with_wide(false).verify(&xor3(), "xor3");
        assert_eq!(
            with.comparisons - without.comparisons,
            with.patterns * with.presets
        );
    }

    /// Satellite determinism requirement: the parallel preset × backend
    /// matrix reports exactly what a forced single-thread run reports.
    #[test]
    fn parallel_verify_matches_single_thread() {
        let mig = xor3();
        let serial = Oracle::new().with_threads(1).verify(&mig, "xor3");
        let parallel = Oracle::new().with_threads(4).verify(&mig, "xor3");
        assert_eq!(serial.exhaustive, parallel.exhaustive);
        assert_eq!(serial.patterns, parallel.patterns);
        assert_eq!(serial.presets, parallel.presets);
        assert_eq!(serial.comparisons, parallel.comparisons);
    }

    /// The reduction behind `Oracle::verify`'s preset matrix must not
    /// swallow worker panics: a divergence assertion raised on any job
    /// has to reach the caller.
    #[test]
    fn parallel_sum_propagates_job_panics() {
        let result = std::panic::catch_unwind(|| {
            parallel_sum(6, 3, |i| {
                assert_ne!(i, 4, "synthetic divergence");
                1
            })
        });
        assert!(result.is_err(), "job panic must propagate");
        assert_eq!(parallel_sum(6, 3, |_| 2), 12);
    }

    #[test]
    fn divergent_program_panics() {
        // A program computing a different function than the golden MIG
        // must trip the oracle's assertion.
        let mig = xor3();
        let mut other = Mig::new(3);
        let [a, b, c] = [other.input(0), other.input(1), other.input(2)];
        let m = other.add_maj(a, b, c);
        other.add_output(m);
        let program = compile(&other, &rlim_compiler::CompileOptions::naive()).program;
        let result = std::panic::catch_unwind(|| {
            Oracle::new().verify_program(&mig, "xor3", "tampered", &program)
        });
        assert!(result.is_err(), "divergent program must panic");
    }
}
