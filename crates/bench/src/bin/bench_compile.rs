//! End-to-end `rewrite + compile` wall-clock benchmark runner and
//! fleet-throughput trend tracker.
//!
//! Times the full endurance-aware pipeline (Algorithm 2 rewriting at the
//! paper's effort, then Algorithm 3 compilation) on the largest vendored
//! benchmarks and writes the measurements to `BENCH_compile.json`, so the
//! speedup trajectory is tracked from PR to PR.
//!
//! ```text
//! cargo run --release -p rlim-bench --bin bench_compile
//! cargo run --release -p rlim-bench --bin bench_compile -- --quick --out smoke.json
//! cargo run --release -p rlim-bench --bin bench_compile -- --baseline BENCH_compile.json
//! cargo run --release -p rlim-bench --bin bench_compile -- --db BENCH_db.json --gate
//! ```
//!
//! With `--baseline`, per-benchmark `speedup_vs_prev_commit` fields are
//! computed against the `total_seconds` of a previously **committed**
//! JSON file (see `rlim_bench`'s crate docs for the exact semantics).
//! The functional metrics (`instructions`, `rrams`) are recorded so that
//! a perf regression that silently changes the emitted program is caught
//! by diffing the file.
//!
//! With `--db`, the fleet throughput measurement — the scalar
//! `run_batch` path and the word-level `run_batch_simd` path over the
//! same workload — is appended as one record to the append-only bench
//! database (`rlim_bench::db`), and checked against the latest committed
//! record of the same workload (benchmark, fleet size and job count) by
//! the regression gate: `--gate` fails the process on a
//! regression beyond `--gate-tolerance` (default 0.5), `--gate-dry-run`
//! reports it without failing.
//!
//! The runner is a thin client of [`rlim_service`]: each benchmark's
//! compile (and peephole twin) is a [`JobSpec`] batch over the shared
//! pre-rewritten graph, the fleet throughput record executes programs
//! compiled once through a service batch, and the JSON file is emitted
//! through the service's [`Json`] writer instead of hand-concatenated
//! strings.

use std::sync::Arc;
use std::time::Instant;

use rlim_bench::db::{self, BenchRecord, DEFAULT_GATE_TOLERANCE};
use rlim_bench::{baseline_totals, speedup_vs_prev_commit};
use rlim_benchmarks::Benchmark;
use rlim_compiler::CompileOptions;
use rlim_mig::rewrite::{rewrite, Algorithm};
use rlim_service::json::Json;
use rlim_service::{JobSpec, Service};

/// The benchmarks worth timing: the largest graphs in the suite, where the
/// rewriting passes dominate end-to-end compile time.
const LARGE: &[Benchmark] = &[
    Benchmark::Div,
    Benchmark::Multiplier,
    Benchmark::Square,
    Benchmark::Sqrt,
    Benchmark::Log2,
    Benchmark::MemCtrl,
    Benchmark::Voter,
];

/// Small set for CI smoke runs.
const QUICK: &[Benchmark] = &[Benchmark::Cavlc, Benchmark::Priority, Benchmark::Dec];

struct Row {
    name: &'static str,
    gates: usize,
    rewritten_gates: usize,
    rewrite_seconds: f64,
    compile_seconds: f64,
    instructions: usize,
    rrams: usize,
    /// Same compilation with the peephole write-elision pass enabled.
    peephole_seconds: f64,
    peephole_instructions: usize,
}

impl Row {
    fn total_seconds(&self) -> f64 {
        self.rewrite_seconds + self.compile_seconds
    }

    fn to_json(&self, speedup: Option<f64>) -> Json {
        let mut entries = vec![
            ("name", Json::from(self.name)),
            ("gates", Json::from(self.gates)),
            ("rewritten_gates", Json::from(self.rewritten_gates)),
            ("rewrite_seconds", Json::float(self.rewrite_seconds, 6)),
            ("compile_seconds", Json::float(self.compile_seconds, 6)),
            ("total_seconds", Json::float(self.total_seconds(), 6)),
        ];
        if let Some(s) = speedup {
            entries.push(("speedup_vs_prev_commit", Json::float(s, 3)));
        }
        entries.extend([
            ("instructions", Json::from(self.instructions)),
            ("rrams", Json::from(self.rrams)),
            ("peephole_seconds", Json::float(self.peephole_seconds, 6)),
            (
                "peephole_instructions",
                Json::from(self.peephole_instructions),
            ),
        ]);
        Json::object(entries)
    }
}

fn measure(
    service: &Service,
    benchmark: Benchmark,
    effort: usize,
    repeat: usize,
    esat: bool,
) -> Row {
    let mig = benchmark.build();
    let mut best: Option<Row> = None;
    for _ in 0..repeat.max(1) {
        let t0 = Instant::now();
        let rewritten = Arc::new(rewrite(&mig, Algorithm::EnduranceAware, effort));
        let rewrite_seconds = t0.elapsed().as_secs_f64();

        // The graph is already rewritten; compile without re-rewriting so
        // the two phases are timed separately (with `--esat` the
        // saturation rounds run inside the compile, so they land in
        // `compile_seconds`). The peephole on/off pair shares the
        // rewritten graph, so the delta isolates the elision pass itself.
        let options = CompileOptions {
            rewriting: None,
            ..CompileOptions::endurance_aware()
        }
        .with_esat(esat);
        let specs = [
            JobSpec::shared_mig(Arc::clone(&rewritten)).with_options(options),
            JobSpec::shared_mig(Arc::clone(&rewritten)).with_options(options.with_peephole(true)),
        ];
        let reports = service
            .run_batch(&specs)
            .expect("in-memory compilations cannot fail");
        let [plain, peephole] = &reports[..] else {
            unreachable!("one report per spec");
        };

        let row = Row {
            name: benchmark.name(),
            gates: mig.num_gates(),
            rewritten_gates: rewritten.num_gates(),
            rewrite_seconds,
            compile_seconds: plain.seconds,
            instructions: plain.instructions,
            rrams: plain.rrams,
            peephole_seconds: peephole.seconds,
            peephole_instructions: peephole.instructions,
        };
        if best
            .as_ref()
            .is_none_or(|b| row.total_seconds() < b.total_seconds())
        {
            best = Some(row);
        }
    }
    best.expect("at least one repetition")
}

/// Fleet execution-throughput measurement: the same alternating
/// naive/endurance-aware workload timed on both execution paths.
struct FleetRow {
    name: &'static str,
    /// Whether the light program was compiled with equality saturation
    /// (`--esat`); recorded in the DB benchmark label.
    esat: bool,
    arrays: usize,
    jobs: usize,
    instructions: u64,
    scalar_seconds: f64,
    simd_seconds: f64,
    /// Per-cell write stats of the light (endurance-aware) program the
    /// workload executes — deterministic compile-quality columns.
    light_writes: rlim_rram::WriteStats,
}

impl FleetRow {
    fn label(&self) -> String {
        if self.esat {
            format!("{}+esat", self.name)
        } else {
            self.name.to_owned()
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("benchmark", Json::from(self.label().as_str())),
            ("dispatch", Json::from("least-worn")),
            ("workload", Json::from("alternating naive/endurance-aware")),
            ("arrays", Json::from(self.arrays)),
            ("jobs", Json::from(self.jobs)),
            ("instructions", Json::from(self.instructions)),
            ("scalar_seconds", Json::float(self.scalar_seconds, 6)),
            (
                "scalar_instructions_per_second",
                Json::float(self.instructions as f64 / self.scalar_seconds, 0),
            ),
            ("simd_seconds", Json::float(self.simd_seconds, 6)),
            (
                "simd_instructions_per_second",
                Json::float(self.instructions as f64 / self.simd_seconds, 0),
            ),
            (
                "simd_speedup",
                Json::float(self.scalar_seconds / self.simd_seconds, 3),
            ),
        ])
    }

    fn to_record(&self, run: u64) -> BenchRecord {
        BenchRecord {
            run,
            benchmark: self.label(),
            arrays: self.arrays,
            jobs: self.jobs,
            instructions: self.instructions,
            scalar_seconds: self.scalar_seconds,
            scalar_ops_per_second: self.instructions as f64 / self.scalar_seconds,
            simd_seconds: self.simd_seconds,
            simd_ops_per_second: self.instructions as f64 / self.simd_seconds,
            speedup: self.scalar_seconds / self.simd_seconds,
            max_cell_writes: self.light_writes.max,
            write_stdev: self.light_writes.stdev,
        }
    }
}

/// Times an alternating naive/endurance-aware workload of `jobs` runs on
/// a fresh 4-array least-worn fleet (threads: one per core), once
/// through the scalar dispatcher and once SIMD-batched into word-level
/// lane groups. The heavy and light programs are compiled **once**, as a
/// service batch whose reports carry the parseable listings; only the
/// fleet execution is repeated and timed, best of `repeat` wall-clock
/// runs per path.
fn measure_fleet(
    service: &Service,
    benchmark: Benchmark,
    effort: usize,
    jobs: usize,
    repeat: usize,
    esat: bool,
) -> FleetRow {
    use rlim_plim::{asm, Fleet, FleetConfig, Job};
    const ARRAYS: usize = 4;

    let specs = [
        JobSpec::benchmark(benchmark)
            .with_options(CompileOptions::naive())
            .with_program_text(true),
        JobSpec::benchmark(benchmark)
            .with_options(
                CompileOptions::endurance_aware()
                    .with_effort(effort)
                    .with_esat(esat),
            )
            .with_program_text(true),
    ];
    let reports = service
        .run_batch(&specs)
        .expect("benchmark compilations cannot fail");
    let [heavy, light] = reports
        .iter()
        .map(|r| asm::parse_text(r.program.as_deref().expect("listing requested")))
        .collect::<Result<Vec<_>, _>>()
        .expect("service listings parse")
        .try_into()
        .expect("one program per spec");
    let inputs = vec![false; reports[0].circuit.inputs];
    let job_list = Job::alternating(&heavy, &light, &inputs, jobs);
    let instructions: u64 = job_list.iter().map(Job::cost).sum();

    let mut scalar_seconds = f64::INFINITY;
    let mut simd_seconds = f64::INFINITY;
    for _ in 0..repeat.max(1) {
        let mut fleet = Fleet::new(FleetConfig::new(ARRAYS));
        let t0 = Instant::now();
        fleet
            .run_batch(&job_list, 0)
            .expect("unbudgeted fleet cannot fail");
        scalar_seconds = scalar_seconds.min(t0.elapsed().as_secs_f64());

        let mut fleet = Fleet::new(FleetConfig::new(ARRAYS));
        let t0 = Instant::now();
        fleet
            .run_batch_simd(&job_list, 0)
            .expect("unbudgeted fleet cannot fail");
        simd_seconds = simd_seconds.min(t0.elapsed().as_secs_f64());
    }
    FleetRow {
        name: benchmark.name(),
        esat,
        arrays: ARRAYS,
        jobs,
        instructions,
        scalar_seconds,
        simd_seconds,
        light_writes: reports[1].writes,
    }
}

fn main() {
    let mut benchmarks: Vec<Benchmark> = LARGE.to_vec();
    let mut effort = 5usize;
    let mut out_path = "BENCH_compile.json".to_owned();
    let mut baseline: Option<String> = None;
    let mut repeat = 1usize;
    let mut fleet_jobs = 256usize;
    let mut db_path: Option<String> = None;
    let mut gate = false;
    let mut gate_dry_run = false;
    let mut gate_tolerance = DEFAULT_GATE_TOLERANCE;
    let mut esat = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => benchmarks = QUICK.to_vec(),
            "--esat" => esat = true,
            "--bench" => {
                let list = args.next().expect("--bench needs a comma-separated list");
                benchmarks = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("unknown benchmark"))
                    .collect();
            }
            "--effort" => {
                effort = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--effort needs a number");
            }
            "--repeat" => {
                repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeat needs a number");
            }
            "--jobs" => {
                fleet_jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a number");
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--db" => db_path = Some(args.next().expect("--db needs a path")),
            "--gate" => gate = true,
            "--gate-dry-run" => gate_dry_run = true,
            "--gate-tolerance" => {
                gate_tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--gate-tolerance needs a number");
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: bench_compile [--quick] [--esat] [--bench a,b,c] [--effort N] \
                     [--repeat N] [--jobs N] [--out PATH] [--baseline PATH] \
                     [--db PATH] [--gate | --gate-dry-run] [--gate-tolerance X]"
                );
                std::process::exit(2);
            }
        }
    }

    // A forced-serial service: timings must not fight other compiles for
    // cores, and the compile/peephole pair must run back to back.
    let service = Service::new().with_threads(1);
    let baseline_rows = baseline.as_deref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        baseline_totals(&text)
    });
    let mut rows = Vec::with_capacity(benchmarks.len());
    for &b in &benchmarks {
        let row = measure(&service, b, effort, repeat, esat);
        eprintln!(
            "[{}] {} gates -> {}: rewrite {:.3}s + compile {:.3}s = {:.3}s \
             (#I={} #R={}; peephole #I={} in {:.3}s)",
            row.name,
            row.gates,
            row.rewritten_gates,
            row.rewrite_seconds,
            row.compile_seconds,
            row.total_seconds(),
            row.instructions,
            row.rrams,
            row.peephole_instructions,
            row.peephole_seconds
        );
        rows.push(row);
    }

    let benchmark_records: Vec<Json> = rows
        .iter()
        .map(|row| {
            let speedup = baseline_rows
                .as_ref()
                .and_then(|b| speedup_vs_prev_commit(b, row.name, row.total_seconds()));
            row.to_json(speedup)
        })
        .collect();

    // Fleet execution throughput on the largest benchmark of the set,
    // scalar vs word-level SIMD.
    let fleet = measure_fleet(&service, benchmarks[0], effort, fleet_jobs, repeat, esat);
    eprintln!(
        "[fleet:{}] {} jobs on {} arrays: scalar {:.3}s ({:.0} RM3/s), \
         simd {:.3}s ({:.0} RM3/s, {:.2}x)",
        fleet.label(),
        fleet.jobs,
        fleet.arrays,
        fleet.scalar_seconds,
        fleet.instructions as f64 / fleet.scalar_seconds,
        fleet.simd_seconds,
        fleet.instructions as f64 / fleet.simd_seconds,
        fleet.scalar_seconds / fleet.simd_seconds
    );

    let document = Json::object([
        ("schema", Json::from(2u64)),
        ("effort", Json::from(effort)),
        ("algorithm", Json::from("endurance_aware")),
        ("benchmarks", Json::Array(benchmark_records)),
        ("fleet", fleet.to_json()),
    ]);
    let mut json = document.render();
    json.push('\n');

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    if let Some(db_path) = db_path {
        let db_path = std::path::Path::new(&db_path);
        let history = db::records(db_path)
            .unwrap_or_else(|e| panic!("cannot read bench DB {}: {e}", db_path.display()));
        let record = fleet.to_record(db::next_run(&history));
        if let Some(previous) = db::gate_baseline(&history, &record) {
            match db::regression_gate(previous, &record, gate_tolerance) {
                Ok(()) => eprintln!("gate: ok vs run {} ({previous})", previous.run),
                Err(msg) if gate_dry_run => eprintln!("gate (dry-run, not enforced): {msg}"),
                Err(msg) if gate => {
                    eprintln!("gate: FAIL: {msg}");
                    std::process::exit(1);
                }
                Err(msg) => eprintln!("gate (pass --gate to enforce): {msg}"),
            }
        } else {
            eprintln!("gate: no previous record of this workload, nothing to compare against");
        }
        db::append(db_path, &record)
            .unwrap_or_else(|e| panic!("cannot append to {}: {e}", db_path.display()));
        eprintln!("appended to {}: {record}", db_path.display());
    }
}
