//! The `compile` workload: one caller runs `Service::run` on a
//! single-threaded service over every spec of the paper's tables.
//!
//! Specs are the 18 EPFL benchmarks under the five paper presets,
//! endurance-aware with a 20-write cap, and endurance-aware with
//! copy-reuse and peephole; plus endurance-aware with esat, copy-reuse
//! and peephole on the twelve benchmarks where one esat compile stays
//! under half a second (the six largest, `mem_ctrl` at about 8 s among
//! them, would leave too few rounds in a run). Each round visits every
//! spec once in a seeded order; a spec's latency is the median over
//! rounds.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use rlim_benchmarks::Benchmark;
use rlim_compiler::{
    compile, CompileOptions, EsatPass, FinalizePass, Pass, PassManager, PeepholePass,
    PipelineState, RewritePass, SchedulePass, TranslatePass,
};
use rlim_mig::Mig;
use rlim_plim::{asm, Machine, Program};
use rlim_service::{JobSpec, Report, Service};

use crate::rng::Rng;
use crate::{push_latencies, stats, timed_setup, Outcome, Scale};

/// Stream tag of the compile workload's generator.
const STREAM: u64 = 1;
/// Seeded input vectors each compiled program is executed on.
const CHECK_VECTORS: usize = 4;
/// Tail percentile over the specs' median latencies: the highest with
/// ten of the 138 specs beyond it.
const TAIL: f64 = 90.0;

/// The benchmarks the esat configuration runs on.
const ESAT_BENCHMARKS: [Benchmark; 12] = [
    Benchmark::Adder,
    Benchmark::Bar,
    Benchmark::Max,
    Benchmark::Sin,
    Benchmark::Cavlc,
    Benchmark::Ctrl,
    Benchmark::Dec,
    Benchmark::I2c,
    Benchmark::Int2float,
    Benchmark::Priority,
    Benchmark::Router,
    Benchmark::Voter,
];

/// The sample a traced run of another workload drives: small circuits,
/// every pass kind.
const SAMPLE_BENCHMARKS: [Benchmark; 3] = [Benchmark::Ctrl, Benchmark::Int2float, Benchmark::Dec];

/// The eight configurations, by name.
fn configs() -> Vec<(&'static str, CompileOptions)> {
    let ea = CompileOptions::endurance_aware();
    vec![
        ("naive", CompileOptions::naive()),
        ("plim21", CompileOptions::plim_compiler()),
        ("min-write", CompileOptions::min_write()),
        ("ea-rewriting", CompileOptions::endurance_rewriting()),
        ("endurance-aware", ea),
        ("max-writes-20", ea.with_max_writes(20)),
        (
            "copy-peephole",
            ea.with_copy_reuse(true).with_peephole(true),
        ),
        (
            "esat-copy-peephole",
            ea.with_esat(true)
                .with_esat_nodes(5000)
                .with_copy_reuse(true)
                .with_peephole(true),
        ),
    ]
}

/// One spec of the workload.
struct Spec {
    bench: Benchmark,
    config: &'static str,
    options: CompileOptions,
    graph: Arc<Mig>,
    job: JobSpec,
}

/// The exact, timing-free outcome of one spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Row {
    instructions: usize,
    rrams: usize,
    max: u64,
    stdev_bits: u64,
}

impl Row {
    fn of(report: &Report) -> Self {
        Row {
            instructions: report.instructions,
            rrams: report.rrams,
            max: report.writes.max,
            stdev_bits: report.writes.stdev.to_bits(),
        }
    }

    fn stdev(&self) -> f64 {
        f64::from_bits(self.stdev_bits)
    }
}

/// Builds the graphs (shared by every spec of a benchmark) and the specs.
fn setup(scale: Scale) -> Vec<Spec> {
    let benches: &[Benchmark] = match scale {
        Scale::Full => Benchmark::all(),
        Scale::Sample => &SAMPLE_BENCHMARKS,
    };
    let graphs: Vec<(Benchmark, Arc<Mig>)> =
        benches.iter().map(|&b| (b, Arc::new(b.build()))).collect();
    let mut specs = Vec::new();
    for (config, options) in configs() {
        for (bench, graph) in &graphs {
            if options.esat && scale == Scale::Full && !ESAT_BENCHMARKS.contains(bench) {
                continue;
            }
            specs.push(Spec {
                bench: *bench,
                config,
                options,
                graph: Arc::clone(graph),
                job: JobSpec::shared_mig(Arc::clone(graph)).with_options(options),
            });
        }
    }
    specs
}

/// Executes `program` on `vectors` seeded input vectors and compares
/// each output with the graph's own evaluation.
fn program_matches(program: &Program, mig: &Mig, rng: &mut Rng, vectors: usize) -> bool {
    let mut machine = Machine::for_program(program);
    (0..vectors).all(|_| {
        let inputs = rng.bits(mig.num_inputs());
        machine.run(program, &inputs).ok() == Some(mig.evaluate(&inputs))
    })
}

/// Checks a report's listing against the graph: it parses, matches the
/// reported counts, and computes the graph's function.
pub fn report_matches(report: &Report, mig: &Mig, rng: &mut Rng) -> bool {
    let Some(program) = report
        .program
        .as_deref()
        .and_then(|text| asm::parse_text(text).ok())
    else {
        return false;
    };
    program.num_instructions() == report.instructions
        && program.num_rrams() == report.rrams
        && program.write_stats().max == report.writes.max
        && program_matches(&program, mig, rng, CHECK_VECTORS)
}

/// Prints the per-spec rows, so a moved sum points at its spec, and
/// their digest.
fn print_rows(specs: &[Spec], rows: &[Option<Row>]) {
    let mut digest = DefaultHasher::new();
    for (spec, row) in specs.iter().zip(rows) {
        let Some(row) = row else { continue };
        println!(
            "exact {} {} instructions={} rrams={} max={} stdev={}",
            spec.bench.name(),
            spec.config,
            row.instructions,
            row.rrams,
            row.max,
            row.stdev()
        );
        row.hash(&mut digest);
    }
    println!("exact-digest compile {:016x}", digest.finish());
}

/// Pushes the rows' sums as the exact per-layer metrics.
fn push_exact(out: &mut Outcome, specs: &[Spec], rows: &[Option<Row>]) {
    let rows: Vec<&Row> = rows.iter().flatten().collect();
    let instr: usize = rows.iter().map(|r| r.instructions).sum();
    let rrams: usize = rows.iter().map(|r| r.rrams).sum();
    let max: u64 = rows.iter().map(|r| r.max).sum();
    let stdev: f64 = rows.iter().map(|r| r.stdev()).sum();
    out.push("exact.instructions", instr as f64, "count");
    out.push("exact.rrams", rrams as f64, "count");
    out.push("exact.max_writes", max as f64, "count");
    out.push("exact.write_stdev", stdev / specs.len() as f64, "writes");
}

/// Runs one spec through `Service::run`; every report after the first
/// must repeat the first one's row bit for bit.
fn run_spec(service: &Service, spec: &Spec, row: &mut Option<Row>) -> (f64, Option<Report>, bool) {
    let t = Instant::now();
    let result = service.run(&spec.job);
    let seconds = t.elapsed().as_secs_f64();
    let ok = match &result {
        Err(e) => {
            eprintln!("compile: {} {}: {e}", spec.bench.name(), spec.config);
            false
        }
        Ok(report) => *row.get_or_insert(Row::of(report)) == Row::of(report),
    };
    (seconds, result.ok(), ok)
}

/// The untimed check of one spec: `Service::run` with the listing must
/// give the timed row, and the listing must compute the graph.
fn check_spec(service: &Service, spec: &Spec, row: Option<Row>, rng: &mut Rng) -> bool {
    let ok = service
        .run(&spec.job.clone().with_program_text(true))
        .is_ok_and(|report| {
            row == Some(Row::of(&report)) && report_matches(&report, &spec.graph, rng)
        });
    if !ok {
        eprintln!(
            "compile: {} {} failed its check",
            spec.bench.name(),
            spec.config
        );
    }
    ok
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (setup_s, specs) = timed_setup(|| setup(Scale::Full));
    let service = Service::new().with_threads(1);
    let mut rng = Rng::new(seed, STREAM);
    let mut out = Outcome::default();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut rows: Vec<Option<Row>> = vec![None; specs.len()];
    let mut round_walls = Vec::new();
    let start = Instant::now();
    loop {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        rng.shuffle(&mut order);
        let mut wall = 0.0;
        for i in order {
            let (s, _, ok) = run_spec(&service, &specs[i], &mut rows[i]);
            out.count(ok);
            wall += s;
            latencies[i].push(s * 1e3);
        }
        round_walls.push(wall);
        if start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    for (spec, row) in specs.iter().zip(&rows) {
        out.count(check_spec(&service, spec, *row, &mut rng));
    }
    println!(
        "compile specs={} rounds={} round_wall_s={round_walls:?} spread={}",
        specs.len(),
        round_walls.len(),
        if round_walls.len() > 1 {
            stats::spread(&round_walls)
        } else {
            0.0
        }
    );
    print_rows(&specs, &rows);
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    out.push(
        "ops_per_s",
        specs.len() as f64 / stats::median(&round_walls),
        "1/s",
    );
    let medians: Vec<f64> = latencies.iter().map(|v| stats::median(v)).collect();
    push_latencies(&mut out, &latencies, &medians, TAIL);
    out
}

/// The pass a `PassManager::pass_names` entry names.
fn pass_named(name: &str) -> Option<Box<dyn Pass>> {
    Some(match name {
        "rewrite" => Box::new(RewritePass),
        "esat" => Box::new(EsatPass),
        "schedule" => Box::new(SchedulePass),
        "translate" => Box::new(TranslatePass),
        "peephole" => Box::new(PeepholePass),
        "finalize" => Box::new(FinalizePass),
        _ => return None,
    })
}

/// Per-layer totals of the traced compile run, in milliseconds.
#[derive(Default)]
struct Layers {
    build_ms: f64,
    build_gates: usize,
    rewrite_ms: f64,
    gates_in: usize,
    gates_out: usize,
    esat_ms: f64,
    esat_specs: usize,
    esat_kept: usize,
    schedule_ms: f64,
    translate_ms: f64,
    translate_reuse_ms: f64,
    peephole_ms: f64,
    finalize_ms: f64,
    emitted: usize,
    bestof_ms: f64,
    reuse_specs: usize,
    reuse_kept: usize,
    overhead_ms: f64,
    render_ms: f64,
    render_bytes: usize,
}

/// Drives one spec's standard pipeline pass by pass, timing each pass.
/// Returns the pipeline's wall time and its program.
fn traced_pipeline(spec: &Spec, layers: &mut Layers) -> Option<(f64, Program)> {
    let options = spec.options;
    let start = Instant::now();
    let mut state = PipelineState::new(&spec.graph, &options);
    for name in PassManager::standard(&options).pass_names() {
        let Some(pass) = pass_named(name) else {
            eprintln!("compile: pass {name} has no tracing span");
            return None;
        };
        let t = Instant::now();
        pass.run(&mut state);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match name {
            "rewrite" => {
                layers.rewrite_ms += ms;
                layers.gates_in += state.source.num_gates();
                layers.gates_out += state.graph().num_gates();
            }
            "esat" => layers.esat_ms += ms,
            "schedule" => layers.schedule_ms += ms,
            "translate" if options.copy_reuse => layers.translate_reuse_ms += ms,
            "translate" => layers.translate_ms += ms,
            "peephole" => layers.peephole_ms += ms,
            _ => layers.finalize_ms += ms,
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let program = state.program?;
    layers.emitted += program.num_instructions();
    Some((wall, program))
}

/// The traced run: every spec's pipeline pass by pass, `compile()` on
/// its own, and `Service::run` with its report rendered.
pub fn trace(seed: u64, _seconds: f64, scale: Scale) -> Outcome {
    let mut layers = Layers::default();
    let t = Instant::now();
    let specs = setup(scale);
    layers.build_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut seen: Vec<*const Mig> = Vec::new();
    for spec in &specs {
        let ptr = Arc::as_ptr(&spec.graph);
        if !seen.contains(&ptr) {
            seen.push(ptr);
            layers.build_gates += spec.graph.num_gates();
        }
    }
    let service = Service::new().with_threads(1);
    let mut rng = Rng::new(seed, STREAM);
    let mut out = Outcome::default();
    let mut rows: Vec<Option<Row>> = vec![None; specs.len()];
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    for (spec, row) in specs.iter().zip(rows.iter_mut()) {
        let Some((pipeline_s, program)) = traced_pipeline(spec, &mut layers) else {
            out.count(false);
            continue;
        };
        traced_ms.push(pipeline_s * 1e3);
        let t = Instant::now();
        let plain = PassManager::standard(&spec.options).run(&spec.graph, &spec.options);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let full = compile(&spec.graph, &spec.options);
        let compile_s = t.elapsed().as_secs_f64();
        if spec.options.copy_reuse || spec.options.esat {
            layers.bestof_ms += (compile_s - pipeline_s) * 1e3;
        }
        if spec.options.esat {
            layers.esat_specs += 1;
            let greedy = compile(&spec.graph, &spec.options.with_esat(false));
            layers.esat_kept += usize::from(full.program != greedy.program);
        } else if spec.options.copy_reuse {
            layers.reuse_specs += 1;
            layers.reuse_kept += usize::from(full.program == program);
        }

        let (wall, report, ok) = run_spec(&service, spec, row);
        let consistent = report.is_some_and(|report| {
            layers.overhead_ms += (wall - report.seconds) * 1e3;
            let t = Instant::now();
            let line = report.to_json().render_compact();
            layers.render_ms += t.elapsed().as_secs_f64() * 1e3;
            layers.render_bytes += line.len();
            report.instructions == full.num_instructions()
                && report.writes == full.write_stats()
                && plain.program == program
        });
        out.count(ok && consistent && check_spec(&service, spec, *row, &mut rng));
    }
    let n = specs.len() as f64;
    let share = |kept: usize, of: usize| {
        if of == 0 {
            0.0
        } else {
            kept as f64 / of as f64
        }
    };
    out.push("mig.build_ms", layers.build_ms, "ms");
    out.push("mig.build_gates", layers.build_gates as f64, "count");
    out.push("mig.rewrite_ms", layers.rewrite_ms, "ms");
    out.push("mig.rewrite_gates_in", layers.gates_in as f64, "count");
    out.push("mig.rewrite_gates_out", layers.gates_out as f64, "count");
    out.push("egraph.esat_ms", layers.esat_ms, "ms");
    out.push(
        "egraph.esat_kept",
        share(layers.esat_kept, layers.esat_specs),
        "ratio",
    );
    out.push("core.schedule_ms", layers.schedule_ms, "ms");
    out.push("core.translate_ms", layers.translate_ms, "ms");
    out.push("core.translate_reuse_ms", layers.translate_reuse_ms, "ms");
    out.push("core.peephole_ms", layers.peephole_ms, "ms");
    out.push("core.finalize_ms", layers.finalize_ms, "ms");
    out.push("core.instructions_emitted", layers.emitted as f64, "count");
    out.push("core.bestof_ms", layers.bestof_ms, "ms");
    out.push(
        "core.reuse_kept",
        share(layers.reuse_kept, layers.reuse_specs),
        "ratio",
    );
    out.push("service.run_overhead_ms", layers.overhead_ms / n, "ms");
    out.push("service.render_ms", layers.render_ms / n, "ms");
    out.push("service.render_bytes", layers.render_bytes as f64, "bytes");
    print_rows(&specs, &rows);
    push_exact(&mut out, &specs, &rows);
    if scale == Scale::Full {
        out.push(
            "trace.overhead_pct",
            (stats::geomean(&traced_ms) / stats::geomean(&plain_ms) - 1.0) * 100.0,
            "%",
        );
    }
    out
}
