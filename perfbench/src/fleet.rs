//! The `fleet` workload: execution on a 4-array least-worn fleet at one
//! thread, with every program compiled in set-up.
//!
//! Heavy (naive) and light (endurance-aware) programs of `div`, `voter`
//! and `dec` alternate in job streams with seeded random inputs. A round
//! is three batch calls, each on a fresh fleet: `Fleet::run_batch`,
//! `Fleet::run_batch_simd` on a much longer stream, and `run_batch` on a
//! recovering fleet (injected faults, remap and watchdog). No compiler
//! code runs while timing.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rlim_benchmarks::Benchmark;
use rlim_compiler::{compile, CompileOptions};
use rlim_mig::Mig;
use rlim_plim::{
    DispatchPolicy, Fleet, FleetConfig, Job, Machine, Program, RecoveryConfig, WideMachine,
};
use rlim_rram::variability::EnduranceModel;
use rlim_rram::FaultModel;

use crate::rng::Rng;
use crate::{push_latencies, stats, timed_setup, Outcome, Scale};

/// Stream tag of the fleet workload's generator.
const STREAM: u64 = 2;
/// The three program shapes.
const SHAPES: [Benchmark; 3] = [Benchmark::Div, Benchmark::Voter, Benchmark::Dec];
/// Arrays in every fleet.
const ARRAYS: usize = 4;
/// Jobs per batch of each kind, multiples of six so every batch holds
/// the same work whatever the seed. The sizes space the three calls
/// out (about 12, 55 and 95 ms on a 2-vCPU Xeon VM) so the tail over
/// calls does not sit where two kinds overlap.
const SCALAR_JOBS: usize = 24;
const RECOVER_JOBS: usize = 48;
const SIMD_JOBS: usize = 15_360;
/// The recovering fleet's device seed. The devices are part of the
/// workload, like the circuits, so they do not change with `--seed`.
const FAULT_SEED: u64 = 0x00C0_FFEE;
/// Jobs per stream checked against `Mig::evaluate`.
const CHECKED_JOBS: usize = 24;
/// Tail percentile over single batch calls.
const TAIL: f64 = 95.0;

/// One program shape: the graph and its two compiled programs.
struct Shape {
    mig: Mig,
    heavy: Program,
    light: Program,
}

/// One job of a stream: which shape, heavy or light, and its inputs.
struct JobInput {
    shape: usize,
    heavy: bool,
    inputs: Vec<bool>,
}

/// Everything set-up produces.
struct Setup {
    shapes: Vec<Shape>,
    scalar: Vec<JobInput>,
    simd: Vec<JobInput>,
    recover: Vec<JobInput>,
}

impl Setup {
    fn program(&self, job: &JobInput) -> &Program {
        let shape = &self.shapes[job.shape];
        if job.heavy {
            &shape.heavy
        } else {
            &shape.light
        }
    }

    fn jobs<'a>(&'a self, stream: &'a [JobInput]) -> Vec<Job<'a>> {
        stream
            .iter()
            .map(|j| Job::new(self.program(j), &j.inputs))
            .collect()
    }
}

/// `count` jobs alternating heavy and light and cycling through the
/// shapes, so every stream whose length is a multiple of six holds the
/// same work whatever the seed; only the inputs are random.
fn stream(shapes: &[Shape], rng: &mut Rng, count: usize) -> Vec<JobInput> {
    (0..count)
        .map(|i| {
            let shape = i / 2 % shapes.len();
            JobInput {
                shape,
                heavy: i % 2 == 0,
                inputs: rng.bits(shapes[shape].mig.num_inputs()),
            }
        })
        .collect()
}

fn setup(seed: u64, scale: Scale) -> Setup {
    let shapes: Vec<Shape> = SHAPES
        .iter()
        .map(|b| {
            let mig = b.build();
            let heavy = compile(&mig, &CompileOptions::naive()).program;
            let light = compile(&mig, &CompileOptions::endurance_aware()).program;
            Shape { mig, heavy, light }
        })
        .collect();
    let simd_jobs = match scale {
        Scale::Full => SIMD_JOBS,
        Scale::Sample => SIMD_JOBS / 8,
    };
    let mut rng = Rng::new(seed, STREAM);
    let scalar = stream(&shapes, &mut rng, SCALAR_JOBS);
    let simd = stream(&shapes, &mut rng, simd_jobs);
    let recover = stream(&shapes, &mut rng, RECOVER_JOBS);
    Setup {
        shapes,
        scalar,
        simd,
        recover,
    }
}

fn plain_fleet() -> Fleet {
    Fleet::new(FleetConfig::new(ARRAYS).with_policy(DispatchPolicy::LeastWorn))
}

/// A recovering fleet whose cells wear out and stick within one batch,
/// with enough spares that the fleet is never exhausted.
fn recovering_fleet() -> Fleet {
    let devices = EnduranceModel::new(20_000.0, 0.25);
    Fleet::new(
        FleetConfig::new(ARRAYS)
            .with_policy(DispatchPolicy::LeastWorn)
            .with_faults(FaultModel::new(devices, 0.01, FAULT_SEED))
            .with_recovery(RecoveryConfig::new().with_spares(64).with_max_faults(1024)),
    )
}

fn digest(outputs: &[Vec<bool>]) -> u64 {
    let mut hasher = DefaultHasher::new();
    outputs.hash(&mut hasher);
    hasher.finish()
}

/// Checks a seeded sample of a stream's outputs against `Mig::evaluate`.
fn sample_matches(
    setup: &Setup,
    stream: &[JobInput],
    outputs: &[Vec<bool>],
    rng: &mut Rng,
) -> bool {
    outputs.len() == stream.len()
        && (0..CHECKED_JOBS.min(stream.len())).all(|_| {
            let j = rng.below(stream.len());
            let job = &stream[j];
            outputs[j] == setup.shapes[job.shape].mig.evaluate(&job.inputs)
        })
}

/// The exact, timing-free outcome of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exact {
    scalar: u64,
    simd: u64,
    recover: u64,
    array_max_writes: u64,
    faults: u64,
    remaps: u64,
    retired: u64,
}

/// Wall times (seconds) and exact results of one round.
struct Round {
    scalar_s: f64,
    simd_s: f64,
    recover_s: f64,
    exact: Exact,
    ok: [bool; 3],
}

/// One round: the three batch calls, each on a fresh fleet. On the
/// first round (`first` is `None`) outputs are checked against the
/// graphs; later rounds must repeat the first bit for bit.
fn round(setup: &Setup, first: Option<&Exact>, rng: &mut Rng) -> Round {
    let scalar_jobs = setup.jobs(&setup.scalar);
    let simd_jobs = setup.jobs(&setup.simd);
    let recover_jobs = setup.jobs(&setup.recover);

    let mut fleet = plain_fleet();
    let t = Instant::now();
    let scalar = fleet.run_batch(&scalar_jobs, 1);
    let scalar_s = t.elapsed().as_secs_f64();
    let array_max_writes = (0..ARRAYS)
        .map(|i| fleet.total_writes(i))
        .max()
        .unwrap_or(0);

    let mut fleet = plain_fleet();
    let t = Instant::now();
    let simd = fleet.run_batch_simd(&simd_jobs, 1);
    let simd_s = t.elapsed().as_secs_f64();

    let mut fleet = recovering_fleet();
    let t = Instant::now();
    let recover = fleet.run_batch(&recover_jobs, 1);
    let recover_s = t.elapsed().as_secs_f64();
    let log = fleet.fault_log();

    let report = |what: &str, e: &dyn std::fmt::Display| eprintln!("fleet: {what}: {e}");
    let scalar = scalar.map_err(|e| report("scalar batch", &e)).ok();
    let simd = simd.map_err(|e| report("simd batch", &e)).ok();
    let recover = recover.map_err(|e| report("recovering batch", &e)).ok();
    let exact = Exact {
        scalar: scalar.as_deref().map_or(0, digest),
        simd: simd.as_deref().map_or(0, digest),
        recover: recover.as_deref().map_or(0, digest),
        array_max_writes,
        faults: log.total_faults(),
        remaps: log.remaps(),
        retired: log.retirements(),
    };
    let ok = match first {
        Some(first) => [
            scalar.is_some()
                && (exact.scalar, exact.array_max_writes) == (first.scalar, first.array_max_writes),
            simd.is_some() && exact.simd == first.simd,
            recover.is_some()
                && (exact.recover, exact.faults, exact.remaps, exact.retired)
                    == (first.recover, first.faults, first.remaps, first.retired),
        ],
        None => [
            scalar
                .as_deref()
                .is_some_and(|out| sample_matches(setup, &setup.scalar, out, rng)),
            simd.as_deref()
                .is_some_and(|out| sample_matches(setup, &setup.simd, out, rng)),
            // Recovered outputs must equal a fault-free run's.
            recover.as_ref().is_some_and(|rec| {
                exact.faults > 0
                    && plain_fleet().run_batch(&recover_jobs, 1).ok().as_ref() == Some(rec)
            }),
        ],
    };
    for (ok, what) in ok.iter().zip(["scalar", "simd", "recovering"]) {
        if !ok {
            eprintln!("fleet: {what} batch failed its check");
        }
    }
    Round {
        scalar_s,
        simd_s,
        recover_s,
        exact,
        ok,
    }
}

fn print_exact(exact: &Exact) {
    println!(
        "exact fleet array_max_writes={} faults={} remaps={} retired={} outputs={:016x}/{:016x}/{:016x}",
        exact.array_max_writes, exact.faults, exact.remaps, exact.retired,
        exact.scalar, exact.simd, exact.recover
    );
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (setup_s, setup) = timed_setup(|| setup(seed, Scale::Full));
    let mut rng = Rng::new(seed, STREAM + 100);
    let mut out = Outcome::default();
    let mut calls: [Vec<f64>; 3] = Default::default();
    let mut round_walls = Vec::new();
    let mut first: Option<Exact> = None;
    let start = Instant::now();
    loop {
        let r = round(&setup, first.as_ref(), &mut rng);
        for ok in r.ok {
            out.count(ok);
        }
        first.get_or_insert(r.exact);
        calls[0].push(r.scalar_s * 1e3);
        calls[1].push(r.simd_s * 1e3);
        calls[2].push(r.recover_s * 1e3);
        let wall = r.scalar_s + r.simd_s + r.recover_s;
        round_walls.push(wall);
        if start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    println!(
        "fleet rounds={} median_ms scalar={} simd={} recover={}",
        round_walls.len(),
        stats::median(&calls[0]),
        stats::median(&calls[1]),
        stats::median(&calls[2])
    );
    if let Some(exact) = &first {
        print_exact(exact);
    }
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    out.push("ops_per_s", 3.0 / stats::median(&round_walls), "1/s");
    push_latencies(&mut out, &calls, &calls.concat(), TAIL);
    out
}

/// The traced run: the batch calls, with each job replayed on a bare
/// `Machine` and each SIMD lane group on a bare `WideMachine`.
pub fn trace(seed: u64, _seconds: f64, scale: Scale) -> Outcome {
    let setup = setup(seed, scale);
    let mut rng = Rng::new(seed, STREAM + 100);
    let mut out = Outcome::default();
    let rounds = match scale {
        Scale::Full => 9,
        Scale::Sample => 3,
    };
    // Untraced reference rounds: the end-to-end loop as `run` drives it.
    let mut first: Option<Exact> = None;
    let mut plain_ms = Vec::new();
    for _ in 0..rounds {
        let r = round(&setup, first.as_ref(), &mut rng);
        out.count(r.ok.iter().all(|&ok| ok));
        first.get_or_insert(r.exact);
        plain_ms.push(r.scalar_s * 1e3);
    }

    // Replays of the scalar stream, one bare machine per program, and of
    // the SIMD stream in lane groups of up to 64 jobs sharing a program.
    let mut machines: Vec<(*const Program, Machine)> = Vec::new();
    let mut groups: Vec<(&Program, &Mig, Vec<&[bool]>)> = Vec::new();
    for shape in &setup.shapes {
        for program in [&shape.heavy, &shape.light] {
            machines.push((program, Machine::for_program(program)));
            let lanes: Vec<&[bool]> = setup
                .simd
                .iter()
                .filter(|j| std::ptr::eq(setup.program(j), program))
                .map(|j| j.inputs.as_slice())
                .collect();
            for chunk in lanes.chunks(64) {
                groups.push((program, &shape.mig, chunk.to_vec()));
            }
        }
    }
    let rm3: usize = setup
        .scalar
        .iter()
        .map(|j| setup.program(j).num_instructions())
        .sum();
    let lane_rm3: usize = groups
        .iter()
        .map(|(p, _, l)| p.num_instructions() * l.len())
        .sum();
    let (mut machine_ms, mut wide_ms) = (Vec::new(), Vec::new());
    for pass in 0..rounds {
        let t = Instant::now();
        let mut ok = true;
        for job in &setup.scalar {
            let program = setup.program(job);
            let (_, machine) = machines
                .iter_mut()
                .find(|(p, _)| std::ptr::eq(*p, program))
                .expect("one machine per program");
            let result = machine.run(program, &job.inputs);
            // The first pass checks outputs; later passes time only.
            if pass == 0 {
                ok &= result.is_ok_and(|o| o == setup.shapes[job.shape].mig.evaluate(&job.inputs));
            }
        }
        machine_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for (program, mig, lanes) in &groups {
            let result = WideMachine::for_program(program, lanes.len()).run(program, lanes);
            if pass == 0 {
                ok &= result.is_ok_and(|outs| outs[0] == mig.evaluate(lanes[0]));
            }
        }
        wide_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.count(ok);
    }

    // Traced rounds: the same calls, after the replays.
    let (mut scalar_ms, mut recover_ms) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let r = round(&setup, first.as_ref(), &mut rng);
        out.count(r.ok.iter().all(|&ok| ok));
        scalar_ms.push(r.scalar_s * 1e3);
        recover_ms.push(r.recover_s * 1e3);
    }
    let exact = first.expect("at least one round");
    print_exact(&exact);
    let machine = stats::median(&machine_ms);
    out.push("plim.machine_ns_per_rm3", machine * 1e6 / rm3 as f64, "ns");
    out.push(
        "plim.wide_ns_per_rm3",
        stats::median(&wide_ms) * 1e6 / lane_rm3 as f64,
        "ns",
    );
    out.push(
        "plim.fleet_overhead_ms",
        stats::median(&scalar_ms) - machine,
        "ms",
    );
    out.push("plim.recover_ms", stats::median(&recover_ms), "ms");
    out.push("plim.faults", exact.faults as f64, "count");
    out.push("plim.remaps", exact.remaps as f64, "count");
    out.push("plim.arrays_retired", exact.retired as f64, "count");
    out.push(
        "exact.array_max_writes",
        exact.array_max_writes as f64,
        "count",
    );
    if scale == Scale::Full {
        // Batch calls are timed from outside, so the spans add no work
        // inside them; this compares the traced rounds' scalar call with
        // the untraced reference rounds'.
        out.push(
            "trace.overhead_pct",
            (stats::median(&scalar_ms) / stats::median(&plain_ms) - 1.0) * 100.0,
            "%",
        );
    }
    out
}
