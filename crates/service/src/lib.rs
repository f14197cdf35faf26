//! # rlim-service — the typed job/report API in front of the toolchain
//!
//! Every consumer of the compiler used to reinvent its own entry point:
//! the CLI parsed strings straight into ad-hoc calls, the evaluation
//! binaries hand-assembled benchmark × preset matrices, and the bench
//! runner concatenated JSON by hand. This crate puts **one** typed
//! request/response API in front of the whole paper reproduction:
//!
//! * [`JobSpec`] — a builder-first job description: circuit source
//!   (named benchmark, BLIF path, in-memory MIG), backend selection,
//!   [`CompileOptions`] preset + overrides, optional [`FleetSpec`] rider;
//! * [`Service`] — runs specs ([`Service::run`]) or whole batches
//!   ([`Service::run_batch`]) on the workspace's scoped worker pool with
//!   deterministic ordering (serial and parallel runs are byte-identical);
//! * [`Report`] — the structured answer: programs, `#I` / `#R`,
//!   [`WriteStats`](rlim_rram::WriteStats), lifetime projections and
//!   fleet wear, with a stable JSON serialization through the in-tree
//!   [`json`] writer;
//! * [`Error`] — the one typed error every client maps to its own
//!   surface.
//!
//! The CLI, the daemon (`rlim-daemon`), `rlim-eval`'s table, sweep and
//! fleet binaries and the benchmark harness are thin clients of this
//! API. What a valid job is ([`JobSpec::validate`]) and how a source
//! becomes a graph ([`Source::load`]) are decided here, once, for all
//! of them.
//!
//! ## Example
//!
//! ```
//! use rlim_benchmarks::Benchmark;
//! use rlim_compiler::CompileOptions;
//! use rlim_service::{JobSpec, Service};
//!
//! let spec = JobSpec::benchmark(Benchmark::Int2float)
//!     .with_options(CompileOptions::endurance_aware().with_effort(1));
//! let report = Service::new().run(&spec)?;
//! assert!(report.instructions > 0);
//! assert_eq!(report.writes.cells, report.rrams);
//! # Ok::<(), rlim_service::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod lru;
pub mod options;

mod error;
mod frontends;
mod report;
mod spec;

pub use error::Error;
pub use frontends::{FrontEndStats, FrontEnds};
pub use report::{
    CircuitSummary, FaultSummary, FleetReport, LifetimeProjection, Report, REPORT_SCHEMA_VERSION,
};
pub use spec::{BackendKind, ChaosSpec, FleetSpec, JobSpec, Source, DEFAULT_PROJECTION_ARRAYS};

use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use rlim_compiler::{
    Backend, CompileOptions, FrontEnd, FrontKey, ImpBackend, Rm3Backend, Selection, WearSummary,
};
use rlim_imp::ImpOp;
use rlim_isa::Program;
use rlim_mig::Mig;
use rlim_plim::parallel::parallel_map;
use rlim_plim::{asm, Fleet, FleetConfig, Instruction, Job, RecoveryConfig};
use rlim_rram::lifetime::{executions_until_failure, ENDURANCE_HFOX};
use rlim_rram::variability::EnduranceModel;
use rlim_rram::FaultModel;

/// The service front end: compiles [`JobSpec`]s into [`Report`]s.
///
/// A `Service` is cheap to construct and stateless between calls; it
/// carries only run-wide configuration (worker threads). Lifetime
/// projections assume HfOx endurance ([`ENDURANCE_HFOX`], 10¹⁰
/// writes/cell). State that outlives a call, such as a [`FrontEnds`]
/// memo, belongs to the caller.
#[derive(Debug, Clone, Copy)]
pub struct Service {
    threads: usize,
}

impl Default for Service {
    fn default() -> Self {
        Service::new()
    }
}

/// The compile-flow a backend kind routes through: RM3, hosted-RM3 and
/// wide-RM3 execute the *same* compiled program, so they share one
/// compile entry — both in [`Service::run_batch`]'s in-batch dedup and
/// in the daemon's cross-request compile cache, whose key is
/// `(source fingerprint, CompileClass, CompileOptions, riders)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompileClass {
    /// The RM3 program pipeline (`rm3` / `hosted-rm3` / `rm3-wide`).
    Rm3,
    /// The material-implication baseline pipeline (`imp`).
    Imp,
}

impl CompileClass {
    /// The stable lowercase name used inside daemon cache keys.
    pub fn name(self) -> &'static str {
        match self {
            CompileClass::Rm3 => "rm3",
            CompileClass::Imp => "imp",
        }
    }
}

impl BackendKind {
    /// The compile class this backend routes through. Kinds with the
    /// same class always produce byte-identical programs for the same
    /// source and options.
    pub fn class(self) -> CompileClass {
        match self {
            BackendKind::Rm3 | BackendKind::HostedRm3 | BackendKind::WideRm3 => CompileClass::Rm3,
            BackendKind::Imp => CompileClass::Imp,
        }
    }
}

/// One compile, type-erased over the two instruction sets: its wear,
/// with the program only when it was compiled (a compile a front-end
/// slot answers has none).
enum Compiled {
    /// An RM3 compile, whose program fleets run and listings print.
    Rm3(WearSummary, Option<Program<Instruction>>),
    /// An IMPLY compile, whose program only listings read.
    Imp(WearSummary, Option<Program<ImpOp>>),
}

impl Compiled {
    /// What the report reads of the program.
    fn wear(&self) -> WearSummary {
        match self {
            Compiled::Rm3(wear, _) | Compiled::Imp(wear, _) => *wear,
        }
    }

    /// The program listing: parseable `.plim` assembly for RM3 (the
    /// format `rlim run` accepts back), a disassembly for IMPLY.
    fn listing(&self) -> String {
        const KEPT: &str = "a listed compile keeps its program";
        match self {
            Compiled::Rm3(_, p) => asm::to_text(p.as_ref().expect(KEPT)),
            Compiled::Imp(_, p) => p.as_ref().expect(KEPT).disassemble(),
        }
    }

    fn as_rm3(&self) -> &Program<Instruction> {
        match self {
            Compiled::Rm3(_, p) => p.as_ref().expect("a fleet's compiles keep their programs"),
            Compiled::Imp(..) => unreachable!("fleet jobs are validated to be RM3"),
        }
    }
}

/// The index of `item` in `items`, appending it first when absent: the
/// dedup behind every stage of a batch.
fn index_of<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|k| *k == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

impl Service {
    /// A service with default configuration: one worker per available
    /// core.
    pub fn new() -> Self {
        Service { threads: 0 }
    }

    /// Sets the worker-thread count for batch runs (and for the fleet
    /// rider of a single-spec run): `0` = one per available core, `1` =
    /// forced serial. Serial and parallel runs produce byte-identical
    /// reports.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured worker-thread count (`0` = one per core).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one job.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the spec is invalid, its source cannot be
    /// loaded, or its fleet workload fails.
    pub fn run(&self, spec: &JobSpec) -> Result<Report, Error> {
        let mut reports = self.run_batch(std::slice::from_ref(spec))?;
        Ok(reports.pop().expect("one report per spec"))
    }

    /// Runs a batch of jobs, returning one report per spec **in spec
    /// order**, independent of scheduling.
    ///
    /// The batch is executed in four deterministic stages on the
    /// workspace's scoped worker pool:
    ///
    /// 1. distinct sources are loaded once ([`Source::load`]; a parameter
    ///    sweep over one graph never rebuilds it);
    /// 2. distinct front ends — `(source, rewriting, effort)` — are
    ///    rewritten once, and each is scheduled once per selection policy
    ///    its RM3 jobs use ([`FrontEnd`]);
    /// 3. distinct (source, backend class, options) combinations are
    ///    compiled once from their front end (RM3, hosted-RM3 and wide-RM3
    ///    share entries); an IMPLY compile reads its wear from the front
    ///    end's slot for its allocation policy
    ///    ([`FrontEnd::imp_summary`]), synthesized once per front end, and
    ///    synthesizes a program only when one of its specs asks for the
    ///    listing. An RM3 compile no spec lists and no fleet rider runs
    ///    is answered from the front end's RM3 slot for its cap-free
    ///    options when that slot is filled and its cap, if any, is at or
    ///    above the slot's translated peak: the largest per-cell write
    ///    count over every program the uncapped compile translated, taken
    ///    before peephole ([`FrontEnd::rm3_summary`]). Such a cap cannot
    ///    bind, so the answer is the capped compile's. Every other RM3
    ///    compile translates, and an uncapped one fills its slot;
    /// 4. per-spec reports are assembled.
    ///
    /// So a table matrix rewrites each circuit once per rewriting however
    /// many back-end configurations it sweeps, and a forced-serial run
    /// (`with_threads(1)`) yields byte-identical serialized reports to a
    /// parallel one. Stage 2 finds front ends in a [`FrontEnds`] memo by
    /// their source's [`Mig::fingerprint`], so distinct sources that load
    /// to one structure (a benchmark and a copy of its graph) share them
    /// too. Here the memo is the call's own and lives only as long as the
    /// call, which keeps the service stateless; [`Service::run_batch_with`]
    /// takes the caller's instead. A report's `seconds` is the time its
    /// compile took in this call, the front-end stages it needed included
    /// (shared ones are charged to each compile that reads them; a front
    /// end found in a memo costs nothing).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for the first spec that fails
    /// [`JobSpec::validate`], before any work is done; otherwise the first
    /// failing spec's [`Error`] (in spec order).
    pub fn run_batch(&self, specs: &[JobSpec]) -> Result<Vec<Report>, Error> {
        self.run_batch_with(specs, &FrontEnds::new(usize::MAX))
    }

    /// [`Service::run_batch`] with stage 2 reading and filling the
    /// caller's `frontends` memo, so front ends carry over between calls.
    /// The reports are byte-identical to a [`Service::run_batch`]'s.
    ///
    /// # Errors
    ///
    /// As [`Service::run_batch`].
    pub fn run_batch_with(
        &self,
        specs: &[JobSpec],
        frontends: &FrontEnds,
    ) -> Result<Vec<Report>, Error> {
        for spec in specs {
            spec.validate()?;
        }

        // ---- Stage 1: load every distinct source once -------------------
        let mut sources: Vec<&Source> = Vec::new();
        let src_of: Vec<usize> = specs
            .iter()
            .map(|spec| index_of(&mut sources, spec.source()))
            .collect();
        let mut migs: Vec<Arc<Mig>> = Vec::with_capacity(sources.len());
        for result in parallel_map(sources, self.threads, |source| source.load()) {
            migs.push(result?);
        }

        // Every distinct (source, compile class, options) combination.
        type CompileKey = (usize, CompileClass, CompileOptions);
        let mut compile_keys: Vec<CompileKey> = Vec::new();
        let mut dedup = |key: CompileKey| index_of(&mut compile_keys, key);
        let mut main_of: Vec<usize> = Vec::with_capacity(specs.len());
        let mut heavy_of: Vec<Option<usize>> = Vec::with_capacity(specs.len());
        for (spec, &src) in specs.iter().zip(&src_of) {
            main_of.push(dedup((src, spec.backend().class(), *spec.options())));
            heavy_of.push(spec.fleet().map(|_| {
                // The fleet's heavy twin: the same circuit compiled naive.
                dedup((src, CompileClass::Rm3, CompileOptions::naive()))
            }));
        }
        // The compiles whose program some spec reads, for its listing or
        // its fleet: only these are never answered from a front-end slot.
        let mut keeps = vec![false; compile_keys.len()];
        for ((spec, &main), &heavy) in specs.iter().zip(&main_of).zip(&heavy_of) {
            keeps[main] |= spec.includes_program() || heavy.is_some();
            if let Some(heavy) = heavy {
                keeps[heavy] = true;
            }
        }

        // ---- Stage 2: rewrite and schedule every distinct front end once
        // Each compile's front end, and the (front end, selection) of its
        // schedule for the RM3 class (IMPLY synthesis schedules nothing).
        let mut front_keys: Vec<(usize, FrontKey)> = Vec::new();
        let mut schedule_keys: Vec<(usize, Selection)> = Vec::new();
        let mut front_of: Vec<(usize, Option<usize>)> = Vec::with_capacity(compile_keys.len());
        for &(src, class, options) in &compile_keys {
            let front = index_of(&mut front_keys, (src, FrontKey::of(&options)));
            let schedule = (class == CompileClass::Rm3)
                .then(|| index_of(&mut schedule_keys, (front, options.selection)));
            front_of.push((front, schedule));
        }
        let fronts: Vec<(Arc<FrontEnd>, f64)> =
            parallel_map(front_keys.clone(), self.threads, |(src, key)| {
                let start = Instant::now();
                let front = frontends.get(&migs[src], key);
                (front, start.elapsed().as_secs_f64())
            });
        let scheduled: Vec<f64> =
            parallel_map(schedule_keys, self.threads, |(front, selection)| {
                let start = Instant::now();
                let source = &migs[front_keys[front].0];
                frontends.schedule(source, &fronts[front].0, selection);
                start.elapsed().as_secs_f64()
            });

        // ---- Stage 3: compile every distinct job once from its front end
        let jobs: Vec<usize> = (0..compile_keys.len()).collect();
        let compiled: Vec<(Compiled, f64)> = parallel_map(jobs, self.threads, |i| {
            let (src, class, options) = &compile_keys[i];
            let (front, schedule) = front_of[i];
            let (front, front_seconds) = &fronts[front];
            let start = Instant::now();
            let program = match class {
                CompileClass::Rm3 => {
                    match (!keeps[i]).then(|| front.rm3_summary(options)).flatten() {
                        Some(wear) => Compiled::Rm3(wear, None),
                        None => {
                            let program = Rm3Backend.compile_front(front, options);
                            // An uncapped compile has just filled its slot with
                            // this program's summary, and grown its front end.
                            let wear = match options.max_writes {
                                None => {
                                    frontends.recharge(&migs[*src], front);
                                    front.rm3_summary(options).expect("filled by the compile")
                                }
                                Some(_) => WearSummary::of(&program),
                            };
                            Compiled::Rm3(wear, Some(program))
                        }
                    }
                }
                CompileClass::Imp if keeps[i] => {
                    let program = ImpBackend.compile_front(front, options);
                    Compiled::Imp(WearSummary::of(&program), Some(program))
                }
                CompileClass::Imp => Compiled::Imp(*front.imp_summary(options), None),
            };
            let seconds = start.elapsed().as_secs_f64()
                + front_seconds
                + schedule.map_or(0.0, |s| scheduled[s]);
            (program, seconds)
        });

        // ---- Stage 4: assemble reports, one per spec --------------------
        // A single-spec run gives its fleet rider the full worker pool;
        // in a batch the specs themselves are the parallel axis.
        let fleet_threads = if specs.len() == 1 { self.threads } else { 1 };
        let jobs: Vec<usize> = (0..specs.len()).collect();
        let assembled: Vec<Result<Report, Error>> = parallel_map(jobs, self.threads, |i| {
            self.assemble(
                &specs[i],
                &migs[src_of[i]],
                &compiled[main_of[i]],
                heavy_of[i].map(|h| &compiled[h].0),
                fleet_threads,
            )
        });
        assembled.into_iter().collect()
    }

    fn assemble(
        &self,
        spec: &JobSpec,
        mig: &Mig,
        main: &(Compiled, f64),
        heavy: Option<&Compiled>,
        fleet_threads: usize,
    ) -> Result<Report, Error> {
        let (program, seconds) = main;
        let wear = program.wear();
        let fleet_arrays = spec.projection_arrays();
        // Every array runs the same program, so the fleet's capacity
        // Σᵢ ⌊E / peakᵢ⌋ is `fleet_arrays` equal terms.
        let single_array_runs = executions_until_failure([wear.writes.max], ENDURANCE_HFOX);
        let lifetime = LifetimeProjection {
            endurance: ENDURANCE_HFOX,
            single_array_runs,
            fleet_arrays,
            fleet_runs: single_array_runs
                .saturating_mul(u64::try_from(fleet_arrays).unwrap_or(u64::MAX)),
        };
        let fleet = match spec.fleet() {
            None => None,
            Some(fs) => Some(self.run_fleet(
                fs,
                heavy.expect("fleet specs enqueue a heavy twin").as_rm3(),
                program.as_rm3(),
                mig.num_inputs(),
                fleet_threads,
            )?),
        };
        Ok(Report {
            label: spec.label(),
            backend: spec.backend().name(),
            options: *spec.options(),
            circuit: CircuitSummary {
                inputs: mig.num_inputs(),
                outputs: mig.num_outputs(),
                gates: mig.num_gates(),
            },
            instructions: wear.instructions,
            rrams: wear.rrams,
            total_writes: wear.total_writes,
            writes: wear.writes,
            lifetime,
            program: spec.includes_program().then(|| program.listing()),
            fleet,
            cached: false,
            seconds: *seconds,
        })
    }

    /// Runs the alternating heavy/light workload on a fresh fleet.
    fn run_fleet(
        &self,
        fs: &FleetSpec,
        heavy: &Program<Instruction>,
        light: &Program<Instruction>,
        num_inputs: usize,
        threads: usize,
    ) -> Result<FleetReport, Error> {
        // Build the job stream. With a seed, every job gets ChaCha8
        // random inputs (the eval fleet's seeded workload); without, all
        // jobs share the all-false vector (the CLI's workload).
        let shared_inputs = vec![false; num_inputs];
        let seeded_inputs: Vec<Vec<bool>> = match fs.input_seed {
            None => Vec::new(),
            Some(seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (0..fs.jobs)
                    .map(|_| (0..num_inputs).map(|_| rng.gen()).collect())
                    .collect()
            }
        };
        let jobs: Vec<Job<'_>> = (0..fs.jobs)
            .map(|i| {
                let program = if i % 2 == 0 { heavy } else { light };
                let inputs = if fs.input_seed.is_some() {
                    &seeded_inputs[i]
                } else {
                    &shared_inputs
                };
                Job::new(program, inputs)
            })
            .collect();
        let stream_writes: u64 = jobs.iter().map(Job::cost).sum();

        let mut config = FleetConfig::new(fs.arrays).with_policy(fs.dispatch);
        if let Some(budget) = fs.write_budget {
            config = config.with_write_budget(budget);
        }
        if let Some(chaos) = &fs.chaos {
            let devices = EnduranceModel::new(chaos.endurance_median, chaos.endurance_sigma);
            config = config.with_faults(FaultModel::new(
                devices,
                chaos.stuck_probability,
                chaos.fault_seed,
            ));
            if chaos.recovery {
                config = config.with_recovery(
                    RecoveryConfig::new()
                        .with_spares(chaos.spares)
                        .with_max_faults(chaos.max_faults),
                );
            }
        }
        let mut fleet = Fleet::new(config);
        let start = Instant::now();
        fleet.run_batch(&jobs, threads)?;
        let seconds = start.elapsed().as_secs_f64();

        let stats = fleet.stats();
        let cost = heavy.total_writes().max(light.total_writes());
        let fault = fs.chaos.as_ref().map(|chaos| {
            let log = fleet.fault_log();
            FaultSummary {
                seed: chaos.fault_seed,
                endurance_median: chaos.endurance_median,
                endurance_sigma: chaos.endurance_sigma,
                stuck_probability: chaos.stuck_probability,
                recovery: chaos.recovery,
                faults: log.total_faults(),
                worn: log.worn(),
                stuck: log.stuck(),
                remaps: log.remaps(),
                retirements: log.retirements(),
                broken_cells: (0..fs.arrays)
                    .map(|i| fleet.broken_cells(i).len() as u64)
                    .sum(),
                events: log.events().map(|e| e.to_string()).collect(),
            }
        });
        Ok(FleetReport {
            arrays: fs.arrays,
            dispatch: fs.dispatch.label(),
            jobs: fs.jobs,
            heavy_instructions: heavy.num_instructions(),
            light_instructions: light.num_instructions(),
            stream_writes,
            per_array: fleet.array_stats(),
            wear: stats.wear,
            retired: stats.retired,
            remaining_jobs: fleet.remaining_jobs(cost),
            first_retirement_horizon: fleet.first_retirement_horizon(cost),
            fault,
            seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_benchmarks::Benchmark;
    use rlim_compiler::compile;
    use rlim_plim::DispatchPolicy;

    #[test]
    fn report_matches_direct_compilation() {
        let options = CompileOptions::endurance_aware().with_effort(1);
        let spec = JobSpec::benchmark(Benchmark::Int2float).with_options(options);
        let report = Service::new().run(&spec).unwrap();
        let direct = compile(&Benchmark::Int2float.build(), &options);
        assert_eq!(report.instructions, direct.num_instructions());
        assert_eq!(report.rrams, direct.num_rrams());
        assert_eq!(report.writes, direct.write_stats());
        assert_eq!(report.total_writes, direct.total_writes());
        assert_eq!(report.label, "int2float");
        assert_eq!(report.backend, "rm3");
        assert_eq!(report.circuit.inputs, 11);
        assert_eq!(report.circuit.outputs, 7);
        assert!(report.lifetime.single_array_runs > 0);
        assert!(report.lifetime.fleet_runs >= report.lifetime.single_array_runs);
        assert!(report.program.is_none());
        assert!(report.fleet.is_none());
    }

    #[test]
    fn program_listing_is_the_parseable_assembly() {
        let spec = JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::naive())
            .with_program_text(true);
        let report = Service::new().run(&spec).unwrap();
        let text = report.program.expect("listing requested");
        let parsed = asm::parse_text(&text).expect("listing parses back");
        assert_eq!(parsed.num_instructions(), report.instructions);
    }

    #[test]
    fn imp_backend_reports_through_the_same_surface() {
        let spec = JobSpec::benchmark(Benchmark::Int2float)
            .with_options(CompileOptions::naive())
            .with_backend(BackendKind::Imp)
            .with_program_text(true);
        let report = Service::new().run(&spec).unwrap();
        assert_eq!(report.backend, "imp");
        assert!(report.instructions > 0);
        assert!(report.program.unwrap().contains("IMPLY"));
    }

    #[test]
    fn blif_sources_load_and_missing_files_error() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rlim-service-test-{}.blif", std::process::id()));
        std::fs::write(&path, ".inputs a b\n.outputs f\n.names a b f\n11 1\n").unwrap();
        let spec = JobSpec::blif_path(&path).with_options(CompileOptions::naive());
        let report = Service::new().run(&spec).unwrap();
        assert_eq!(report.circuit.inputs, 2);
        std::fs::remove_file(&path).unwrap();

        let err = Service::new()
            .run(&JobSpec::blif_path("/nonexistent/x.blif"))
            .unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err:?}");

        let bad = dir.join(format!("rlim-service-bad-{}.blif", std::process::id()));
        std::fs::write(&bad, ".inputs a\n.outputs f\n.latch a f\n").unwrap();
        let err = Service::new().run(&JobSpec::blif_path(&bad)).unwrap_err();
        assert!(matches!(err, Error::Blif { .. }), "{err:?}");
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn fleet_rider_reports_wear_and_budget() {
        let spec = JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::endurance_aware().with_effort(1))
            .with_fleet(
                FleetSpec::new(2)
                    .with_jobs(8)
                    .with_dispatch(DispatchPolicy::LeastWorn)
                    .with_write_budget(2000),
            );
        let report = Service::new().run(&spec).unwrap();
        let fleet = report.fleet.expect("fleet rider");
        assert_eq!(fleet.arrays, 2);
        assert_eq!(fleet.per_array.len(), 2);
        assert_eq!(fleet.jobs, 8);
        assert_eq!(
            fleet.per_array.iter().map(|a| a.jobs).sum::<u64>(),
            8,
            "every job dispatched"
        );
        assert!(fleet.remaining_jobs.is_some());
        assert!(fleet.first_retirement_horizon.is_some());
        assert_eq!(
            fleet.stream_writes,
            fleet.per_array.iter().map(|a| a.writes).sum::<u64>()
        );
    }

    #[test]
    fn chaos_fleet_reports_faults_and_recovers() {
        let chaos = ChaosSpec::new(7)
            .with_endurance_median(160.0)
            .with_endurance_sigma(0.3)
            .with_stuck_probability(0.02);
        let spec = JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::endurance_aware().with_effort(1))
            .with_fleet(FleetSpec::new(4).with_jobs(24).with_chaos(chaos));
        let report = Service::new().run(&spec).unwrap();
        let fleet = report.fleet.as_ref().expect("fleet rider");
        let fault = fleet.fault.as_ref().expect("chaos records a fault summary");
        assert_eq!(fault.seed, 7);
        assert!(fault.recovery);
        assert!(fault.faults > 0, "median-48 devices fault under 24 jobs");
        assert_eq!(fault.faults, fault.worn + fault.stuck);
        assert_eq!(fault.remaps + fault.retirements, fault.faults);
        assert_eq!(fault.events.len() as u64, fault.faults);
        assert_eq!(
            fleet.per_array.iter().map(|a| a.jobs).sum::<u64>(),
            24,
            "recovery completes the whole workload"
        );
        // Chaos runs are deterministic: the serialized report is stable.
        let again = Service::new().run(&spec).unwrap();
        assert_eq!(report.to_json_string(), again.to_json_string());
    }

    #[test]
    fn chaos_without_recovery_surfaces_the_fault_error() {
        let chaos = ChaosSpec::new(7)
            .with_endurance_median(160.0)
            .with_endurance_sigma(0.3)
            .with_stuck_probability(0.02)
            .with_recovery(false);
        let spec = JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::endurance_aware().with_effort(1))
            .with_fleet(FleetSpec::new(4).with_jobs(24).with_chaos(chaos));
        let err = Service::new().run(&spec).unwrap_err();
        assert!(matches!(err, Error::Fleet(_)), "{err:?}");
    }

    #[test]
    fn invalid_specs_are_refused_before_any_work() {
        for (spec, rule) in spec::tests::invalid_specs() {
            let err = Service::new().run(&spec).unwrap_err();
            assert_eq!(err, spec.validate().unwrap_err(), "{rule}");
            assert!(matches!(err, Error::InvalidRequest(_)), "{rule}: {err:?}");
            // One invalid spec fails its whole batch, wherever it sits.
            let batch = [JobSpec::benchmark(Benchmark::Ctrl), spec];
            assert_eq!(Service::new().run_batch(&batch).unwrap_err(), err);
        }
    }

    #[test]
    fn exhausted_fleet_surfaces_the_typed_error() {
        let spec = JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::naive())
            .with_fleet(FleetSpec::new(1).with_jobs(4).with_write_budget(10));
        let err = Service::new().run(&spec).unwrap_err();
        assert!(matches!(err, Error::Fleet(_)), "{err:?}");
    }

    #[test]
    fn batch_reports_come_back_in_spec_order() {
        let specs = vec![
            JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive()),
            JobSpec::benchmark(Benchmark::Int2float).with_options(CompileOptions::naive()),
            JobSpec::benchmark(Benchmark::Ctrl)
                .with_options(CompileOptions::endurance_aware().with_effort(1)),
        ];
        let reports = Service::new().run_batch(&specs).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].label, "ctrl");
        assert_eq!(reports[1].label, "int2float");
        assert_eq!(reports[2].label, "ctrl");
        assert_ne!(reports[0].instructions, reports[2].instructions);
    }

    /// `fleet_runs` is one saturating product, equal to the sum of
    /// `projection_arrays` equal terms it replaces, and answered at once
    /// for any array count.
    #[test]
    fn lifetime_projection_is_one_saturating_product() {
        use rlim_rram::lifetime::fleet_executions_until_exhaustion;
        let spec = JobSpec::benchmark(Benchmark::Ctrl);
        for arrays in [1, 2, 7, 4096] {
            let report = Service::new()
                .run(&spec.clone().with_projection_arrays(arrays))
                .unwrap();
            let summed = fleet_executions_until_exhaustion(
                std::iter::repeat_n(report.writes.max, arrays),
                ENDURANCE_HFOX,
            );
            assert_eq!(report.lifetime.fleet_runs, summed, "{arrays} arrays");
        }
        let huge = Service::new()
            .run(&spec.with_projection_arrays(usize::MAX))
            .unwrap()
            .lifetime;
        assert_eq!((huge.fleet_arrays, huge.fleet_runs), (usize::MAX, u64::MAX));
    }

    /// IMPLY specs that differ only in options synthesis ignores read
    /// one front-end slot, and a compile keeps its program when any of
    /// its specs lists it: the reports equal per-spec runs, and only a
    /// listed spec carries a listing.
    #[test]
    fn imp_compiles_read_their_front_end_summary() {
        let preset = CompileOptions::endurance_aware();
        let imp = |options: CompileOptions| {
            JobSpec::benchmark(Benchmark::Int2float)
                .with_backend(BackendKind::Imp)
                .with_options(options)
        };
        let specs = [
            imp(preset).with_program_text(true),
            imp(preset),
            imp(preset.with_max_writes(3)),
            imp(preset.with_copy_reuse(true)),
            imp(preset.with_peephole(true)),
            imp(CompileOptions {
                allocation: rlim_compiler::Allocation::Lifo,
                ..preset
            }),
        ];
        let reports = Service::new().with_threads(2).run_batch(&specs).unwrap();
        for (spec, report) in specs.iter().zip(&reports) {
            let alone = Service::new().with_threads(1).run(spec).unwrap();
            assert_eq!(report.to_json_string(), alone.to_json_string(), "{spec:?}");
            assert_eq!(report.program.is_some(), spec.includes_program());
        }
        let program = ImpBackend.compile(&Benchmark::Int2float.build(), &preset);
        assert_eq!(reports[1].writes, program.write_stats());
        assert_eq!(reports[1].instructions, program.num_instructions());
    }

    #[test]
    fn shared_mig_sweep_compiles_each_option_set_once() {
        let mig = Arc::new(Benchmark::Int2float.build());
        let specs: Vec<JobSpec> = [3u64, 4, 5]
            .iter()
            .map(|&w| {
                JobSpec::shared_mig(Arc::clone(&mig))
                    .with_options(CompileOptions::naive().with_max_writes(w))
            })
            .collect();
        let reports = Service::new().run_batch(&specs).unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.writes.max <= r.options.max_writes.unwrap());
        }
    }
}
