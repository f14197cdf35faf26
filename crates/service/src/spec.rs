//! The typed job description: what to compile, through which backend,
//! with which options — and optionally which fleet workload to run.
//!
//! A [`JobSpec`] is built with a fluent builder and submitted to
//! [`crate::Service`]; every consumer of the toolchain (the CLI, the
//! daemon, the evaluation binaries, the benchmark harness, library
//! users) describes work in this one vocabulary instead of
//! hand-assembling compiler calls. [`JobSpec::validate`] is the one
//! statement of what a runnable job is, and [`Source::load`] the one way
//! a source becomes a graph.

use std::path::PathBuf;
use std::sync::Arc;

use rlim_benchmarks::Benchmark;
use rlim_compiler::CompileOptions;
use rlim_mig::rewrite::Pass;
use rlim_mig::{blif, Mig};
use rlim_plim::DispatchPolicy;

use crate::Error;

/// Where the circuit comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A named benchmark of the paper's 18-circuit suite.
    Benchmark(Benchmark),
    /// A BLIF netlist on disk, read and parsed by the service.
    BlifPath(PathBuf),
    /// An in-memory graph. Shared by `Arc` so one graph can back many
    /// specs (a parameter sweep) without cloning.
    Mig(Arc<Mig>),
}

impl PartialEq for Source {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Source::Benchmark(a), Source::Benchmark(b)) => a == b,
            (Source::BlifPath(a), Source::BlifPath(b)) => a == b,
            // In-memory graphs compare by identity: two specs are "the
            // same job" only when they share the same graph.
            (Source::Mig(a), Source::Mig(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Source {
    /// A short human-readable label: the benchmark name, the path, or
    /// `<mig>` for in-memory graphs.
    pub fn label(&self) -> String {
        match self {
            Source::Benchmark(b) => b.name().to_string(),
            Source::BlifPath(p) => p.display().to_string(),
            Source::Mig(_) => "<mig>".to_string(),
        }
    }

    /// The source's graph: a benchmark is built, a BLIF file read and
    /// parsed, an in-memory graph shared.
    ///
    /// A built or parsed graph comes back live-only: when some gate
    /// reaches no output, the graph is replaced by the rewrite's cleanup
    /// rebuild ([`Pass::Majority`]), which keeps the live gates node for
    /// node. So a benchmark and its BLIF export are one structure to the
    /// fingerprint, and a report counts only the gates its program
    /// computes. An in-memory graph is the caller's and is shared as
    /// given.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when a BLIF file cannot be read and
    /// [`Error::Blif`] when it does not parse.
    pub fn load(&self) -> Result<Arc<Mig>, Error> {
        let mig = match self {
            Source::Benchmark(b) => b.build(),
            Source::BlifPath(path) => {
                let label = path.display().to_string();
                let text =
                    std::fs::read_to_string(path).map_err(|e| Error::io(label.clone(), &e))?;
                blif::parse_blif(&text).map_err(|error| Error::Blif { path: label, error })?
            }
            Source::Mig(mig) => return Ok(Arc::clone(mig)),
        };
        let live = if Pass::Majority.proves_idle(&mig) {
            mig
        } else {
            Pass::Majority.run(&mig)
        };
        Ok(Arc::new(live))
    }
}

/// Which compile-and-execute flow serves the job: the RM3 compiler
/// (`compile_front`) for the three RM3 kinds, which share one program,
/// or IMPLY synthesis (`FrontEnd::imp_program`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The PLiM/RM3 flow through the standard pass pipeline (default).
    #[default]
    Rm3,
    /// The same RM3 programs, self-hosted in the crossbar and driven by
    /// the controller FSM.
    HostedRm3,
    /// The same RM3 programs, executed bit-parallel on the word-level
    /// machine (64 lanes per instruction, identical wear accounting).
    WideRm3,
    /// The material-implication (IMPLY) baseline.
    Imp,
}

impl BackendKind {
    /// The stable name used in reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Rm3 => "rm3",
            BackendKind::HostedRm3 => "hosted-rm3",
            BackendKind::WideRm3 => "rm3-wide",
            BackendKind::Imp => "imp",
        }
    }

    /// Every backend kind, in display order.
    pub fn all() -> &'static [BackendKind] {
        &[
            BackendKind::Rm3,
            BackendKind::HostedRm3,
            BackendKind::WideRm3,
            BackendKind::Imp,
        ]
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rm3" => Ok(BackendKind::Rm3),
            "hosted-rm3" => Ok(BackendKind::HostedRm3),
            "rm3-wide" => Ok(BackendKind::WideRm3),
            "imp" => Ok(BackendKind::Imp),
            other => Err(format!(
                "unknown backend `{other}` (rm3 | hosted-rm3 | rm3-wide | imp)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Chaos-mode parameters for a fleet workload: a device fault model
/// (per-cell endurance variability plus stuck-at faults, all derived
/// from one seed) and the online recovery policy that absorbs the
/// resulting write faults.
///
/// With `recovery` on (the default) the fleet remaps broken cells to
/// spare rows and retires arrays whose fault count crosses the
/// watchdog threshold; with it off, the first detected fault aborts the
/// workload — the naive baseline chaos mode exists to beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Master fault seed; per-array models derive deterministically.
    pub fault_seed: u64,
    /// Median per-cell endurance (writes before wear-out).
    pub endurance_median: f64,
    /// Log-normal endurance spread (`0.0` = every cell at the median).
    pub endurance_sigma: f64,
    /// Per-cell probability of carrying a latent stuck-at fault.
    pub stuck_probability: f64,
    /// Whether the fleet recovers online (remap + watchdog) instead of
    /// aborting on the first detected fault.
    pub recovery: bool,
    /// Spare rows available per array for remapping.
    pub spares: usize,
    /// Watchdog threshold: faults an array absorbs before retirement.
    pub max_faults: u64,
}

impl ChaosSpec {
    /// Chaos parameters for `fault_seed` with the standard demo device:
    /// median endurance 4096 writes, σ = 0.25, 1% stuck-at probability,
    /// recovery on with 8 spares and a 64-fault watchdog.
    pub fn new(fault_seed: u64) -> Self {
        ChaosSpec {
            fault_seed,
            endurance_median: 4096.0,
            endurance_sigma: 0.25,
            stuck_probability: 0.01,
            recovery: true,
            spares: 8,
            max_faults: 64,
        }
    }

    /// Sets the median per-cell endurance.
    pub fn with_endurance_median(mut self, median: f64) -> Self {
        self.endurance_median = median;
        self
    }

    /// Sets the log-normal endurance spread.
    pub fn with_endurance_sigma(mut self, sigma: f64) -> Self {
        self.endurance_sigma = sigma;
        self
    }

    /// Sets the per-cell stuck-at fault probability.
    pub fn with_stuck_probability(mut self, probability: f64) -> Self {
        self.stuck_probability = probability;
        self
    }

    /// Enables (or disables) online recovery.
    pub fn with_recovery(mut self, recovery: bool) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the per-array spare-row count.
    pub fn with_spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }

    /// Sets the watchdog's fault-count retirement threshold.
    pub fn with_max_faults(mut self, max_faults: u64) -> Self {
        self.max_faults = max_faults;
        self
    }
}

/// A fleet workload rider: run the compiled program (as the *light*
/// preset) interleaved with a naive-compiled *heavy* twin on a
/// multi-crossbar fleet, and report per-array wear.
///
/// The workload is the standard heterogeneous stream the whole workspace
/// evaluates with: `jobs` executions alternating heavy/light (heavy
/// first). With [`FleetSpec::input_seed`] unset every job drives the
/// all-false input vector; with a seed, each job gets ChaCha8-seeded
/// random inputs — byte-reproducible for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of crossbar arrays.
    pub arrays: usize,
    /// Number of jobs in the workload.
    pub jobs: usize,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Per-array total-write budget (the array-granular maximum write
    /// count strategy); `None` = unbounded.
    pub write_budget: Option<u64>,
    /// Seed for per-job random primary inputs; `None` drives all-false
    /// inputs on every job.
    pub input_seed: Option<u64>,
    /// Chaos mode: inject device faults (and, unless disabled, recover
    /// from them online); `None` runs on ideal devices.
    pub chaos: Option<ChaosSpec>,
}

impl FleetSpec {
    /// A fleet of `arrays` crossbars with least-worn dispatch, no budget
    /// and all-false job inputs.
    pub fn new(arrays: usize) -> Self {
        FleetSpec {
            arrays,
            jobs: 24,
            dispatch: DispatchPolicy::LeastWorn,
            write_budget: None,
            input_seed: None,
            chaos: None,
        }
    }

    /// Sets the job count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the dispatch policy.
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Sets the per-array write budget.
    pub fn with_write_budget(mut self, budget: u64) -> Self {
        self.write_budget = Some(budget);
        self
    }

    /// Seeds per-job random primary inputs.
    pub fn with_input_seed(mut self, seed: u64) -> Self {
        self.input_seed = Some(seed);
        self
    }

    /// Enables chaos mode: the fleet's devices follow `chaos`'s fault
    /// model, and (unless `chaos.recovery` is off) the fleet recovers
    /// online from the faults it detects.
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// Default array count used for the fleet-lifetime projection in every
/// [`crate::Report`].
pub const DEFAULT_PROJECTION_ARRAYS: usize = 4;

/// One typed request to the service: a circuit source, a backend, the
/// compiler configuration, and optional riders (program listing, fleet
/// workload, lifetime-projection fleet size).
///
/// # Examples
///
/// ```
/// use rlim_benchmarks::Benchmark;
/// use rlim_compiler::CompileOptions;
/// use rlim_service::{BackendKind, JobSpec};
///
/// let spec = JobSpec::benchmark(Benchmark::Int2float)
///     .with_options(CompileOptions::endurance_aware().with_effort(2))
///     .with_backend(BackendKind::Rm3);
/// assert_eq!(spec.label(), "int2float");
/// assert_eq!(spec.options().effort, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    source: Source,
    backend: BackendKind,
    options: CompileOptions,
    /// Boxed: most specs carry no rider, and inline it would more than
    /// double the size of every spec (88 → 192 bytes).
    fleet: Option<Box<FleetSpec>>,
    include_program: bool,
    projection_arrays: usize,
}

impl JobSpec {
    fn new(source: Source) -> Self {
        JobSpec {
            source,
            backend: BackendKind::Rm3,
            options: CompileOptions::endurance_aware(),
            fleet: None,
            include_program: false,
            projection_arrays: DEFAULT_PROJECTION_ARRAYS,
        }
    }

    /// A job over a named benchmark of the suite.
    pub fn benchmark(benchmark: Benchmark) -> Self {
        JobSpec::new(Source::Benchmark(benchmark))
    }

    /// A job over a benchmark looked up by name — the entry point for
    /// clients that receive names over a wire (argv, request bodies).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownBenchmark`] when `name` is not in the
    /// suite.
    pub fn named_benchmark(name: &str) -> Result<Self, Error> {
        name.parse::<Benchmark>()
            .map(JobSpec::benchmark)
            .map_err(|_| Error::UnknownBenchmark(name.to_string()))
    }

    /// A job over a BLIF netlist on disk.
    pub fn blif_path(path: impl Into<PathBuf>) -> Self {
        JobSpec::new(Source::BlifPath(path.into()))
    }

    /// A job over an in-memory graph.
    pub fn mig(mig: Mig) -> Self {
        JobSpec::new(Source::Mig(Arc::new(mig)))
    }

    /// A job over a shared in-memory graph; specs sharing one `Arc`
    /// compile the graph once per distinct option set.
    pub fn shared_mig(mig: Arc<Mig>) -> Self {
        JobSpec::new(Source::Mig(mig))
    }

    /// Selects the backend (default: [`BackendKind::Rm3`]).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the full compiler configuration (default:
    /// [`CompileOptions::endurance_aware`]).
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a fleet workload rider.
    pub fn with_fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(Box::new(fleet));
        self
    }

    /// Requests the program listing in the report (the parseable `.plim`
    /// assembly for RM3 backends, the disassembly for IMPLY).
    pub fn with_program_text(mut self, include: bool) -> Self {
        self.include_program = include;
        self
    }

    /// Sets the fleet size assumed by the report's lifetime projection
    /// (default [`DEFAULT_PROJECTION_ARRAYS`]).
    pub fn with_projection_arrays(mut self, arrays: usize) -> Self {
        self.projection_arrays = arrays;
        self
    }

    /// The same job over another source.
    pub fn with_source(mut self, source: Source) -> Self {
        self.source = source;
        self
    }

    /// Checks every rule a job must meet before any work is done on it.
    /// The service runs this before a batch, and the daemon before it
    /// keys or queues a job; the builders check nothing, so a spec from
    /// any client (argv, the wire, a struct literal) meets the same
    /// rules. Compile-option bounds are the option table's
    /// ([`crate::options`]) and are held when the options are set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] naming the first rule the spec
    /// breaks.
    pub fn validate(&self) -> Result<(), Error> {
        fn invalid(message: impl Into<String>) -> Result<(), Error> {
            Err(Error::InvalidRequest(message.into()))
        }
        if self.projection_arrays == 0 {
            return invalid("a lifetime projection needs at least one array");
        }
        let Some(fleet) = self.fleet() else {
            return Ok(());
        };
        if fleet.arrays == 0 {
            return invalid("a fleet needs at least one array");
        }
        if fleet.write_budget == Some(0) {
            return invalid("a fleet write budget must be at least 1");
        }
        if let Some(chaos) = &fleet.chaos {
            let median = chaos.endurance_median;
            if !(median.is_finite() && median > 0.0) {
                return invalid(format!(
                    "chaos endurance median must be finite and positive, got {median}"
                ));
            }
            let sigma = chaos.endurance_sigma;
            if !(sigma.is_finite() && sigma >= 0.0) {
                return invalid(format!(
                    "chaos endurance sigma must be finite and non-negative, got {sigma}"
                ));
            }
            let stuck = chaos.stuck_probability;
            if !(0.0..=1.0).contains(&stuck) {
                return invalid(format!(
                    "chaos stuck probability must be in [0, 1], got {stuck}"
                ));
            }
        }
        if self.backend == BackendKind::Imp {
            return invalid(
                "fleet workloads require an RM3 backend (the fleet executes RM3 programs)",
            );
        }
        Ok(())
    }

    /// The circuit source.
    pub fn source(&self) -> &Source {
        &self.source
    }

    /// The selected backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The compiler configuration.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The fleet rider, if any.
    pub fn fleet(&self) -> Option<&FleetSpec> {
        self.fleet.as_deref()
    }

    /// Whether the report will carry the program listing.
    pub fn includes_program(&self) -> bool {
        self.include_program
    }

    /// The lifetime projection's fleet size.
    pub fn projection_arrays(&self) -> usize {
        self.projection_arrays
    }

    /// The source's human-readable label (used as the report label).
    pub fn label(&self) -> String {
        self.source.label()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let spec = JobSpec::benchmark(Benchmark::Ctrl);
        assert_eq!(spec.backend(), BackendKind::Rm3);
        assert_eq!(spec.options(), &CompileOptions::endurance_aware());
        assert!(spec.fleet().is_none());
        assert!(!spec.includes_program());
        assert_eq!(spec.projection_arrays(), DEFAULT_PROJECTION_ARRAYS);
    }

    #[test]
    fn sources_compare_by_value_or_identity() {
        assert_eq!(
            JobSpec::benchmark(Benchmark::Div),
            JobSpec::benchmark(Benchmark::Div)
        );
        assert_ne!(
            JobSpec::benchmark(Benchmark::Div),
            JobSpec::benchmark(Benchmark::Ctrl)
        );
        assert_eq!(JobSpec::blif_path("a.blif"), JobSpec::blif_path("a.blif"));
        let mig = Arc::new(Mig::new(1));
        assert_eq!(
            JobSpec::shared_mig(Arc::clone(&mig)),
            JobSpec::shared_mig(Arc::clone(&mig))
        );
        // Distinct graphs are distinct jobs even if structurally equal.
        assert_ne!(JobSpec::mig(Mig::new(1)), JobSpec::mig(Mig::new(1)));
    }

    #[test]
    fn named_benchmark_lookup() {
        let spec = JobSpec::named_benchmark("ctrl").unwrap();
        assert_eq!(spec, JobSpec::benchmark(Benchmark::Ctrl));
        let err = JobSpec::named_benchmark("nonesuch").unwrap_err();
        assert_eq!(err, Error::UnknownBenchmark("nonesuch".into()));
        assert!(err.is_usage());
    }

    #[test]
    fn backend_names_roundtrip() {
        for &k in BackendKind::all() {
            assert_eq!(k.name().parse::<BackendKind>().unwrap(), k);
        }
        assert!("nonesuch".parse::<BackendKind>().is_err());
    }

    #[test]
    fn fleet_spec_builder() {
        let f = FleetSpec::new(4)
            .with_jobs(10)
            .with_dispatch(DispatchPolicy::RoundRobin)
            .with_write_budget(500)
            .with_input_seed(7);
        assert_eq!(f.arrays, 4);
        assert_eq!(f.jobs, 10);
        assert_eq!(f.dispatch, DispatchPolicy::RoundRobin);
        assert_eq!(f.write_budget, Some(500));
        assert_eq!(f.input_seed, Some(7));
        assert!(f.chaos.is_none());
    }

    #[test]
    fn chaos_spec_builder() {
        let c = ChaosSpec::new(7)
            .with_endurance_median(512.0)
            .with_endurance_sigma(0.4)
            .with_stuck_probability(0.05)
            .with_spares(3)
            .with_max_faults(10);
        assert_eq!(c.fault_seed, 7);
        assert_eq!(c.endurance_median, 512.0);
        assert_eq!(c.endurance_sigma, 0.4);
        assert_eq!(c.stuck_probability, 0.05);
        assert!(c.recovery);
        assert_eq!(c.spares, 3);
        assert_eq!(c.max_faults, 10);
        let naive = c.with_recovery(false);
        assert!(!naive.recovery);
        let f = FleetSpec::new(2).with_chaos(c);
        assert_eq!(f.chaos, Some(c));
    }

    /// One spec per rule [`JobSpec::validate`] holds, each breaking only
    /// that rule, with a fragment of the rule's error text.
    pub(crate) fn invalid_specs() -> Vec<(JobSpec, &'static str)> {
        let fleet = |f: FleetSpec| JobSpec::benchmark(Benchmark::Ctrl).with_fleet(f);
        let chaos = |c: ChaosSpec| FleetSpec::new(2).with_chaos(c);
        vec![
            (
                JobSpec::benchmark(Benchmark::Ctrl).with_projection_arrays(0),
                "lifetime projection needs at least one array",
            ),
            (fleet(FleetSpec::new(0)), "fleet needs at least one array"),
            (
                fleet(FleetSpec::new(2).with_write_budget(0)),
                "write budget must be at least 1",
            ),
            (
                fleet(chaos(ChaosSpec::new(1).with_endurance_median(-1.0))),
                "median must be finite and positive, got -1",
            ),
            (
                fleet(chaos(ChaosSpec::new(1).with_endurance_sigma(-0.5))),
                "sigma must be finite and non-negative, got -0.5",
            ),
            (
                fleet(chaos(ChaosSpec::new(1).with_stuck_probability(1.5))),
                "stuck probability must be in [0, 1], got 1.5",
            ),
            (
                fleet(FleetSpec::new(2)).with_backend(BackendKind::Imp),
                "require an RM3 backend",
            ),
        ]
    }

    #[test]
    fn validate_names_the_broken_rule() {
        for (spec, rule) in invalid_specs() {
            match spec.validate() {
                Err(Error::InvalidRequest(message)) => {
                    assert!(message.contains(rule), "{message:?} lacks {rule:?}")
                }
                other => panic!("{rule}: expected an invalid request, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_non_finite_chaos_floats() {
        let chaos = |c: ChaosSpec| {
            JobSpec::benchmark(Benchmark::Ctrl).with_fleet(FleetSpec::new(2).with_chaos(c))
        };
        for spec in [
            chaos(ChaosSpec::new(1).with_endurance_median(f64::NAN)),
            chaos(ChaosSpec::new(1).with_endurance_median(f64::INFINITY)),
            chaos(ChaosSpec::new(1).with_endurance_median(0.0)),
            chaos(ChaosSpec::new(1).with_endurance_sigma(f64::NAN)),
            chaos(ChaosSpec::new(1).with_endurance_sigma(f64::INFINITY)),
            chaos(ChaosSpec::new(1).with_stuck_probability(f64::NAN)),
            chaos(ChaosSpec::new(1).with_stuck_probability(-0.01)),
        ] {
            assert!(spec.validate().unwrap_err().is_usage(), "{spec:?}");
        }
    }

    #[test]
    fn validate_accepts_the_edges_of_every_range() {
        let chaos = ChaosSpec::new(1)
            .with_endurance_median(0.1)
            .with_endurance_sigma(0.0);
        for spec in [
            JobSpec::benchmark(Benchmark::Ctrl),
            JobSpec::benchmark(Benchmark::Ctrl)
                .with_projection_arrays(1)
                .with_backend(BackendKind::Imp),
            JobSpec::benchmark(Benchmark::Ctrl).with_fleet(
                FleetSpec::new(1)
                    .with_write_budget(1)
                    .with_chaos(chaos.with_stuck_probability(0.0)),
            ),
            JobSpec::benchmark(Benchmark::Ctrl)
                .with_backend(BackendKind::WideRm3)
                .with_fleet(FleetSpec::new(1).with_chaos(chaos.with_stuck_probability(1.0))),
        ] {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
        }
    }

    #[test]
    fn sources_load_their_graphs() {
        // ctrl carries dead gates: it loads as the cleanup rebuild.
        let built = Source::Benchmark(Benchmark::Ctrl).load().unwrap();
        let live = Pass::Majority.run(&Benchmark::Ctrl.build());
        assert_eq!(built.fingerprint(), live.fingerprint());
        assert!(live.num_gates() < Benchmark::Ctrl.build().num_gates());
        let shared = Arc::new(Mig::new(3));
        assert!(Arc::ptr_eq(
            &Source::Mig(Arc::clone(&shared)).load().unwrap(),
            &shared
        ));
        let missing = Source::BlifPath("/nonexistent/x.blif".into()).load();
        assert!(matches!(missing, Err(Error::Io { .. })), "{missing:?}");
    }

    #[test]
    fn with_source_keeps_every_other_field() {
        let spec = JobSpec::benchmark(Benchmark::Ctrl)
            .with_backend(BackendKind::HostedRm3)
            .with_program_text(true)
            .with_projection_arrays(7)
            .with_fleet(FleetSpec::new(3));
        let mig = Arc::new(Mig::new(2));
        let moved = spec.clone().with_source(Source::Mig(Arc::clone(&mig)));
        assert_eq!(
            moved,
            JobSpec::shared_mig(mig)
                .with_backend(BackendKind::HostedRm3)
                .with_program_text(true)
                .with_projection_arrays(7)
                .with_fleet(FleetSpec::new(3))
        );
        assert_eq!(moved.with_source(spec.source().clone()), spec);
    }
}
