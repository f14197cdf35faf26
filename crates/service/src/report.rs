//! The structured answer to a [`crate::JobSpec`]: everything the paper's
//! tables, the CLI and the daemon print, as one typed value with a
//! stable JSON serialization.

use rlim_compiler::CompileOptions;
use rlim_plim::ArrayStats;
use rlim_rram::{FleetWriteStats, WriteStats};

use crate::json::Json;

/// JSON schema version stamped into every serialized report. Bump when a
/// key is added, removed or re-typed; the golden schema test pins the
/// current shape.
pub const REPORT_SCHEMA_VERSION: u64 = 6;

/// The circuit interface behind a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitSummary {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Majority gates of the loaded source: a benchmark or BLIF source
    /// counts only live gates (see [`crate::Source::load`]), an
    /// in-memory graph every gate it holds.
    pub gates: usize,
}

/// Device-lifetime projection from the compiled program's peak per-cell
/// write count, at a fixed per-cell endurance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeProjection {
    /// Assumed per-cell endurance (writes before failure).
    pub endurance: u64,
    /// Executions one array survives before its hottest cell fails.
    pub single_array_runs: u64,
    /// Fleet size assumed by `fleet_runs`.
    pub fleet_arrays: usize,
    /// Executions a fleet of `fleet_arrays` identical arrays absorbs
    /// before every array is exhausted.
    pub fleet_runs: u64,
}

/// Fault-injection outcome of a chaos-mode fleet workload: what the
/// fault model threw at the fleet and how recovery absorbed it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// The master fault seed the per-array models derived from.
    pub seed: u64,
    /// Median per-cell endurance of the injected device population.
    pub endurance_median: f64,
    /// Log-normal endurance spread of the injected device population.
    pub endurance_sigma: f64,
    /// Per-cell stuck-at fault probability of the injected population.
    pub stuck_probability: f64,
    /// Whether online recovery was enabled.
    pub recovery: bool,
    /// Total detected write faults (worn + stuck).
    pub faults: u64,
    /// Faults from cells exceeding their sampled endurance.
    pub worn: u64,
    /// Faults from stuck-at cells caught by write-verify readback.
    pub stuck: u64,
    /// Faults healed by remapping the broken cell to a spare row.
    pub remaps: u64,
    /// Arrays retired by the fault watchdog.
    pub retirements: u64,
    /// Broken physical cells across all live arrays.
    pub broken_cells: u64,
    /// The fault log, one rendered [`rlim_plim::FaultEvent`] per line
    /// (a bounded ring buffer; oldest events may have been dropped).
    pub events: Vec<String>,
}

/// Wear outcome of a fleet workload rider.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Number of arrays.
    pub arrays: usize,
    /// Dispatch policy label (`"round-robin"` / `"least-worn"`).
    pub dispatch: &'static str,
    /// Whether dispatch was SIMD-batched into word-level lane groups.
    pub simd: bool,
    /// Jobs dispatched.
    pub jobs: usize,
    /// `#I` of the heavy (naive) program in the alternating stream.
    pub heavy_instructions: usize,
    /// `#I` of the light program (the spec's own options).
    pub light_instructions: usize,
    /// Total write cost of the whole job stream.
    pub stream_writes: u64,
    /// Per-array jobs / writes / retirement, in array order.
    pub per_array: Vec<ArrayStats>,
    /// Fleet-level wear distributions.
    pub wear: FleetWriteStats,
    /// Arrays retired by the workload.
    pub retired: usize,
    /// Heavy jobs the fleet can still absorb within its write budget
    /// (`None` when unbudgeted).
    pub remaining_jobs: Option<u64>,
    /// Heavy jobs until the most-worn live array retires (`None` when
    /// unbudgeted).
    pub first_retirement_horizon: Option<u64>,
    /// Chaos-mode fault/recovery outcome; `None` on ideal devices.
    pub fault: Option<FaultSummary>,
    /// Wall-clock seconds the workload execution took. Excluded from the
    /// JSON serialization, which is fully deterministic.
    pub seconds: f64,
}

/// The structured result of one service job.
///
/// Everything a thin client needs to render the CLI's text output, a
/// table row or a JSON document — no client re-derives metrics from the
/// program. [`Report::to_json`] is the one stable serialization; its
/// field set is pinned by a golden schema test and versioned by
/// [`REPORT_SCHEMA_VERSION`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The source label (benchmark name or BLIF path).
    pub label: String,
    /// The backend that compiled and would execute the program.
    pub backend: &'static str,
    /// The compiler configuration the job ran with.
    pub options: CompileOptions,
    /// The circuit interface.
    pub circuit: CircuitSummary,
    /// `#I` — number of instructions.
    pub instructions: usize,
    /// `#R` — number of RRAM cells.
    pub rrams: usize,
    /// Total destination writes one execution performs.
    pub total_writes: u64,
    /// The per-cell write distribution (the paper's Table I metrics).
    pub writes: WriteStats,
    /// Device-lifetime projection at HfOx endurance.
    pub lifetime: LifetimeProjection,
    /// The program listing, when the spec requested it: parseable
    /// `.plim` assembly for RM3 backends, a disassembly for IMPLY.
    pub program: Option<String>,
    /// The fleet workload outcome, when the spec carried a rider.
    pub fleet: Option<FleetReport>,
    /// Whether this report was served from a compile cache instead of a
    /// fresh compile. Always `false` on reports straight out of
    /// [`crate::Service`]; the daemon flips it on cache hits, and it is
    /// the **only** field allowed to differ between a hit and the miss
    /// that populated the entry (the daemon's cache counters live in its
    /// `metrics` verb, not here, precisely to keep that guarantee).
    pub cached: bool,
    /// Wall-clock seconds the compilation took. Excluded from the JSON
    /// serialization, which is fully deterministic.
    pub seconds: f64,
}

fn write_stats_json(s: &WriteStats) -> Json {
    Json::object([
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("mean", Json::float(s.mean, 4)),
        ("stdev", Json::float(s.stdev, 4)),
        ("cells", Json::from(s.cells)),
    ])
}

fn fault_summary_json(f: &FaultSummary) -> Json {
    Json::object([
        ("seed", Json::from(f.seed)),
        ("endurance_median", Json::float(f.endurance_median, 1)),
        ("endurance_sigma", Json::float(f.endurance_sigma, 4)),
        ("stuck_probability", Json::float(f.stuck_probability, 4)),
        ("recovery", Json::from(f.recovery)),
        ("faults", Json::from(f.faults)),
        ("worn", Json::from(f.worn)),
        ("stuck", Json::from(f.stuck)),
        ("remaps", Json::from(f.remaps)),
        ("retirements", Json::from(f.retirements)),
        ("broken_cells", Json::from(f.broken_cells)),
        (
            "events",
            Json::Array(f.events.iter().map(|e| Json::from(e.as_str())).collect()),
        ),
    ])
}

fn fleet_wear_json(w: &FleetWriteStats) -> Json {
    Json::object([
        ("arrays", Json::from(w.arrays)),
        ("array_totals", write_stats_json(&w.array_totals)),
        ("array_peaks", write_stats_json(&w.array_peaks)),
        ("cells", write_stats_json(&w.cells)),
    ])
}

impl Report {
    /// The report as a JSON document (schema pinned by the golden test;
    /// wall-clock timings are deliberately excluded so serial and
    /// parallel batch runs serialize byte-identically).
    pub fn to_json(&self) -> Json {
        let policy = crate::options::policy_json(&self.options);
        let circuit = Json::object([
            ("inputs", Json::from(self.circuit.inputs)),
            ("outputs", Json::from(self.circuit.outputs)),
            ("gates", Json::from(self.circuit.gates)),
        ]);
        let lifetime = Json::object([
            ("endurance", Json::from(self.lifetime.endurance)),
            (
                "single_array_runs",
                Json::from(self.lifetime.single_array_runs),
            ),
            ("fleet_arrays", Json::from(self.lifetime.fleet_arrays)),
            ("fleet_runs", Json::from(self.lifetime.fleet_runs)),
        ]);
        let fleet = match &self.fleet {
            None => Json::Null,
            Some(f) => Json::object([
                ("arrays", Json::from(f.arrays)),
                ("dispatch", Json::from(f.dispatch)),
                ("simd", Json::Bool(f.simd)),
                ("jobs", Json::from(f.jobs)),
                ("heavy_instructions", Json::from(f.heavy_instructions)),
                ("light_instructions", Json::from(f.light_instructions)),
                ("stream_writes", Json::from(f.stream_writes)),
                (
                    "per_array",
                    Json::Array(
                        f.per_array
                            .iter()
                            .map(|a| {
                                Json::object([
                                    ("jobs", Json::from(a.jobs)),
                                    ("writes", Json::from(a.writes)),
                                    ("retired", Json::from(a.retired)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("wear", fleet_wear_json(&f.wear)),
                ("retired", Json::from(f.retired)),
                ("remaining_jobs", Json::from(f.remaining_jobs)),
                (
                    "first_retirement_horizon",
                    Json::from(f.first_retirement_horizon),
                ),
                (
                    "fault",
                    f.fault.as_ref().map_or(Json::Null, fault_summary_json),
                ),
            ]),
        };
        Json::object([
            ("schema", Json::from(REPORT_SCHEMA_VERSION)),
            ("label", Json::from(self.label.as_str())),
            ("backend", Json::from(self.backend)),
            ("policy", policy),
            ("circuit", circuit),
            ("instructions", Json::from(self.instructions)),
            ("rrams", Json::from(self.rrams)),
            ("total_writes", Json::from(self.total_writes)),
            ("writes", write_stats_json(&self.writes)),
            ("lifetime", lifetime),
            ("program", Json::from(self.program.as_deref())),
            ("fleet", fleet),
            ("cached", Json::Bool(self.cached)),
        ])
    }

    /// [`Report::to_json`] rendered to text, with a trailing newline.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().render();
        s.push('\n');
        s
    }
}
