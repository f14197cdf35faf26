//! The service-layer contract: the argv ↔ [`JobSpec`] round-trip, the
//! pinned [`Report`] JSON schema, and the batch determinism guarantee
//! (`run_batch` serial == parallel, order-stable).

use proptest::prelude::*;
use rlim::benchmarks::Benchmark;
use rlim::compiler::CompileOptions;
use rlim::service::json::Json;
use rlim::service::FleetSpec;
use rlim::{BackendKind, JobSpec, Service};
use rlim_cli::{parse_report_spec, report_argv};

// ---- Golden JSON schema ---------------------------------------------------

/// Flattens a JSON value into `path: type` lines, arrays described by
/// their first element. Key order is the serialization order, so the
/// golden below also pins field ordering.
fn schema_lines(value: &Json, path: &str, out: &mut Vec<String>) {
    match value {
        Json::Null => out.push(format!("{path}: null")),
        Json::Bool(_) => out.push(format!("{path}: bool")),
        Json::UInt(_) | Json::Int(_) => out.push(format!("{path}: int")),
        Json::Float { .. } => out.push(format!("{path}: float")),
        Json::Str(_) => out.push(format!("{path}: string")),
        Json::Array(items) => match items.first() {
            None => out.push(format!("{path}: array(empty)")),
            Some(first) => schema_lines(first, &format!("{path}[]"), out),
        },
        Json::Object(entries) => {
            for (key, value) in entries {
                schema_lines(value, &format!("{path}.{key}"), out);
            }
        }
    }
}

fn schema_of(report: &rlim::Report) -> String {
    let mut lines = Vec::new();
    schema_lines(&report.to_json(), "$", &mut lines);
    lines.join("\n")
}

/// The pinned schema of a plain (fleet-less, listing-less) report — what
/// `rlim report --json <benchmark>` emits. Bump
/// `rlim::service::REPORT_SCHEMA_VERSION` when this changes.
const REPORT_SCHEMA: &str = "\
$.schema: int
$.label: string
$.backend: string
$.policy.preset: string
$.policy.rewriting: null
$.policy.selection: string
$.policy.allocation: string
$.policy.effort: int
$.policy.max_writes: null
$.policy.peephole: bool
$.policy.copy_reuse: bool
$.policy.esat: bool
$.policy.esat_nodes: int
$.policy.esat_iters: int
$.circuit.inputs: int
$.circuit.outputs: int
$.circuit.gates: int
$.instructions: int
$.rrams: int
$.total_writes: int
$.writes.min: int
$.writes.max: int
$.writes.mean: float
$.writes.stdev: float
$.writes.cells: int
$.lifetime.endurance: int
$.lifetime.single_array_runs: int
$.lifetime.fleet_arrays: int
$.lifetime.fleet_runs: int
$.program: null
$.fleet: null
$.cached: bool";

/// The additional shape when a fleet rider ran and a listing was
/// requested: `program` becomes a string and `fleet` an object.
const FLEET_SCHEMA_SUFFIX: &str = "\
$.program: string
$.fleet.arrays: int
$.fleet.dispatch: string
$.fleet.jobs: int
$.fleet.heavy_instructions: int
$.fleet.light_instructions: int
$.fleet.stream_writes: int
$.fleet.per_array[].jobs: int
$.fleet.per_array[].writes: int
$.fleet.per_array[].retired: bool
$.fleet.wear.arrays: int
$.fleet.wear.array_totals.min: int
$.fleet.wear.array_totals.max: int
$.fleet.wear.array_totals.mean: float
$.fleet.wear.array_totals.stdev: float
$.fleet.wear.array_totals.cells: int
$.fleet.wear.array_peaks.min: int
$.fleet.wear.array_peaks.max: int
$.fleet.wear.array_peaks.mean: float
$.fleet.wear.array_peaks.stdev: float
$.fleet.wear.array_peaks.cells: int
$.fleet.wear.cells.min: int
$.fleet.wear.cells.max: int
$.fleet.wear.cells.mean: float
$.fleet.wear.cells.stdev: float
$.fleet.wear.cells.cells: int
$.fleet.retired: int
$.fleet.remaining_jobs: int
$.fleet.first_retirement_horizon: int
$.fleet.fault: null";

/// The chaos-mode expansion of that trailing `fault` null.
const CHAOS_SCHEMA_SUFFIX: &str = "\
$.fleet.fault.seed: int
$.fleet.fault.endurance_median: float
$.fleet.fault.endurance_sigma: float
$.fleet.fault.stuck_probability: float
$.fleet.fault.recovery: bool
$.fleet.fault.faults: int
$.fleet.fault.worn: int
$.fleet.fault.stuck: int
$.fleet.fault.remaps: int
$.fleet.fault.retirements: int
$.fleet.fault.broken_cells: int
$.fleet.fault.events[]: string";

/// The acceptance gate: `rlim report --json` on `div` matches the pinned
/// schema, and the schema is benchmark-independent.
#[test]
fn report_json_schema_is_pinned_on_div() {
    let spec = JobSpec::benchmark(Benchmark::Div).with_options(CompileOptions::naive());
    let report = Service::new().run(&spec).unwrap();
    assert_eq!(schema_of(&report), REPORT_SCHEMA);

    // The same schema serves every benchmark; a rewriting preset only
    // turns the `rewriting` null into a string.
    let other = JobSpec::benchmark(Benchmark::Int2float)
        .with_options(CompileOptions::endurance_aware().with_effort(1));
    let report = Service::new().run(&other).unwrap();
    assert_eq!(
        schema_of(&report),
        REPORT_SCHEMA.replace("$.policy.rewriting: null", "$.policy.rewriting: string")
    );
}

#[test]
fn report_json_schema_with_fleet_and_program() {
    let spec = JobSpec::benchmark(Benchmark::Ctrl)
        .with_options(CompileOptions::naive())
        .with_program_text(true)
        .with_fleet(
            FleetSpec::new(2)
                .with_jobs(6)
                .with_write_budget(100_000)
                .with_input_seed(7),
        );
    let report = Service::new().run(&spec).unwrap();
    // The base schema with its trailing `program`/`fleet` nulls replaced
    // by the expanded shapes.
    let base: Vec<&str> = REPORT_SCHEMA.lines().collect();
    assert_eq!(
        base[base.len() - 3..],
        ["$.program: null", "$.fleet: null", "$.cached: bool"]
    );
    let expect = format!(
        "{}\n{}\n$.cached: bool",
        base[..base.len() - 3].join("\n"),
        FLEET_SCHEMA_SUFFIX
    );
    assert_eq!(schema_of(&report), expect);
}

/// Chaos mode expands the fleet's trailing `fault` null into the fault
/// summary object (seed, fault-model parameters, detection/recovery
/// counters, and the rendered event log).
#[test]
fn report_json_schema_with_chaos_fleet() {
    let chaos = rlim::service::ChaosSpec::new(7)
        .with_endurance_median(160.0)
        .with_endurance_sigma(0.3)
        .with_stuck_probability(0.02);
    let spec = JobSpec::benchmark(Benchmark::Ctrl)
        .with_options(CompileOptions::endurance_aware().with_effort(1))
        .with_program_text(true)
        .with_fleet(FleetSpec::new(4).with_jobs(24).with_chaos(chaos));
    let report = Service::new().run(&spec).unwrap();
    let fault = report
        .fleet
        .as_ref()
        .and_then(|f| f.fault.as_ref())
        .expect("chaos fleet records a fault summary");
    assert!(!fault.events.is_empty(), "median-160 devices fault");
    let base: Vec<&str> = REPORT_SCHEMA.lines().collect();
    // Endurance-aware presets name a rewriting algorithm, the unbudgeted
    // fleet has null horizons, and chaos expands the `fault` null.
    let expect = format!(
        "{}\n{}\n$.cached: bool",
        base[..base.len() - 3].join("\n"),
        FLEET_SCHEMA_SUFFIX
            .replace(
                "$.fleet.remaining_jobs: int",
                "$.fleet.remaining_jobs: null"
            )
            .replace(
                "$.fleet.first_retirement_horizon: int",
                "$.fleet.first_retirement_horizon: null"
            )
            .replace("$.fleet.fault: null", CHAOS_SCHEMA_SUFFIX)
    )
    .replace("$.policy.rewriting: null", "$.policy.rewriting: string");
    assert_eq!(schema_of(&report), expect);
}

/// The exact `rlim report --json` text for a tiny deterministic job —
/// freezes value formatting (float precision, null rendering, nesting),
/// complementing the key/type pin above.
#[test]
fn report_json_golden_document() {
    let spec = JobSpec::benchmark(Benchmark::Int2float).with_options(CompileOptions::naive());
    let report = Service::new().run(&spec).unwrap();
    let json = report.to_json_string();
    for needle in [
        "\"schema\": 7,\n",
        "\"label\": \"int2float\",\n",
        "\"backend\": \"rm3\",\n",
        "\"preset\": \"naive\",\n",
        "\"rewriting\": null,\n",
        "\"endurance\": 10000000000,\n",
        "\"program\": null,\n",
        "\"fleet\": null,\n",
        "\"cached\": false\n",
    ] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }
    // Serialization is deterministic run to run.
    let again = Service::new().run(&spec).unwrap();
    assert_eq!(json, again.to_json_string());
}

// ---- Batch determinism ----------------------------------------------------

fn determinism_batch() -> Vec<JobSpec> {
    let mut specs = vec![
        JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive()),
        JobSpec::benchmark(Benchmark::Int2float)
            .with_options(CompileOptions::endurance_aware().with_effort(1)),
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::endurance_aware().with_effort(1))
            .with_backend(BackendKind::Imp),
        JobSpec::benchmark(Benchmark::Dec)
            .with_options(CompileOptions::min_write().with_effort(1))
            .with_program_text(true),
        JobSpec::benchmark(Benchmark::Int2float)
            .with_options(
                CompileOptions::endurance_aware()
                    .with_effort(1)
                    .with_copy_reuse(true),
            )
            .with_program_text(true),
        JobSpec::benchmark(Benchmark::Ctrl).with_options(
            CompileOptions::endurance_aware()
                .with_effort(1)
                .with_esat(true)
                .with_esat_nodes(4_000)
                .with_esat_iters(2),
        ),
    ];
    specs.push(
        JobSpec::benchmark(Benchmark::Router)
            .with_options(CompileOptions::endurance_aware().with_effort(1))
            .with_fleet(FleetSpec::new(3).with_jobs(9).with_input_seed(42)),
    );
    specs
}

/// The tentpole guarantee: a forced-serial batch and a parallel batch
/// serialize byte-identically, in spec order.
#[test]
fn run_batch_serial_equals_parallel_byte_identical() {
    let specs = determinism_batch();
    let serial: Vec<String> = Service::new()
        .with_threads(1)
        .run_batch(&specs)
        .unwrap()
        .iter()
        .map(|r| r.to_json_string())
        .collect();
    for threads in [0, 2, 8] {
        let parallel: Vec<String> = Service::new()
            .with_threads(threads)
            .run_batch(&specs)
            .unwrap()
            .iter()
            .map(|r| r.to_json_string())
            .collect();
        assert_eq!(serial, parallel, "threads={threads}");
    }
    // Order is stable: report labels follow spec order.
    assert_eq!(
        serial
            .iter()
            .map(|json| {
                json.lines()
                    .find(|l| l.contains("\"label\""))
                    .unwrap()
                    .to_string()
            })
            .collect::<Vec<_>>(),
        [
            "  \"label\": \"ctrl\",",
            "  \"label\": \"int2float\",",
            "  \"label\": \"ctrl\",",
            "  \"label\": \"dec\",",
            "  \"label\": \"int2float\",",
            "  \"label\": \"ctrl\",",
            "  \"label\": \"router\","
        ]
    );
}

// ---- argv ↔ JobSpec round-trip -------------------------------------------

fn preset_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("naive"),
        Just("plim21"),
        Just("min-write"),
        Just("ea-rewriting"),
        Just("endurance-aware"),
    ]
}

fn backend_strategy() -> impl Strategy<Value = BackendKind> {
    prop_oneof![
        Just(BackendKind::Rm3),
        Just(BackendKind::HostedRm3),
        Just(BackendKind::WideRm3),
        Just(BackendKind::Imp),
    ]
}

fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        0usize..18,
        preset_strategy(),
        backend_strategy(),
        (any::<bool>(), 0usize..10).prop_map(|(some, v)| some.then_some(v)),
        (any::<bool>(), 3u64..200).prop_map(|(some, v)| some.then_some(v)),
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        (
            any::<bool>(),
            (any::<bool>(), 1u32..100_000),
            (any::<bool>(), 1u32..9),
        ),
        1usize..9,
    )
        .prop_map(
            |(
                bench,
                preset,
                backend,
                effort,
                max_writes,
                (peephole, copy_reuse, program, blif),
                (esat, (esat_nodes_set, esat_nodes), (esat_iters_set, esat_iters)),
                arrays,
            )| {
                let mut options = CompileOptions::preset(preset).expect("canonical preset");
                if let Some(e) = effort {
                    options = options.with_effort(e);
                }
                if let Some(w) = max_writes {
                    options = options.with_max_writes(w);
                }
                options = options
                    .with_peephole(peephole)
                    .with_copy_reuse(copy_reuse)
                    .with_esat(esat);
                if esat_nodes_set {
                    options = options.with_esat_nodes(esat_nodes);
                }
                if esat_iters_set {
                    options = options.with_esat_iters(esat_iters);
                }
                let benchmark = Benchmark::all()[bench];
                let mut spec = if blif {
                    // Path sources round-trip too (the file need not exist
                    // to parse; the service opens it only at run time).
                    JobSpec::blif_path(format!("/tmp/{}.blif", benchmark.name()))
                } else {
                    JobSpec::benchmark(benchmark)
                };
                spec = spec
                    .with_backend(backend)
                    .with_options(options)
                    .with_program_text(program)
                    .with_projection_arrays(arrays);
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite: `argv → JobSpec → argv` is the identity on canonical
    /// argvs, and `JobSpec → argv → JobSpec` reconstructs the spec.
    #[test]
    fn report_argv_roundtrip(spec in spec_strategy()) {
        let argv = report_argv(&spec).expect("canonical specs have an argv");
        prop_assert_eq!(argv[0].as_str(), "report");
        let reparsed = parse_report_spec(&argv[1..]).expect("own argv parses");
        prop_assert_eq!(&reparsed, &spec);
        // Idempotence: the argv of the reparsed spec is the same argv.
        let argv2 = report_argv(&reparsed).expect("still canonical");
        prop_assert_eq!(argv, argv2);
    }
}

// ---- Daemon wire-protocol goldens -----------------------------------------

/// The exact request line for a plain job — one compact JSON object per
/// line is the daemon's entire framing, so these bytes are the protocol.
/// Bump deliberately alongside `REPORT_SCHEMA_VERSION`, never by
/// accident.
const JOB_REQUEST_GOLDEN: &str = "{\"verb\":\"job\",\"spec\":{\
\"source\":{\"benchmark\":\"ctrl\"},\
\"backend\":\"rm3\",\
\"options\":{\"rewriting\":null,\"effort\":0,\"selection\":\"topological\",\
\"allocation\":\"lifo\",\"max_writes\":null,\"peephole\":false,\
\"copy_reuse\":false,\"esat\":false,\"esat_nodes\":50000,\"esat_iters\":4},\
\"fleet\":null,\"program\":false,\"projection_arrays\":4}}";

/// The same spec with every rider attached: fleet, chaos (floats at
/// their report precisions), program listing and projection override.
const CHAOS_REQUEST_GOLDEN: &str = "{\"verb\":\"job\",\"spec\":{\
\"source\":{\"benchmark\":\"ctrl\"},\
\"backend\":\"rm3\",\
\"options\":{\"rewriting\":null,\"effort\":0,\"selection\":\"topological\",\
\"allocation\":\"lifo\",\"max_writes\":null,\"peephole\":false,\
\"copy_reuse\":false,\"esat\":false,\"esat_nodes\":50000,\"esat_iters\":4},\
\"fleet\":{\"arrays\":2,\"jobs\":6,\"dispatch\":\"least-worn\",\
\"write_budget\":null,\"input_seed\":7,\
\"chaos\":{\"fault_seed\":3,\"endurance_median\":4096.0,\
\"endurance_sigma\":0.2500,\"stuck_probability\":0.0100,\
\"recovery\":true,\"spares\":8,\"max_faults\":64}},\
\"program\":true,\"projection_arrays\":4}}";

/// Satellite: the wire protocol is pinned byte-for-byte — request lines,
/// control verbs and every response envelope. A daemon and a client
/// from different builds must agree on these exact strings.
#[test]
fn daemon_wire_protocol_is_pinned() {
    use rlim::daemon::{encode_request, Request};

    let plain = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());
    assert_eq!(
        encode_request(&Request::Job(Box::new(plain))).unwrap(),
        JOB_REQUEST_GOLDEN
    );

    let chaos = JobSpec::benchmark(Benchmark::Ctrl)
        .with_options(CompileOptions::naive())
        .with_program_text(true)
        .with_fleet(
            FleetSpec::new(2)
                .with_jobs(6)
                .with_input_seed(7)
                .with_chaos(rlim::service::ChaosSpec::new(3)),
        );
    assert_eq!(
        encode_request(&Request::Job(Box::new(chaos))).unwrap(),
        CHAOS_REQUEST_GOLDEN
    );

    assert_eq!(
        encode_request(&Request::Metrics).unwrap(),
        "{\"verb\":\"metrics\"}"
    );
    assert_eq!(
        encode_request(&Request::Healthz).unwrap(),
        "{\"verb\":\"healthz\"}"
    );
    assert_eq!(
        encode_request(&Request::Shutdown).unwrap(),
        "{\"verb\":\"shutdown\"}"
    );
}

/// The response side of the wire pin: envelopes and the metrics payload.
#[test]
fn daemon_response_envelopes_are_pinned() {
    use rlim::daemon::wire;
    use rlim::daemon::{CacheStats, Health, MetricsSnapshot};
    use rlim::service::FrontEndStats;
    use rlim::Error;

    assert_eq!(
        wire::rejected_line(8, 8, "job queue full"),
        "{\"rejected\":{\"queue_depth\":8,\"queue_capacity\":8,\
\"message\":\"job queue full\"}}"
    );
    assert_eq!(
        wire::error_line(&Error::UnknownBenchmark("nonesuch".into())),
        format!(
            "{{\"error\":{{\"message\":\"{}\",\"usage\":true}}}}",
            Error::UnknownBenchmark("nonesuch".into())
        )
    );
    assert_eq!(
        wire::healthz_line(&Health {
            ok: true,
            accepting: true,
            workers: 2,
            queue_depth: 0,
        }),
        "{\"healthz\":{\"ok\":true,\"accepting\":true,\"workers\":2,\"queue_depth\":0}}"
    );
    assert_eq!(wire::shutdown_line(), "{\"shutdown\":{\"draining\":true}}");

    let snapshot = MetricsSnapshot {
        uptime_ticks: 5,
        workers: 2,
        workers_busy: 1,
        queue_depth: 0,
        queue_capacity: 8,
        jobs_served: 3,
        jobs_failed: 0,
        jobs_rejected: 1,
        cache: CacheStats {
            entries: 2,
            capacity: 256,
            hits: 1,
            misses: 2,
            evictions: 0,
        },
        frontends: FrontEndStats {
            entries: 1,
            bytes: 5120,
            hits: 1,
            misses: 1,
            evictions: 0,
        },
    };
    assert_eq!(
        wire::metrics_line(&snapshot),
        "{\"metrics\":{\"uptime_ticks\":5,\"workers\":2,\"workers_busy\":1,\
\"queue_depth\":0,\"queue_capacity\":8,\"jobs_served\":3,\"jobs_failed\":0,\
\"jobs_rejected\":1,\"cache\":{\"entries\":2,\"capacity\":256,\"hits\":1,\
\"misses\":2,\"evictions\":0},\"frontends\":{\"entries\":1,\"bytes\":5120,\
\"hits\":1,\"misses\":1,\"evictions\":0}}}"
    );
}

/// Satellite: the canonical preset-name list is load-bearing vocabulary
/// (CLI `--policy`, wire options, cache keys, eval table columns) — pin
/// it so additions are deliberate, and check every name round-trips
/// through `preset`/`preset_name`.
#[test]
fn preset_names_are_pinned_and_round_trip() {
    assert_eq!(
        CompileOptions::preset_names(),
        &[
            "naive",
            "plim21",
            "min-write",
            "ea-rewriting",
            "endurance-aware"
        ]
    );
    for &name in CompileOptions::preset_names() {
        let preset = CompileOptions::preset(name).expect("canonical name resolves");
        assert_eq!(preset.preset_name(), Some(name));
        // Per-run modifiers never change the answer.
        assert_eq!(
            preset
                .with_peephole(true)
                .with_copy_reuse(true)
                .with_esat(true)
                .preset_name(),
            Some(name)
        );
    }
}

#[test]
fn argv_roundtrip_rejects_inexpressible_specs() {
    use rlim::mig::Mig;
    // In-memory sources have no command-line form.
    assert!(report_argv(&JobSpec::mig(Mig::new(1))).is_err());
    // Hand-rolled option sets match no preset.
    let custom = CompileOptions {
        rewriting: None,
        ..CompileOptions::endurance_aware()
    };
    let spec = JobSpec::benchmark(Benchmark::Ctrl).with_options(custom);
    assert!(report_argv(&spec).is_err());
    // Fleet riders belong to `rlim fleet`.
    let spec = JobSpec::benchmark(Benchmark::Ctrl).with_fleet(FleetSpec::new(2));
    assert!(report_argv(&spec).is_err());
}
