//! The JSON-lines wire protocol: how a [`JobSpec`] travels to the
//! daemon and how every response travels back.
//!
//! One request is exactly one compact JSON line (see
//! [`Json::render_compact`]) terminated by `\n`; one response is exactly
//! one line back. A `job` request answers with a bare [`Report`]
//! document (recognizable by its `schema` key); every other response is
//! a single-key envelope — `rejected`, `error`, `metrics`, `healthz` or
//! `shutdown` — so a client can classify a line by its first key alone.
//!
//! The codec is a strict inverse pair: [`decode_spec`] accepts exactly
//! the documents [`encode_spec`] produces (any key order, but the exact
//! key set), and re-encoding a decoded spec reproduces the canonical
//! line byte-for-byte. That property is pinned by a proptest mirroring
//! the CLI's argv ↔ `JobSpec` round-trip. Chaos floats travel at fixed
//! precision, so both directions refuse a value that does not survive
//! rendering at it: a spec the wire would round cannot be sent, and a
//! hand-written line cannot name a fault model its own re-encoding
//! would not.
//!
//! The same encoding is the spec's identity in the daemon's compile
//! cache (see [`crate::cache_key`]): every field but the source, with
//! the backend replaced by its compile class.

use std::fmt::Display;

use rlim_rram::WriteStats;
use rlim_service::json::{self, Fields, Json};
use rlim_service::options;
use rlim_service::{
    BackendKind, ChaosSpec, CircuitSummary, Error, FleetSpec, JobSpec, LifetimeProjection, Report,
    Source,
};

use crate::metrics::{Health, MetricsSnapshot};

/// Decimal places used for the chaos floats on the wire (matches the
/// report's `fault` section: median at 1, spreads at 4).
const MEDIAN_PRECISION: usize = 1;
const SIGMA_PRECISION: usize = 4;

/// One request line, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"verb":"job","spec":…}` — compile (or hit the cache) and reply
    /// with one report line.
    Job(Box<JobSpec>),
    /// `{"verb":"metrics"}` — reply with a counters snapshot.
    Metrics,
    /// `{"verb":"healthz"}` — reply with a liveness probe.
    Healthz,
    /// `{"verb":"shutdown"}` — acknowledge, stop accepting, drain and
    /// exit.
    Shutdown,
}

/// One response line, classified and decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A bare report document (the answer to a `job` request).
    Report(ReportLine),
    /// The job was refused at admission: the queue is full (or the
    /// daemon is draining). In-flight jobs are unaffected.
    Rejected {
        /// Queued jobs at the moment of rejection.
        queue_depth: usize,
        /// The queue's admission limit.
        queue_capacity: usize,
        /// Why: `"job queue full"` or `"daemon is draining"`.
        message: String,
    },
    /// The request failed: malformed line, unknown benchmark, compile
    /// or fleet failure.
    Error {
        /// The failure text.
        message: String,
        /// Whether the request itself was wrong (the CLI's exit-code-2
        /// class) as opposed to an operational failure.
        usage: bool,
    },
    /// The counters snapshot answering a `metrics` request.
    Metrics(MetricsSnapshot),
    /// The liveness probe answering a `healthz` request.
    Healthz(Health),
    /// The acknowledgement of a `shutdown` request: the daemon has
    /// stopped accepting and is draining its queue.
    Shutdown,
}

/// A report as it came off the wire: the raw line plus its parsed tree.
///
/// Byte-level consumers (tests, `--json` passthrough) use
/// [`ReportLine::line`]; typed consumers call [`ReportLine::decode`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportLine {
    /// The exact response line (no trailing newline).
    pub line: String,
    /// The parsed document.
    pub json: Json,
}

fn invalid(message: impl Into<String>) -> Error {
    Error::InvalidRequest(message.into())
}

/// `value` if it survives rendering at `precision` decimal places, the
/// way the wire carries it.
fn exact(value: f64, precision: usize, path: impl Display) -> Result<f64, String> {
    if value.is_finite() && format!("{value:.precision$}").parse() == Ok(value) {
        Ok(value)
    } else {
        Err(format!(
            "{path}: {value} is not exact at {precision} decimal places"
        ))
    }
}

// ---- spec encoding ------------------------------------------------------

fn chaos_json(c: &ChaosSpec) -> Result<Json, String> {
    let float = |key: &str, value: f64, precision: usize| {
        exact(value, precision, format_args!("chaos.{key}")).map(|v| Json::float(v, precision))
    };
    Ok(Json::object([
        ("fault_seed", Json::from(c.fault_seed)),
        (
            "endurance_median",
            float("endurance_median", c.endurance_median, MEDIAN_PRECISION)?,
        ),
        (
            "endurance_sigma",
            float("endurance_sigma", c.endurance_sigma, SIGMA_PRECISION)?,
        ),
        (
            "stuck_probability",
            float("stuck_probability", c.stuck_probability, SIGMA_PRECISION)?,
        ),
        ("recovery", Json::from(c.recovery)),
        ("spares", Json::from(c.spares)),
        ("max_faults", Json::from(c.max_faults)),
    ]))
}

fn fleet_json(f: &FleetSpec) -> Result<Json, String> {
    Ok(Json::object([
        ("arrays", Json::from(f.arrays)),
        ("jobs", Json::from(f.jobs)),
        ("dispatch", Json::from(f.dispatch.label())),
        ("write_budget", Json::from(f.write_budget)),
        ("input_seed", Json::from(f.input_seed)),
        ("simd", Json::from(f.simd)),
        (
            "chaos",
            Json::from(f.chaos.as_ref().map(chaos_json).transpose()?),
        ),
    ]))
}

/// The spec object with `source` (when given) first and `backend` under
/// the given name.
fn spec_json(spec: &JobSpec, source: Option<Json>, backend: &str) -> Result<Json, Error> {
    let fleet = spec.fleet().map(fleet_json).transpose().map_err(invalid)?;
    let mut fields = Vec::with_capacity(6);
    fields.extend(source.map(|source| ("source", source)));
    fields.extend([
        ("backend", Json::from(backend)),
        ("options", options::to_json(spec.options())),
        ("fleet", Json::from(fleet)),
        ("program", Json::from(spec.includes_program())),
        ("projection_arrays", Json::from(spec.projection_arrays())),
    ]);
    Ok(Json::object(fields))
}

/// Encodes a spec as the wire's canonical `spec` object.
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] for in-memory [`Source::Mig`]
/// sources — a graph has no wire representation; send a benchmark name
/// or a BLIF path instead — and for a chaos float that is not exact at
/// its wire precision (one decimal for the endurance median, four for
/// the sigma and the stuck probability).
pub fn encode_spec(spec: &JobSpec) -> Result<Json, Error> {
    let source = match spec.source() {
        Source::Benchmark(b) => Json::object([("benchmark", Json::from(b.name()))]),
        Source::BlifPath(p) => Json::object([("blif", Json::from(p.display().to_string()))]),
        Source::Mig(_) => {
            return Err(invalid(
                "in-memory MIG sources cannot travel over the wire; \
                 send a benchmark name or a BLIF path",
            ))
        }
    };
    spec_json(spec, Some(source), spec.backend().name())
}

/// The compact encoding of everything in `spec` but its source, with the
/// backend replaced by its compile class: the spec's share of its
/// compile-cache identity.
///
/// # Errors
///
/// As [`encode_spec`], except that any source is accepted.
pub(crate) fn encode_identity(spec: &JobSpec) -> Result<String, Error> {
    spec_json(spec, None, spec.backend().class().name()).map(|doc| doc.render_compact())
}

/// Encodes a request as one compact wire line (no trailing newline).
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] when a job spec cannot be encoded
/// (see [`encode_spec`]).
pub fn encode_request(request: &Request) -> Result<String, Error> {
    let doc = match request {
        Request::Job(spec) => {
            Json::object([("verb", Json::from("job")), ("spec", encode_spec(spec)?)])
        }
        Request::Metrics => Json::object([("verb", Json::from("metrics"))]),
        Request::Healthz => Json::object([("verb", Json::from("healthz"))]),
        Request::Shutdown => Json::object([("verb", Json::from("shutdown"))]),
    };
    Ok(doc.render_compact())
}

// ---- spec decoding ------------------------------------------------------

fn decode_chaos(c: &Fields<'_>) -> Result<ChaosSpec, String> {
    c.expect_keys(&[
        "fault_seed",
        "endurance_median",
        "endurance_sigma",
        "stuck_probability",
        "recovery",
        "spares",
        "max_faults",
    ])?;
    let float = |key: &str, precision: usize| exact(c.f64(key)?, precision, c.path(key));
    Ok(ChaosSpec {
        fault_seed: c.u64("fault_seed")?,
        endurance_median: float("endurance_median", MEDIAN_PRECISION)?,
        endurance_sigma: float("endurance_sigma", SIGMA_PRECISION)?,
        stuck_probability: float("stuck_probability", SIGMA_PRECISION)?,
        recovery: c.bool("recovery")?,
        spares: c.usize("spares")?,
        max_faults: c.u64("max_faults")?,
    })
}

fn decode_fleet(f: &Fields<'_>) -> Result<FleetSpec, String> {
    f.expect_keys(&[
        "arrays",
        "jobs",
        "dispatch",
        "write_budget",
        "input_seed",
        "simd",
        "chaos",
    ])?;
    let arrays = f.usize("arrays")?;
    if arrays == 0 {
        return Err(format!("{} must be at least 1", f.path("arrays")));
    }
    Ok(FleetSpec {
        arrays,
        jobs: f.usize("jobs")?,
        dispatch: f.str("dispatch")?.parse()?,
        write_budget: f.opt("write_budget", |j, path| json::as_u64(j, path))?,
        input_seed: f.opt("input_seed", |j, path| json::as_u64(j, path))?,
        simd: f.bool("simd")?,
        chaos: f.opt("chaos", |j, path| decode_chaos(&Fields::of(j, path)?))?,
    })
}

/// Applies every field but `source` to `spec`.
fn decode_job(s: &Fields<'_>, spec: JobSpec) -> Result<JobSpec, String> {
    let projection_arrays = s.usize("projection_arrays")?;
    if projection_arrays == 0 {
        return Err(format!(
            "{} must be at least 1",
            s.path("projection_arrays")
        ));
    }
    let spec = spec
        .with_backend(s.str("backend")?.parse()?)
        .with_options(options::decode(&s.object("options")?, &[])?)
        .with_program_text(s.bool("program")?)
        .with_projection_arrays(projection_arrays);
    Ok(
        match s.opt("fleet", |j, path| decode_fleet(&Fields::of(j, path)?))? {
            Some(fleet) => spec.with_fleet(fleet),
            None => spec,
        },
    )
}

/// Decodes the wire's `spec` object back into a [`JobSpec`] — the exact
/// inverse of [`encode_spec`].
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] on shape violations (wrong types,
/// missing or unknown keys, out-of-range values, chaos floats that are
/// not exact at their wire precision) and [`Error::UnknownBenchmark`]
/// for benchmark names not in the suite.
pub fn decode_spec(json: &Json) -> Result<JobSpec, Error> {
    let s = Fields::of(json, "spec").map_err(invalid)?;
    s.expect_keys(&[
        "source",
        "backend",
        "options",
        "fleet",
        "program",
        "projection_arrays",
    ])
    .map_err(invalid)?;
    let spec = match s.object("source").map_err(invalid)?.entries() {
        [(key, value)] if key == "benchmark" => JobSpec::named_benchmark(
            json::as_str(value, "spec.source.benchmark").map_err(invalid)?,
        )?,
        [(key, value)] if key == "blif" => {
            JobSpec::blif_path(json::as_str(value, "spec.source.blif").map_err(invalid)?)
        }
        _ => {
            return Err(invalid(
                "spec.source must be exactly {\"benchmark\":NAME} or {\"blif\":PATH}",
            ))
        }
    };
    decode_job(&s, spec).map_err(invalid)
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] on anything that is not exactly one
/// well-formed request object — the daemon answers these with a
/// structured `error` line instead of dying or hanging.
pub fn decode_request(line: &str) -> Result<Request, Error> {
    let doc = json::parse(line).map_err(|e| invalid(format!("malformed request: {e}")))?;
    let r = Fields::of(&doc, "request").map_err(invalid)?;
    r.expect_keys(&["verb", "spec"]).map_err(invalid)?;
    let verb = r.str("verb").map_err(invalid)?;
    match verb {
        "job" => {
            let spec = decode_spec(r.field("spec").map_err(invalid)?)?;
            Ok(Request::Job(Box::new(spec)))
        }
        "metrics" | "healthz" | "shutdown" => {
            if r.entries().len() != 1 {
                return Err(invalid(format!("`{verb}` requests carry no other keys")));
            }
            Ok(match verb {
                "metrics" => Request::Metrics,
                "healthz" => Request::Healthz,
                _ => Request::Shutdown,
            })
        }
        other => Err(invalid(format!(
            "unknown verb `{other}` (job | metrics | healthz | shutdown)"
        ))),
    }
}

// ---- response encoding --------------------------------------------------

/// The `rejected` envelope: admission control refused the job.
pub fn rejected_line(queue_depth: usize, queue_capacity: usize, message: &str) -> String {
    Json::object([(
        "rejected",
        Json::object([
            ("queue_depth", Json::from(queue_depth)),
            ("queue_capacity", Json::from(queue_capacity)),
            ("message", Json::from(message)),
        ]),
    )])
    .render_compact()
}

/// The `error` envelope for a failed request.
pub fn error_line(error: &Error) -> String {
    Json::object([(
        "error",
        Json::object([
            ("message", Json::from(error.to_string())),
            ("usage", Json::from(error.is_usage())),
        ]),
    )])
    .render_compact()
}

/// The `metrics` envelope.
pub fn metrics_line(snapshot: &MetricsSnapshot) -> String {
    Json::object([("metrics", snapshot.to_json())]).render_compact()
}

/// The `healthz` envelope.
pub fn healthz_line(health: &Health) -> String {
    Json::object([("healthz", health.to_json())]).render_compact()
}

/// The `shutdown` acknowledgement envelope.
pub fn shutdown_line() -> String {
    Json::object([("shutdown", Json::object([("draining", Json::Bool(true))]))]).render_compact()
}

// ---- response decoding --------------------------------------------------

/// Classifies and decodes one response line.
///
/// # Errors
///
/// Returns [`Error::Run`] when the line is not valid JSON or not one of
/// the protocol's response shapes — a daemon bug or a non-daemon peer.
pub fn decode_response(line: &str) -> Result<Response, Error> {
    let doc = json::parse(line).map_err(|e| Error::Run(format!("malformed response line: {e}")))?;
    let Json::Object(entries) = &doc else {
        return Err(Error::Run("response is not a JSON object".to_string()));
    };
    if entries.iter().any(|(k, _)| k == "schema") {
        return Ok(Response::Report(ReportLine {
            line: line.to_string(),
            json: doc,
        }));
    }
    let envelope = |kind: &str, body: &Json| -> Result<Response, String> {
        let b = Fields::of(body, kind)?;
        Ok(match kind {
            "rejected" => Response::Rejected {
                queue_depth: b.usize("queue_depth")?,
                queue_capacity: b.usize("queue_capacity")?,
                message: b.str("message")?.to_string(),
            },
            "error" => Response::Error {
                message: b.str("message")?.to_string(),
                usage: b.bool("usage")?,
            },
            "metrics" => Response::Metrics(MetricsSnapshot::decode(&b)?),
            "healthz" => Response::Healthz(Health::decode(&b)?),
            _ => Response::Shutdown,
        })
    };
    match entries.as_slice() {
        [(kind, body)]
            if matches!(
                kind.as_str(),
                "rejected" | "error" | "metrics" | "healthz" | "shutdown"
            ) =>
        {
            envelope(kind, body)
                .map_err(|e| Error::Run(format!("malformed response envelope: {e}")))
        }
        _ => Err(Error::Run(
            "unrecognized response envelope (expected a report or one of \
             rejected/error/metrics/healthz/shutdown)"
                .to_string(),
        )),
    }
}

// ---- report decoding ----------------------------------------------------

impl ReportLine {
    /// Decodes the compile-side report fields back into a typed
    /// [`Report`].
    ///
    /// The `fleet` section is **not** reconstructed (it stays `None`) —
    /// fleet riders are batch/CLI workloads whose consumers read the
    /// JSON tree directly via [`ReportLine::json`]. `seconds` is always
    /// `0.0`: wall-clock timings never travel over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Run`] when the document does not have the pinned
    /// report schema.
    pub fn decode(&self) -> Result<Report, Error> {
        decode_report(&self.json).map_err(|e| Error::Run(format!("malformed report: {e}")))
    }
}

fn decode_report(doc: &Json) -> Result<Report, String> {
    let r = Fields::of(doc, "report")?;
    let schema = r.u64("schema")?;
    if schema != rlim_service::REPORT_SCHEMA_VERSION {
        return Err(format!(
            "report schema {schema} does not match this client (expected {})",
            rlim_service::REPORT_SCHEMA_VERSION
        ));
    }
    let backend: BackendKind = r.str("backend")?.parse()?;
    let circuit = r.object("circuit")?;
    let writes = r.object("writes")?;
    let lifetime = r.object("lifetime")?;
    let total_writes = r.u64("total_writes")?;
    Ok(Report {
        label: r.str("label")?.to_string(),
        backend: backend.name(),
        options: options::decode(&r.object("policy")?, &["preset"])?,
        circuit: CircuitSummary {
            inputs: circuit.usize("inputs")?,
            outputs: circuit.usize("outputs")?,
            gates: circuit.usize("gates")?,
        },
        instructions: r.usize("instructions")?,
        rrams: r.usize("rrams")?,
        total_writes,
        writes: WriteStats {
            min: writes.u64("min")?,
            max: writes.u64("max")?,
            mean: writes.f64("mean")?,
            stdev: writes.f64("stdev")?,
            cells: writes.usize("cells")?,
            total: total_writes,
        },
        lifetime: LifetimeProjection {
            endurance: lifetime.u64("endurance")?,
            single_array_runs: lifetime.u64("single_array_runs")?,
            fleet_arrays: lifetime.usize("fleet_arrays")?,
            fleet_runs: lifetime.u64("fleet_runs")?,
        },
        program: r.opt("program", |j, path| {
            json::as_str(j, path).map(str::to_string)
        })?,
        fleet: None,
        cached: r.bool("cached")?,
        seconds: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_benchmarks::Benchmark;
    use rlim_compiler::CompileOptions;
    use rlim_plim::DispatchPolicy;
    use rlim_service::Service;

    fn chaos_fleet_spec() -> JobSpec {
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_backend(BackendKind::HostedRm3)
            .with_options(CompileOptions::min_write().with_effort(2))
            .with_program_text(true)
            .with_projection_arrays(6)
            .with_fleet(
                FleetSpec::new(3)
                    .with_jobs(12)
                    .with_dispatch(DispatchPolicy::RoundRobin)
                    .with_write_budget(9000)
                    .with_input_seed(11)
                    .with_chaos(
                        ChaosSpec::new(7)
                            .with_endurance_median(512.0)
                            .with_endurance_sigma(0.375)
                            .with_stuck_probability(0.02),
                    ),
            )
    }

    #[test]
    fn spec_round_trip_is_exact() {
        for spec in [
            JobSpec::benchmark(Benchmark::Int2float),
            JobSpec::blif_path("/tmp/adder.blif").with_backend(BackendKind::Imp),
            chaos_fleet_spec(),
        ] {
            let line = encode_request(&Request::Job(Box::new(spec.clone()))).unwrap();
            let decoded = match decode_request(&line).unwrap() {
                Request::Job(decoded) => *decoded,
                other => panic!("expected a job request, got {other:?}"),
            };
            assert_eq!(decoded, spec);
            let again = encode_request(&Request::Job(Box::new(decoded))).unwrap();
            assert_eq!(again, line, "re-encoding is byte-identical");
        }
    }

    #[test]
    fn verbs_round_trip() {
        for (request, verb) in [
            (Request::Metrics, "{\"verb\":\"metrics\"}"),
            (Request::Healthz, "{\"verb\":\"healthz\"}"),
            (Request::Shutdown, "{\"verb\":\"shutdown\"}"),
        ] {
            let line = encode_request(&request).unwrap();
            assert_eq!(line, verb);
            assert_eq!(decode_request(&line).unwrap(), request);
        }
    }

    #[test]
    fn mig_specs_are_not_wire_expressible() {
        let spec = JobSpec::mig(rlim_mig::Mig::new(2));
        let err = encode_request(&Request::Job(Box::new(spec))).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
    }

    #[test]
    fn chaos_floats_must_be_exact_at_wire_precision() {
        // 0.25001 renders as 0.2500 at the sigma's four decimals: sent
        // as is, the daemon would run a different fault model.
        let sigma = |s: f64| {
            JobSpec::benchmark(Benchmark::Ctrl)
                .with_fleet(FleetSpec::new(2).with_chaos(ChaosSpec::new(1).with_endurance_sigma(s)))
        };
        let err = encode_request(&Request::Job(Box::new(sigma(0.25001)))).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
        assert!(err.to_string().contains("endurance_sigma"), "{err}");

        // A hand-written line naming that value does not re-encode to
        // itself, so the decoder refuses it too.
        let line = encode_request(&Request::Job(Box::new(sigma(0.25)))).unwrap();
        assert!(line.contains("\"endurance_sigma\":0.2500"), "{line}");
        let hand_written =
            line.replace("\"endurance_sigma\":0.2500", "\"endurance_sigma\":0.25001");
        let err = decode_request(&hand_written).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
        assert!(decode_request(&line).is_ok());
    }

    #[test]
    fn malformed_requests_are_usage_errors() {
        for garbage in [
            "",
            "not json",
            "{\"verb\":\"job\"}",
            "{\"verb\":\"launch\"}",
            "{\"verb\":\"metrics\",\"spec\":{}}",
            "{\"spec\":{}}",
            "{\"verb\":\"job\",\"spec\":{\"source\":{\"benchmark\":\"nonesuch\"}}}",
            "[1,2,3]",
            "{\"verb\":\"job\",\"spec\":{\"source\":{\"benchmark\":\"ctrl\"},\"backend\":\"rm3\",\"options\":{\"rewriting\":null,\"effort\":5,\"selection\":\"topological\",\"allocation\":\"lifo\",\"max_writes\":2,\"peephole\":false,\"copy_reuse\":false,\"esat\":false,\"esat_nodes\":50000,\"esat_iters\":4},\"fleet\":null,\"program\":false,\"projection_arrays\":4}}",
            "{\"verb\":\"job\",\"spec\":{\"source\":{\"benchmark\":\"ctrl\"},\"backend\":\"rm3\",\"options\":{\"rewriting\":null,\"effort\":5,\"selection\":\"topological\",\"allocation\":\"lifo\",\"max_writes\":null,\"peephole\":false,\"copy_reuse\":false,\"esat\":true,\"esat_nodes\":0,\"esat_iters\":4},\"fleet\":null,\"program\":false,\"projection_arrays\":4}}",
        ] {
            let err = decode_request(garbage).expect_err(garbage);
            assert!(err.is_usage(), "{garbage}: {err:?}");
        }
    }

    #[test]
    fn decode_rejects_unknown_and_missing_keys() {
        let mut line = encode_request(&Request::Job(Box::new(chaos_fleet_spec()))).unwrap();
        line = line.replace("\"jobs\":12", "\"jobs\":12,\"surprise\":1");
        assert!(decode_request(&line).unwrap_err().is_usage());
        let line = encode_request(&Request::Job(Box::new(chaos_fleet_spec())))
            .unwrap()
            .replace("\"recovery\":true,", "");
        assert!(decode_request(&line).unwrap_err().is_usage());
    }

    #[test]
    fn report_lines_decode_back_to_typed_reports() {
        let spec = JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::naive())
            .with_program_text(true);
        let report = Service::new().run(&spec).unwrap();
        let line = report.to_json().render_compact();
        let response = decode_response(&line).unwrap();
        let report_line = match response {
            Response::Report(r) => r,
            other => panic!("expected a report, got {other:?}"),
        };
        assert_eq!(report_line.line, line);
        let decoded = report_line.decode().unwrap();
        // Write statistics travel at the report's rendered precision, so
        // typed equality is checked through a re-render: decoding and
        // re-encoding must reproduce the exact line.
        assert_eq!(decoded.to_json().render_compact(), line);
        assert_eq!(decoded.label, report.label);
        assert_eq!(decoded.backend, report.backend);
        assert_eq!(decoded.instructions, report.instructions);
        assert_eq!(decoded.rrams, report.rrams);
        assert_eq!(decoded.program, report.program);
        assert_eq!(decoded.lifetime, report.lifetime);
        assert!(!decoded.cached);
    }

    #[test]
    fn response_envelopes_decode() {
        match decode_response(&rejected_line(4, 4, "job queue full")).unwrap() {
            Response::Rejected {
                queue_depth,
                queue_capacity,
                message,
            } => {
                assert_eq!((queue_depth, queue_capacity), (4, 4));
                assert_eq!(message, "job queue full");
            }
            other => panic!("{other:?}"),
        }
        match decode_response(&error_line(&Error::UnknownBenchmark("x".into()))).unwrap() {
            Response::Error { message, usage } => {
                assert_eq!(message, "unknown benchmark `x`");
                assert!(usage);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            decode_response(&shutdown_line()).unwrap(),
            Response::Shutdown
        );
        assert!(decode_response("{\"weird\":1}").is_err());
        assert!(decode_response("garbage").is_err());
    }
}
