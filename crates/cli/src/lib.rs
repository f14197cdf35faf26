//! Implementation of the `rlim` command-line tool.
//!
//! The binary front end is a thin wrapper around [`run`]; everything —
//! argument parsing, command dispatch, output formatting — lives in the
//! library so it can be tested without spawning processes. The CLI is a
//! **thin client of [`rlim_service`]**: each compiling subcommand maps
//! its argv onto a [`JobSpec`], submits it to a [`Service`], and formats
//! the returned [`Report`].
//!
//! The commands and their flags are listed in [`USAGE`]. The compile
//! options come from `rlim_service::options`, the table the wire and
//! the report's policy block read too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use rlim_benchmarks::Benchmark;
use rlim_compiler::CompileOptions;
use rlim_plim::{asm, Machine, Program};
use rlim_rram::{WearMap, WriteStats};
use rlim_service::json::Json;
use rlim_service::options::{self, Flag, OptionRow};
use rlim_service::{BackendKind, ChaosSpec, Error, FleetSpec, JobSpec, Report, Service, Source};

/// A command-line failure: message for stderr plus the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable explanation.
    pub message: String,
    /// Process exit code (2 = usage, 1 = operational).
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn run(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Service errors map onto the CLI's exit-code split: invalid requests
/// are usage errors (2), everything else is operational (1).
impl From<Error> for CliError {
    fn from(e: Error) -> Self {
        if e.is_usage() {
            CliError::usage(e.to_string())
        } else {
            CliError::run(e.to_string())
        }
    }
}

/// The reverse bridge, so service-level code can absorb CLI failures
/// without flattening their usage/operational distinction.
impl From<CliError> for Error {
    fn from(e: CliError) -> Self {
        if e.code == 2 {
            Error::InvalidRequest(e.message)
        } else {
            Error::Run(e.message)
        }
    }
}

/// Usage text printed on `--help` or argument errors.
pub const USAGE: &str = "\
rlim — endurance-aware logic-in-memory toolchain (DATE 2017 reproduction)

usage:
  rlim compile <circuit.blif> [--policy P] [--max-writes W] [--effort N] [--peephole]
               [--copy-reuse] [--esat] [--esat-nodes N] [--esat-iters N] [-o out.plim]
  rlim report  <benchmark|circuit.blif> [--policy P] [--max-writes W] [--effort N]
               [--peephole] [--copy-reuse] [--esat] [--esat-nodes N] [--esat-iters N]
               [--backend B] [--arrays N] [--program] [--json] [--remote ADDR]
  rlim run     <prog.plim> --inputs <bits>
  rlim stats   <prog.plim> [--wear-map]
  rlim bench   <benchmark> [--policy P] [--max-writes W] [--effort N] [--peephole]
               [--copy-reuse] [--esat] [--esat-nodes N] [--esat-iters N] [-o out.plim]
  rlim fleet   <benchmark> [--arrays N] [--jobs J] [--dispatch D] [--write-budget W]
               [--effort N] [--threads N]
               [--chaos] [--fault-seed N] [--no-recovery]
  rlim serve   [--addr A] [--workers N] [--queue-depth D] [--cache-capacity C]
               [--watch-stdin]
  rlim daemon  <addr> <metrics|healthz|shutdown>
  rlim list

policies: naive | plim21 | min-write | ea-rewriting | endurance-aware (default)
backends: rm3 (default) | hosted-rm3 | rm3-wide | imp
dispatch: round-robin | least-worn (default)
--peephole runs the write-elision pass (never increases #I or any cell's writes)
--copy-reuse turns on copy discovery: the translator reads values already
        live in cells instead of re-materialising them, and keeps the reuse
        schedule only when it is no worse on #I, max writes and stdev
--esat runs equality saturation after the greedy rewriting fixed point: the Ω
        rules saturate an e-graph and the cheapest realization is extracted;
        the result is kept only when it is no worse on #I, max writes and
        stdev (--esat-nodes / --esat-iters bound the saturation)
--chaos injects seeded device faults (endurance variability + stuck-at cells);
        the fleet remaps broken cells to spares and retires faulty arrays,
        unless --no-recovery turns the healing off (first fault then aborts)
--json renders the report through the service's stable JSON schema
--remote submits the report job to a running `rlim serve` daemon instead of
        compiling in-process; repeat jobs come from the daemon's compile cache
        (`\"cached\": true` in --json output)
`rlim serve` prints `rlimd listening on <addr>` (with the OS-chosen port when
        --addr ends in :0) and runs until a shutdown request drains it
--watch-stdin additionally shuts the daemon down when stdin reaches EOF, so a
        supervisor can manage it through a pipe
";

/// Runs the tool on `args` (without the program name), returning the text
/// to print on stdout.
///
/// # Errors
///
/// Returns [`CliError`] with a usage or operational message.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("compile") => cmd_compile(
            &args[1..],
            |path| Ok(JobSpec::blif_path(path)),
            "compile needs exactly one BLIF file",
        ),
        Some("report") => cmd_report(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("bench") => cmd_compile(
            &args[1..],
            benchmark_spec,
            "bench needs exactly one benchmark name (see `rlim list`)",
        ),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("daemon") => cmd_daemon(&args[1..]),
        Some("list") => Ok(cmd_list()),
        Some("--help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

type Args<'a> = std::slice::Iter<'a, String>;

/// The argument after `flag`.
fn value_of<'a>(flag: &str, rest: &mut Args<'a>) -> Result<&'a str, CliError> {
    rest.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
}

/// The number after `flag`.
fn number<T: std::str::FromStr>(flag: &str, rest: &mut Args<'_>) -> Result<T, CliError> {
    let v = value_of(flag, rest)?;
    v.parse()
        .map_err(|_| CliError::usage(format!("bad {flag} `{v}`")))
}

/// Walks `args`: `flag` takes each argument that starts with `-` (and
/// its value, from the iterator it is handed) and answers `false` for a
/// flag the command does not know. The rest are the positionals.
fn walk<'a>(
    args: &'a [String],
    mut flag: impl FnMut(&'a str, &mut Args<'a>) -> Result<bool, CliError>,
) -> Result<Vec<&'a str>, CliError> {
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            positional.push(arg.as_str());
        } else if !flag(arg, &mut it)? {
            return Err(CliError::usage(format!("unknown flag `{arg}`")));
        }
    }
    Ok(positional)
}

/// The compile options of one command line: `--policy` and the flags of
/// the option table, applied once the whole line is read, so the flags
/// adjust the preset wherever `--policy` stands.
#[derive(Default)]
struct CompileFlags {
    policy: Option<String>,
    set: Vec<(&'static str, &'static OptionRow, Json)>,
}

impl CompileFlags {
    /// Takes `arg` (and its value) if it is `--policy` or a table flag.
    fn take(&mut self, arg: &str, rest: &mut Args<'_>) -> Result<bool, CliError> {
        if arg == "--policy" {
            self.policy = Some(value_of(arg, rest)?.to_string());
        } else if let Some((flag, row)) = options::by_flag(arg) {
            let value = match flag {
                Flag::Number(_) => Json::UInt(number(arg, rest)?),
                Flag::Switch(_) => Json::Bool(true),
            };
            self.set.push((flag.name(), row, value));
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    /// The `--policy` preset (endurance-aware by default) with each flag
    /// set through its row, which holds the flag's bound.
    fn options(self) -> Result<CompileOptions, CliError> {
        let name = self.policy.as_deref().unwrap_or("endurance-aware");
        let preset = CompileOptions::preset(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown policy `{name}` ({})",
                CompileOptions::preset_names().join(" | ")
            ))
        })?;
        self.set
            .iter()
            .try_fold(preset, |options, (flag, row, value)| {
                (row.set)(options, value, flag).map_err(CliError::usage)
            })
    }
}

/// The spec for built-in benchmark `name`.
fn benchmark_spec(name: &str) -> Result<JobSpec, CliError> {
    JobSpec::named_benchmark(name).map_err(|e| CliError::usage(format!("{e}; see `rlim list`")))
}

/// `compile` and `bench`: the one positional argument made a spec by
/// `source`, compiled through the service, rendered as the circuit
/// interface, the headline metrics and the program listing (inline or
/// written to `-o`).
fn cmd_compile(
    args: &[String],
    source: fn(&str) -> Result<JobSpec, CliError>,
    usage: &str,
) -> Result<String, CliError> {
    let mut flags = CompileFlags::default();
    let mut output = None;
    let positional = walk(args, |arg, rest| {
        if arg != "-o" && arg != "--output" {
            return flags.take(arg, rest);
        }
        output = Some(value_of(arg, rest)?);
        Ok(true)
    })?;
    let [name] = positional.as_slice() else {
        return Err(CliError::usage(usage));
    };
    let spec = source(name)?
        .with_options(flags.options()?)
        .with_program_text(true);
    let report = Service::new().run(&spec)?;
    let mut out = headline(&report, "");
    let text = report.program.as_deref().expect("listing always requested");
    match output {
        Some(path) => {
            fs::write(path, text)
                .map_err(|e| CliError::run(format!("cannot write `{path}`: {e}")))?;
            let _ = writeln!(out, "wrote {path}");
        }
        None => out.push_str(text),
    }
    Ok(out)
}

/// Parses `rlim report` arguments (everything after the subcommand,
/// `--json` and `--remote` excluded) into a [`JobSpec`].
///
/// The positional argument is resolved as a benchmark name first and a
/// BLIF path otherwise. The compile options are `--policy` and the
/// option table's flags, the same vocabulary as `compile` and `bench`;
/// `--backend` selects the flow, `--program` includes the listing, and
/// `--arrays` sets the lifetime projection's fleet size. [`report_argv`]
/// is the exact inverse on canonical specs.
///
/// # Errors
///
/// Returns a usage [`CliError`] for unknown flags or malformed values.
pub fn parse_report_spec(args: &[String]) -> Result<JobSpec, CliError> {
    let mut flags = CompileFlags::default();
    let mut backend = BackendKind::Rm3;
    let mut program = false;
    let mut arrays = rlim_service::DEFAULT_PROJECTION_ARRAYS;
    let positional = walk(args, |arg, rest| {
        match arg {
            "--backend" => backend = value_of(arg, rest)?.parse().map_err(CliError::usage)?,
            "--arrays" => arrays = number(arg, rest)?,
            "--program" => program = true,
            _ => return flags.take(arg, rest),
        }
        Ok(true)
    })?;
    let [source] = positional.as_slice() else {
        return Err(CliError::usage(
            "report needs exactly one benchmark name or BLIF path",
        ));
    };
    Ok(JobSpec::named_benchmark(source)
        .unwrap_or_else(|_| JobSpec::blif_path(source))
        .with_backend(backend)
        .with_options(flags.options()?)
        .with_program_text(program)
        .with_projection_arrays(arrays))
}

/// The canonical `rlim` argv for a report spec — the inverse of
/// [`parse_report_spec`]: `parse_report_spec(&report_argv(spec)?[1..])`
/// reconstructs `spec` exactly. Defaults are omitted, so the argv is
/// minimal.
///
/// # Errors
///
/// Returns a usage [`CliError`] for specs the command line cannot
/// express: in-memory MIG sources, fleet riders, and option sets that
/// match no named policy preset.
pub fn report_argv(spec: &JobSpec) -> Result<Vec<String>, CliError> {
    let mut argv = vec!["report".to_string()];
    match spec.source() {
        Source::Benchmark(b) => argv.push(b.name().to_string()),
        Source::BlifPath(p) => argv.push(p.display().to_string()),
        Source::Mig(_) => {
            return Err(CliError::usage(
                "in-memory MIG sources have no command-line form",
            ));
        }
    }
    if spec.fleet().is_some() {
        return Err(CliError::usage(
            "fleet riders have no `report` command-line form (use `rlim fleet`)",
        ));
    }
    let options = spec.options();
    let preset_name = options
        .preset_name()
        .ok_or_else(|| CliError::usage("options match no named policy preset"))?;
    if preset_name != "endurance-aware" {
        argv.push("--policy".to_string());
        argv.push(preset_name.to_string());
    }
    for (flag, value) in options::off_preset(options) {
        argv.push(flag.name().to_string());
        match (flag, &value) {
            (Flag::Switch(_), Json::Bool(true)) => {}
            (Flag::Number(_), Json::UInt(n)) => argv.push(n.to_string()),
            _ => return Err(CliError::usage(format!("{flag:?} cannot spell {value:?}"))),
        }
    }
    if spec.backend() != BackendKind::Rm3 {
        argv.push("--backend".to_string());
        argv.push(spec.backend().name().to_string());
    }
    if spec.includes_program() {
        argv.push("--program".to_string());
    }
    if spec.projection_arrays() != rlim_service::DEFAULT_PROJECTION_ARRAYS {
        argv.push("--arrays".to_string());
        argv.push(spec.projection_arrays().to_string());
    }
    Ok(argv)
}

/// The circuit interface, the `policy` echo lines and the headline
/// metrics that open a compile's text output.
fn headline(report: &Report, policy: &str) -> String {
    let (r, c, w) = (report, &report.circuit, &report.writes);
    format!(
        "{}: {} PI / {} PO / {} gates\n{policy}\
         compiled: {} instructions, {} cells, writes min={} max={} stdev={:.2}\n",
        r.label, c.inputs, c.outputs, c.gates, r.instructions, r.rrams, w.min, w.max, w.stdev
    )
}

/// Renders a report as human-readable text (the `--json` alternative).
fn render_report_text(report: &Report) -> String {
    // The policy echo: effort always, then every other flag off preset.
    let o = &report.options;
    let policy = o.preset_name().unwrap_or("custom");
    let mut line = format!(
        "backend {}, policy {policy}, effort {}",
        report.backend, o.effort
    );
    for (flag, value) in options::off_preset(o) {
        let name = &flag.name()[2..];
        let _ = match value {
            _ if name == "effort" => Ok(()),
            Json::Bool(true) => write!(line, ", {name}"),
            value => write!(line, ", {name} {}", value.render_compact()),
        };
    }
    line.push('\n');
    let mut out = headline(report, &line);
    let _ = writeln!(
        out,
        "lifetime: {} runs on one array, {} on a fleet of {} (endurance {} writes/cell)",
        report.lifetime.single_array_runs,
        report.lifetime.fleet_runs,
        report.lifetime.fleet_arrays,
        report.lifetime.endurance
    );
    if let Some(program) = &report.program {
        out.push_str(program);
    }
    out
}

/// `rlim report`: one job through the service — in-process, or through
/// a running `rlim serve` daemon with `--remote ADDR` — rendered as
/// text or as the stable JSON schema.
///
/// The two paths produce identical output for the same spec, except
/// that the daemon may answer from its compile cache (`"cached": true`
/// in the JSON rendering).
fn cmd_report(args: &[String]) -> Result<String, CliError> {
    let mut json = false;
    let mut remote = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--remote" => remote = Some(value_of(arg, &mut it)?),
            other => rest.push(other.to_string()),
        }
    }
    let spec = parse_report_spec(&rest)?;
    let Some(addr) = remote else {
        let report = Service::new().run(&spec)?;
        return if json {
            Ok(report.to_json_string())
        } else {
            Ok(render_report_text(&report))
        };
    };
    let mut client = rlim_daemon::Client::connect(addr)?;
    match client.submit(&spec)? {
        rlim_daemon::Response::Report(line) => {
            if json {
                // Re-render the wire line pretty: the parser preserves
                // key order and float precision, so this matches the
                // in-process rendering byte for byte (modulo `cached`).
                let mut out = line.json()?.render();
                out.push('\n');
                Ok(out)
            } else {
                Ok(render_report_text(&line.decode()?))
            }
        }
        rlim_daemon::Response::Rejected {
            queue_depth,
            queue_capacity,
            message,
        } => Err(CliError::run(format!(
            "daemon rejected the job: {message} (queue {queue_depth}/{queue_capacity})"
        ))),
        rlim_daemon::Response::Error { message, usage } => Err(if usage {
            CliError::usage(message)
        } else {
            CliError::run(message)
        }),
        other => Err(CliError::run(format!(
            "daemon answered the job with an unrelated response: {other:?}"
        ))),
    }
}

/// `rlim serve`: run the `rlimd` compile-job daemon in the foreground.
///
/// Prints `rlimd listening on <addr>` (flushed, so wrappers can read
/// the OS-chosen port) as soon as the socket is bound, then blocks
/// until a `shutdown` request — or stdin EOF under `--watch-stdin` —
/// drains the queue. Returns a final one-line summary, so a graceful
/// shutdown exits 0.
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let mut config = rlim_daemon::DaemonConfig::default();
    let mut watch_stdin = false;
    let positional = walk(args, |arg, rest| {
        match arg {
            "--addr" => config.addr = value_of(arg, rest)?.to_string(),
            "--workers" => config.workers = number(arg, rest)?,
            "--queue-depth" => config.queue_depth = number(arg, rest)?,
            "--cache-capacity" => config.cache_capacity = number(arg, rest)?,
            "--watch-stdin" => watch_stdin = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(other) = positional.first() {
        return Err(CliError::usage(format!("unknown serve argument `{other}`")));
    }
    if config.queue_depth == 0 {
        return Err(CliError::usage("--queue-depth must be positive"));
    }
    if config.cache_capacity == 0 {
        return Err(CliError::usage("--cache-capacity must be positive"));
    }
    let handle = rlim_daemon::serve(config)
        .map_err(|e| CliError::run(format!("cannot start daemon: {e}")))?;
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "rlimd listening on {}", handle.addr());
        let _ = stdout.flush();
    }
    if watch_stdin {
        // The supervisor-pipe substitute for a SIGTERM handler: when
        // whoever holds our stdin closes it, drain and exit cleanly.
        let trigger = handle.trigger();
        std::thread::spawn(move || {
            use std::io::Read as _;
            let mut sink = Vec::new();
            let _ = std::io::stdin().lock().read_to_end(&mut sink);
            trigger.shutdown();
        });
    }
    let last = handle.join();
    Ok(format!(
        "rlimd drained: {} jobs served ({} failed, {} rejected), cache {} hits / {} misses\n",
        last.jobs_served, last.jobs_failed, last.jobs_rejected, last.cache.hits, last.cache.misses
    ))
}

/// `rlim daemon <addr> <verb>`: send one control verb to a running
/// daemon and print the raw response line (exactly what travelled on
/// the wire — handy for scripts and CI greps).
fn cmd_daemon(args: &[String]) -> Result<String, CliError> {
    let [addr, verb] = args else {
        return Err(CliError::usage(
            "daemon needs an address and a verb: rlim daemon <addr> <metrics|healthz|shutdown>",
        ));
    };
    let request = match verb.as_str() {
        "metrics" => rlim_daemon::Request::Metrics,
        "healthz" => rlim_daemon::Request::Healthz,
        "shutdown" => rlim_daemon::Request::Shutdown,
        other => {
            return Err(CliError::usage(format!(
                "unknown daemon verb `{other}` (metrics | healthz | shutdown)"
            )));
        }
    };
    let line = rlim_daemon::encode_request(&request)?;
    let mut client = rlim_daemon::Client::connect(addr.as_str())?;
    let reply = client.request_line(&line)?;
    Ok(format!("{reply}\n"))
}

/// `rlim fleet`: run an alternating heavy/light workload of a built-in
/// benchmark on a multi-crossbar fleet and report per-array wear.
fn cmd_fleet(args: &[String]) -> Result<String, CliError> {
    let mut fleet = FleetSpec::new(4);
    let mut chaos = false;
    let mut fault_seed: Option<u64> = None;
    let mut no_recovery = false;
    let mut compile = CompileFlags::default();
    let mut threads = std::env::var("RLIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let positional = walk(args, |arg, rest| {
        match arg {
            "--arrays" => fleet.arrays = number(arg, rest)?,
            "--jobs" => fleet.jobs = number(arg, rest)?,
            "--effort" => return compile.take(arg, rest),
            "--threads" => threads = number(arg, rest)?,
            "--dispatch" => {
                fleet.dispatch = value_of(arg, rest)?.parse().map_err(CliError::usage)?
            }
            "--write-budget" => fleet.write_budget = Some(number(arg, rest)?),
            "--chaos" => chaos = true,
            "--fault-seed" => fault_seed = Some(number(arg, rest)?),
            "--no-recovery" => no_recovery = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if (fault_seed.is_some() || no_recovery) && !chaos {
        return Err(CliError::usage(
            "--fault-seed and --no-recovery require --chaos",
        ));
    }
    let [name] = positional.as_slice() else {
        return Err(CliError::usage(
            "fleet needs exactly one benchmark name (see `rlim list`)",
        ));
    };
    if chaos {
        fleet.chaos = Some(ChaosSpec::new(fault_seed.unwrap_or(0)).with_recovery(!no_recovery));
    }
    let spec = benchmark_spec(name)?
        .with_options(compile.options()?)
        .with_fleet(fleet);
    let report = Service::new()
        .with_threads(threads)
        .run(&spec)
        .map_err(|e| match e {
            Error::Fleet(e) => {
                let hint = if chaos && no_recovery {
                    "drop --no-recovery to let the fleet heal"
                } else {
                    "try more arrays or a larger --write-budget"
                };
                CliError::run(format!("fleet workload failed: {e} ({hint})"))
            }
            other => CliError::from(other),
        })?;
    let fleet = report.fleet.as_ref().expect("fleet rider requested");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name}: fleet of {} arrays, {} dispatch, {} jobs (alternating naive / endurance-aware)",
        fleet.arrays, fleet.dispatch, fleet.jobs
    );
    let _ = writeln!(
        out,
        "job mix: naive #I={}, endurance-aware #I={}",
        fleet.heavy_instructions, fleet.light_instructions
    );
    for (i, array) in fleet.per_array.iter().enumerate() {
        let _ = writeln!(
            out,
            "array {i}: {} jobs, {} writes{}",
            array.jobs,
            array.writes,
            if array.retired { ", retired" } else { "" }
        );
    }
    let _ = writeln!(out, "fleet: {}", fleet.wear);
    if let Some(remaining) = fleet.remaining_jobs {
        let _ = writeln!(
            out,
            "budget: {} arrays retired, capacity for {} more heavy jobs (first retirement within {})",
            fleet.retired,
            remaining,
            fleet.first_retirement_horizon.expect("budget configured"),
        );
    }
    if let Some(fault) = &fleet.fault {
        let _ = writeln!(
            out,
            "chaos: seed {}, median endurance {:.0} writes (sigma {}), stuck probability {}",
            fault.seed, fault.endurance_median, fault.endurance_sigma, fault.stuck_probability
        );
        let _ = writeln!(
            out,
            "faults: {} detected ({} worn, {} stuck), {} remapped to spares, {} arrays retired",
            fault.faults, fault.worn, fault.stuck, fault.remaps, fault.retirements
        );
        for event in &fault.events {
            let _ = writeln!(out, "  {event}");
        }
    }
    Ok(out)
}

fn load_program(path: &str) -> Result<Program, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::run(format!("cannot read `{path}`: {e}")))?;
    let program = asm::parse_text(&text).map_err(|e| CliError::run(format!("{path}: {e}")))?;
    program
        .validate()
        .map_err(|e| CliError::run(format!("{path}: {}", Error::from(e))))?;
    Ok(program)
}

fn cmd_run(args: &[String]) -> Result<String, CliError> {
    let mut bits = None;
    let positional = walk(args, |arg, rest| {
        if arg != "--inputs" {
            return Ok(false);
        }
        bits = Some(value_of(arg, rest)?);
        Ok(true)
    })?;
    let [path] = positional.as_slice() else {
        return Err(CliError::usage("run needs exactly one .plim file"));
    };
    let program = load_program(path)?;
    let bits = bits.ok_or_else(|| CliError::usage("run needs --inputs <bits>"))?;
    let inputs: Vec<bool> = bits
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(CliError::usage(format!("bad input bit `{other}`"))),
        })
        .collect::<Result<_, _>>()?;
    if inputs.len() != program.input_cells.len() {
        return Err(CliError::usage(format!(
            "program has {} inputs, got {}",
            program.input_cells.len(),
            inputs.len()
        )));
    }
    let outputs = Machine::for_program(&program)
        .run(&program, &inputs)
        .map_err(|e| CliError::run(e.to_string()))?;
    let rendered: String = outputs.iter().map(|&b| if b { '1' } else { '0' }).collect();
    Ok(format!("outputs: {rendered}\n"))
}

fn cmd_stats(args: &[String]) -> Result<String, CliError> {
    let mut wear_map = false;
    let positional = walk(args, |arg, _| {
        let known = arg == "--wear-map";
        wear_map |= known;
        Ok(known)
    })?;
    let [path] = positional.as_slice() else {
        return Err(CliError::usage("stats needs exactly one .plim file"));
    };
    let program = load_program(path)?;
    let counts = program.write_counts();
    let stats = WriteStats::from_counts(counts.iter().copied());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} instructions, {} cells, {} inputs, {} outputs",
        program.num_instructions(),
        program.num_rrams(),
        program.input_cells.len(),
        program.output_cells.len()
    );
    let _ = writeln!(
        out,
        "writes: min={} max={} mean={:.2} stdev={:.2}",
        stats.min, stats.max, stats.mean, stats.stdev
    );
    if wear_map {
        let map = WearMap::square(counts);
        let _ = write!(out, "{map}");
    }
    Ok(out)
}

fn cmd_list() -> String {
    let mut out = String::from("built-in benchmarks (PI/PO, kind):\n");
    for &b in Benchmark::all() {
        let (pi, po) = b.interface();
        let kind = if b.is_exact() { "exact" } else { "synthetic" };
        let _ = writeln!(out, "  {:<11} {pi:>5}/{po:<5} {kind}", b.name());
    }
    out
}

/// Test helper: run with string literals.
#[doc(hidden)]
pub fn run_str(args: &[&str]) -> Result<String, CliError> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&owned)
}

/// Writes `contents` to a temp file and returns its path (test support).
#[doc(hidden)]
pub fn write_temp(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(format!("rlim-cli-test-{}-{name}", std::process::id()));
    fs::write(&path, contents).expect("temp file writable");
    path.to_string_lossy().into_owned()
}

/// Removes a temp file created by [`write_temp`] (test support).
#[doc(hidden)]
pub fn remove_temp(path: &str) {
    let _ = fs::remove_file(Path::new(path));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_unknown_command() {
        assert!(run_str(&["--help"]).unwrap().contains("usage:"));
        assert!(run_str(&[]).unwrap().contains("usage:"));
        let err = run_str(&["frobnicate"]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn list_names_all_benchmarks() {
        let out = run_str(&["list"]).unwrap();
        for &b in Benchmark::all() {
            assert!(out.contains(b.name()), "missing {b}");
        }
    }

    #[test]
    fn bench_compiles_and_reports() {
        let out = run_str(&["bench", "int2float"]).unwrap();
        assert!(out.contains("11 PI / 7 PO"), "{out}");
        assert!(out.contains("compiled:"), "{out}");
        assert!(out.contains(".cells"), "inline assembly listing expected");
    }

    #[test]
    fn bench_peephole_never_reports_more_instructions() {
        let count = |out: &str| -> usize {
            let line = out.lines().find(|l| l.starts_with("compiled:")).unwrap();
            line.split_whitespace().nth(1).unwrap().parse().unwrap()
        };
        let off = run_str(&["bench", "ctrl", "--policy", "naive"]).unwrap();
        let on = run_str(&["bench", "ctrl", "--policy", "naive", "--peephole"]).unwrap();
        assert!(count(&on) <= count(&off), "peephole may only shrink #I");
    }

    #[test]
    fn bench_rejects_unknown_name_and_policy() {
        assert_eq!(run_str(&["bench", "nonesuch"]).unwrap_err().code, 2);
        assert_eq!(
            run_str(&["bench", "dec", "--policy", "yolo"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["bench", "dec", "--max-writes", "1"])
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn fleet_reports_balanced_arrays() {
        let out = run_str(&["fleet", "ctrl", "--arrays", "2", "--jobs", "8"]).unwrap();
        assert!(out.contains("fleet of 2 arrays"), "{out}");
        assert!(out.contains("least-worn dispatch"), "{out}");
        assert!(out.contains("array 0:"), "{out}");
        assert!(out.contains("array 1:"), "{out}");
        assert!(out.contains("2 arrays, totals"), "{out}");
    }

    #[test]
    fn fleet_budget_reports_retirement() {
        // A budget that fits only a few ctrl executions per array.
        let out = run_str(&[
            "fleet",
            "ctrl",
            "--arrays",
            "2",
            "--jobs",
            "4",
            "--write-budget",
            "2000",
        ])
        .unwrap();
        assert!(out.contains("budget:"), "{out}");

        // An impossible budget exhausts the fleet: operational error.
        let err = run_str(&["fleet", "ctrl", "--jobs", "4", "--write-budget", "10"]).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("exhausted"), "{err}");
    }

    #[test]
    fn fleet_chaos_reports_the_fault_section() {
        let out = run_str(&["fleet", "ctrl", "--chaos", "--fault-seed", "7"]).unwrap();
        assert!(out.contains("chaos: seed 7"), "{out}");
        assert!(out.contains("faults:"), "{out}");
        // Deterministic: the same seed renders the same report.
        let again = run_str(&["fleet", "ctrl", "--chaos", "--fault-seed", "7"]).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn fleet_chaos_flags_require_each_other() {
        // --fault-seed / --no-recovery are chaos-mode modifiers.
        assert_eq!(
            run_str(&["fleet", "ctrl", "--fault-seed", "7"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["fleet", "ctrl", "--no-recovery"])
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn fleet_rejects_bad_flags() {
        assert_eq!(run_str(&["fleet"]).unwrap_err().code, 2);
        assert_eq!(run_str(&["fleet", "nonesuch"]).unwrap_err().code, 2);
        assert_eq!(
            run_str(&["fleet", "ctrl", "--dispatch", "fifo"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["fleet", "ctrl", "--arrays", "0"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["fleet", "ctrl", "--write-budget", "0"])
                .unwrap_err()
                .code,
            2
        );
        // The fleet picks word-level lanes itself; there is no flag.
        assert_eq!(run_str(&["fleet", "ctrl", "--simd"]).unwrap_err().code, 2);
    }

    #[test]
    fn fleet_round_robin_dispatch() {
        let out = run_str(&[
            "fleet",
            "int2float",
            "--arrays",
            "3",
            "--jobs",
            "6",
            "--dispatch",
            "round-robin",
        ])
        .unwrap();
        assert!(out.contains("round-robin dispatch"), "{out}");
        // Round-robin over 3 arrays and 6 jobs: 2 jobs each.
        assert!(out.contains("array 2: 2 jobs"), "{out}");
    }

    #[test]
    fn compile_run_stats_pipeline() {
        // AND gate in BLIF → compile to a temp .plim → run → stats.
        let blif_path = write_temp("and.blif", ".inputs a b\n.outputs f\n.names a b f\n11 1\n");
        let plim_path = write_temp("and.plim", "");
        let out = run_str(&["compile", &blif_path, "-o", &plim_path, "--policy", "naive"]).unwrap();
        assert!(out.contains("wrote"), "{out}");

        let out = run_str(&["run", &plim_path, "--inputs", "11"]).unwrap();
        assert_eq!(out.trim(), "outputs: 1");
        let out = run_str(&["run", &plim_path, "--inputs", "10"]).unwrap();
        assert_eq!(out.trim(), "outputs: 0");

        let out = run_str(&["stats", &plim_path, "--wear-map"]).unwrap();
        assert!(out.contains("writes:"), "{out}");
        assert!(out.contains("crossbar"), "wear map expected: {out}");

        remove_temp(&blif_path);
        remove_temp(&plim_path);
    }

    #[test]
    fn compile_flags_belong_to_the_commands_that_compile() {
        let blif_path = write_temp(
            "scope.blif",
            ".inputs a b\n.outputs f\n.names a b f\n11 1\n",
        );
        let plim_path = write_temp("scope.plim", "");
        run_str(&["compile", &blif_path, "-o", &plim_path]).unwrap();
        let code = |args: &[&str]| run_str(args).unwrap_err().code;
        // run and stats take their own flags only…
        let stats = &["stats", &plim_path];
        let err = run_str(&[stats, &["--esat", "--copy-reuse", "--max-writes", "5"][..]].concat());
        assert_eq!(err.unwrap_err().message, "unknown flag `--esat`");
        assert_eq!(code(&[stats, &["--max-writes", "2"][..]].concat()), 2);
        assert_eq!(code(&[stats, &["--policy", "yolo"][..]].concat()), 2);
        assert_eq!(
            code(&["run", &plim_path, "--inputs", "11", "--peephole"]),
            2
        );
        // …and compile and bench take none of theirs.
        assert_eq!(
            code(&["compile", &blif_path, "--wear-map", "--inputs", "0"]),
            2
        );
        assert_eq!(code(&["bench", "dec", "--inputs", "0"]), 2);
        assert_eq!(code(&["bench", "dec", "--wear-map"]), 2);
        // fleet sets the effort through the effort row, and nothing else.
        assert_eq!(code(&["fleet", "ctrl", "--effort", "x"]), 2);
        assert_eq!(code(&["fleet", "ctrl", "--peephole"]), 2);
        assert_eq!(code(&["fleet", "ctrl", "--policy", "naive"]), 2);
        let out = run_str(&[
            "fleet", "ctrl", "--arrays", "2", "--jobs", "2", "--effort", "1",
        ]);
        assert!(out.unwrap().contains("fleet of 2 arrays"));
        remove_temp(&blif_path);
        remove_temp(&plim_path);
    }

    #[test]
    fn usage_names_every_option_flag_and_preset() {
        for command in ["compile", "bench", "report"] {
            let block = USAGE
                .split("\n  rlim ")
                .find(|block| block.starts_with(command))
                .expect(command);
            for flag in options::OPTIONS.iter().filter_map(|row| row.flag) {
                let spelled = match flag {
                    Flag::Switch(name) => format!("[{name}]"),
                    Flag::Number(name) => format!("[{name} "),
                };
                assert!(
                    block.contains(&spelled),
                    "`{command}` usage lacks {spelled}"
                );
            }
        }
        let presets = CompileOptions::preset_names().join(" | ");
        assert!(USAGE.contains(&format!("policies: {presets} (default)")));
    }

    #[test]
    fn run_checks_input_arity_and_bits() {
        let plim_path = write_temp(
            "arity.plim",
            ".cells 2\n.inputs r0\n.outputs r1\nRM3 0 1 r1\n",
        );
        assert_eq!(
            run_str(&["run", &plim_path, "--inputs", "101"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["run", &plim_path, "--inputs", "x"])
                .unwrap_err()
                .code,
            2
        );
        remove_temp(&plim_path);
    }

    #[test]
    fn compile_reports_blif_errors_with_location() {
        let path = write_temp("bad.blif", ".inputs a\n.outputs f\n.latch a f\n");
        let err = run_str(&["compile", &path]).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains(".latch"), "{err}");
        remove_temp(&path);
    }

    #[test]
    fn missing_file_is_an_operational_error() {
        let err = run_str(&["stats", "/nonexistent/x.plim"]).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn report_renders_text_and_json() {
        let text = run_str(&["report", "int2float", "--policy", "naive"]).unwrap();
        assert!(text.contains("11 PI / 7 PO"), "{text}");
        assert!(text.contains("policy naive"), "{text}");
        assert!(text.contains("lifetime:"), "{text}");

        let json = run_str(&["report", "int2float", "--policy", "naive", "--json"]).unwrap();
        assert!(json.starts_with("{\n  \"schema\": 7,"), "{json}");
        assert!(json.contains("\"label\": \"int2float\""), "{json}");
        assert!(json.contains("\"preset\": \"naive\""), "{json}");
        assert!(json.contains("\"cached\": false"), "{json}");
        assert!(json.ends_with("}\n"), "trailing newline expected");
    }

    #[test]
    fn report_headline_counts_live_gates() {
        // ctrl is built with 190 gates, 23 of them dead; the source loads
        // without them.
        let text = run_str(&["report", "ctrl"]).unwrap();
        assert!(
            text.starts_with("ctrl: 7 PI / 26 PO / 167 gates\n"),
            "{text}"
        );
    }

    #[test]
    fn report_esat_flag_reaches_the_policy_line() {
        let text = run_str(&["report", "int2float", "--esat", "--esat-iters", "2"]).unwrap();
        assert!(text.contains(", esat, esat-iters 2\n"), "{text}");
        // Budgets off their defaults are echoed; defaults are not.
        let args = [
            "report",
            "ctrl",
            "--esat",
            "--esat-nodes",
            "2000",
            "--esat-iters",
            "2",
        ];
        let text = run_str(&args).unwrap();
        let line = text.lines().nth(1).unwrap();
        assert_eq!(
            line,
            "backend rm3, policy endurance-aware, effort 5, esat, esat-nodes 2000, esat-iters 2"
        );
        let text = run_str(&["report", "ctrl", "--esat"]).unwrap();
        assert!(text.contains(", effort 5, esat\n"), "{text}");
        let off = run_str(&["report", "int2float"]).unwrap();
        assert!(!off.contains("esat"), "{off}");

        let json = run_str(&[
            "report",
            "int2float",
            "--esat",
            "--esat-iters",
            "2",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"esat\": true"), "{json}");
        assert!(json.contains("\"esat_iters\": 2"), "{json}");

        assert_eq!(
            run_str(&["report", "int2float", "--esat-nodes", "0"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["report", "int2float", "--esat-iters", "0"])
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn report_copy_reuse_flag_reaches_the_policy_line() {
        let text = run_str(&["report", "int2float", "--copy-reuse"]).unwrap();
        assert!(text.contains(", copy-reuse"), "{text}");
        let off = run_str(&["report", "int2float"]).unwrap();
        assert!(!off.contains("copy-reuse"), "{off}");

        let json = run_str(&["report", "int2float", "--copy-reuse", "--json"]).unwrap();
        assert!(json.contains("\"copy_reuse\": true"), "{json}");
    }

    #[test]
    fn report_remote_goes_through_a_daemon() {
        let handle = rlim_daemon::serve(rlim_daemon::DaemonConfig {
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();

        let local = run_str(&["report", "ctrl", "--policy", "naive", "--json"]).unwrap();
        let first = run_str(&[
            "report", "ctrl", "--policy", "naive", "--json", "--remote", &addr,
        ])
        .unwrap();
        let second = run_str(&[
            "report", "ctrl", "--policy", "naive", "--json", "--remote", &addr,
        ])
        .unwrap();
        // First remote answer is a compile, byte-identical to the local
        // rendering; the repeat is the same bytes from the cache, modulo
        // the flipped `cached` line.
        assert_eq!(first, local);
        assert!(first.contains("\"cached\": false"), "{first}");
        assert!(second.contains("\"cached\": true"), "{second}");
        assert_eq!(
            first.replace("\"cached\": false", "\"cached\": true"),
            second
        );
        // The text rendering decodes the same wire line.
        let text = run_str(&["report", "ctrl", "--policy", "naive", "--remote", &addr]).unwrap();
        assert_eq!(
            text,
            run_str(&["report", "ctrl", "--policy", "naive"]).unwrap()
        );

        // Three jobs went through: one compile, two cache hits.
        let metrics = run_str(&["daemon", &addr, "metrics"]).unwrap();
        assert!(metrics.contains("\"hits\":2,\"misses\":1"), "{metrics}");
        let healthz = run_str(&["daemon", &addr, "healthz"]).unwrap();
        assert!(healthz.contains("\"accepting\":true"), "{healthz}");

        let bye = run_str(&["daemon", &addr, "shutdown"]).unwrap();
        assert!(bye.contains("\"draining\":true"), "{bye}");
        handle.join();
        // The socket now refuses connections: remote jobs fail cleanly.
        let err = run_str(&["report", "ctrl", "--remote", &addr]).unwrap_err();
        assert_eq!(err.code, 1);

        assert_eq!(run_str(&["daemon", &addr]).unwrap_err().code, 2);
        assert_eq!(run_str(&["daemon", &addr, "reboot"]).unwrap_err().code, 2);
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert_eq!(
            run_str(&["serve", "--queue-depth", "0"]).unwrap_err().code,
            2
        );
        assert_eq!(
            run_str(&["serve", "--cache-capacity", "0"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(run_str(&["serve", "extra"]).unwrap_err().code, 2);
        assert_eq!(run_str(&["serve", "--workers", "two"]).unwrap_err().code, 2);
    }

    #[test]
    fn report_accepts_blif_paths_and_backends() {
        let blif_path = write_temp("rep.blif", ".inputs a b\n.outputs f\n.names a b f\n11 1\n");
        let out = run_str(&[
            "report",
            &blif_path,
            "--policy",
            "naive",
            "--backend",
            "imp",
        ])
        .unwrap();
        assert!(out.contains("backend imp"), "{out}");
        remove_temp(&blif_path);
    }

    #[test]
    fn report_rejects_bad_flags() {
        assert_eq!(run_str(&["report"]).unwrap_err().code, 2);
        assert_eq!(
            run_str(&["report", "div", "--backend", "riscv"])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_str(&["report", "div", "--arrays", "0"])
                .unwrap_err()
                .code,
            2
        );
        // An unknown benchmark falls back to a BLIF path, which is an
        // operational (file) error, not a usage one.
        assert_eq!(run_str(&["report", "nonesuch"]).unwrap_err().code, 1);
    }

    #[test]
    fn report_argv_is_the_parse_inverse() {
        let spec = parse_report_spec(&[
            "div".to_string(),
            "--policy".to_string(),
            "min-write".to_string(),
            "--effort".to_string(),
            "3".to_string(),
            "--peephole".to_string(),
            "--copy-reuse".to_string(),
            "--esat".to_string(),
            "--esat-nodes".to_string(),
            "9000".to_string(),
            "--program".to_string(),
        ])
        .unwrap();
        let argv = report_argv(&spec).unwrap();
        assert_eq!(argv[0], "report");
        let back = parse_report_spec(&argv[1..]).unwrap();
        assert_eq!(back, spec);
        // Defaults produce the minimal argv.
        let plain = parse_report_spec(&["div".to_string()]).unwrap();
        assert_eq!(report_argv(&plain).unwrap(), vec!["report", "div"]);
    }

    #[test]
    fn error_bridges_preserve_the_exit_code_split() {
        let usage: CliError = Error::InvalidRequest("bad".into()).into();
        assert_eq!(usage.code, 2);
        let run: CliError = Error::Run("boom".into()).into();
        assert_eq!(run.code, 1);
        let back: Error = CliError::usage("x").into();
        assert!(back.is_usage());
        let back: Error = CliError::run("y").into();
        assert!(!back.is_usage());
    }
}
