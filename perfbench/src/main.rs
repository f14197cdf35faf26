//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile|fleet|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one closed-loop load generator that times only its
//! own traffic through the public entry points the CLI and tests use.
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a separate
//! traced run. Earlier stdout lines list the exact per-spec counts, so a
//! moved sum points at its spec. `perfbench/README.md` defines every
//! metric per workload.

mod compile;
mod fleet;
mod rng;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run attempted, how much of it failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, or produced wrong output.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one attempted operation and whether it failed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Folds another outcome's counts in, adding its metrics whose names
    /// are not taken yet.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.metrics {
            if !self.metrics.iter().any(|have| have.name == m.name) {
                self.metrics.push(m);
            }
        }
    }
}

/// How much of a workload's traffic a traced run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload's own traffic.
    Full,
    /// A small sample, run so the traced report covers every layer.
    Sample,
}

/// Minimum number of set-up repetitions behind `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Minimum time the set-up repetitions must span, in seconds.
const SETUP_WINDOW_S: f64 = 1.5;

/// Runs `setup` until it has been repeated [`SETUP_REPEATS`] times and
/// the repetitions span [`SETUP_WINDOW_S`]; returns the median set-up
/// time and the last result. Earlier results are dropped before the
/// next repetition starts, outside the timed span.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while samples.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        samples.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    println!(
        "setup repeats={} first_s={} quartiles_s={:?}",
        samples.len(),
        samples[0],
        stats::quartiles(&samples)
    );
    (
        stats::median(&samples),
        last.expect("set-up ran at least once"),
    )
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time a hypervisor gave to other guests while the benchmark's
/// virtual CPUs wanted to run (`steal` in `/proc/stat`), in seconds; 0
/// where the kernel does not report it.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The latency metrics every workload reports over its own operations:
/// `geomean_ms` over operation kinds (one median per kind) and the
/// workload's fixed tail percentile over `all`. The quartiles of `all`,
/// its median among them, are printed beside the sample count.
pub fn push_latencies(
    out: &mut Outcome,
    per_kind_ms: &[Vec<f64>],
    all: &[f64],
    tail_percentile: f64,
) {
    let medians: Vec<f64> = per_kind_ms
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stats::median(v))
        .collect();
    println!(
        "latency samples={} kinds={} quartiles_ms={:?} tail=p{tail_percentile} \
         highest_supported=p{:?}",
        all.len(),
        medians.len(),
        stats::quartiles(all),
        stats::highest_supported_percentile(all.len(), 10)
    );
    out.push("geomean_ms", stats::geomean(&medians), "ms");
    out.push("tail_ms", stats::percentile(all, tail_percentile), "ms");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = rng::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs the traced report for `workload`: its own traffic at full
/// scale, then a sample of the other workloads' traffic for the layers
/// its own traffic never reaches. Metrics from the own traffic win.
fn traced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let order: [&str; 3] = match workload {
        "compile" => ["compile", "fleet", "serve"],
        "fleet" => ["fleet", "compile", "serve"],
        _ => ["serve", "compile", "fleet"],
    };
    for (i, name) in order.into_iter().enumerate() {
        let scale = if i == 0 { Scale::Full } else { Scale::Sample };
        let part = match name {
            "compile" => compile::trace(seed, seconds, scale),
            "fleet" => fleet::trace(seed, seconds, scale),
            _ => serve::trace(seed, seconds, scale),
        };
        out.absorb(part);
    }
    out
}

fn render(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <compile|fleet|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let steal_before = steal_s();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("compile" | "fleet" | "serve", true) => traced(&args.workload, args.seed, args.seconds),
        ("compile", false) => compile::run(args.seed, args.seconds),
        ("fleet", false) => fleet::run(args.seed, args.seconds),
        ("serve", false) => serve::run(args.seed, args.seconds),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    println!("host steal_s={}", steal_s() - steal_before);
    println!("{}", render(&outcome));
    ExitCode::SUCCESS
}
