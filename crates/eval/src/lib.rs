//! Shared machinery for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! `table1`, `table2`, `table3`, `copy_table` and `esat_table` (through
//! [`run_suite`]), `ablation` and `imp_vs_rm3` (through
//! [`measure_batch`]), `sizes` (through `Service::run_batch`, for the
//! report's gate count), and `sweep` and `fleet` (through the [`sweep`]
//! and [`fleet`] modules) describe benchmark × configuration matrices as
//! [`rlim_service::JobSpec`] batches and submit them to the
//! [`rlim_service::Service`], so every [`Measurement`] comes from a
//! service [`rlim_service::Report`]. The other binaries (`figures`,
//! `lifetime`, `level_aware`, `switching`, `chaos`) call the compiler or
//! the fleet directly. All of them print fixed-width text tables
//! ([`TextTable`]) that mirror the paper's layout.
//!
//! Binaries accept a common command line:
//!
//! * `--bench a,b,c` — restrict to the named benchmarks;
//! * `--quick` — the small fast subset (for smoke runs);
//! * `--effort N` — override the rewriting effort (paper default 5).

#![warn(missing_docs)]

use rlim_benchmarks::Benchmark;
use rlim_compiler::CompileOptions;
use rlim_rram::WriteStats;
use rlim_service::{JobSpec, Service};

pub mod chaos;
pub mod fleet;
pub mod sweep;

/// Which benchmarks to run and with what effort, parsed from `argv`.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Benchmarks in execution order.
    pub benchmarks: Vec<Benchmark>,
    /// Rewriting effort (paper: 5).
    pub effort: usize,
    /// Worker threads for the benchmark × preset matrix; `0` = one per
    /// available core. Settable with `--threads N` or `RLIM_THREADS`.
    pub threads: usize,
}

impl RunPlan {
    /// Parses command-line arguments (everything after the program name).
    /// `RLIM_THREADS` provides the default worker count; `--threads`
    /// overrides it.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or benchmark
    /// names.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut benchmarks: Option<Vec<Benchmark>> = None;
        let mut effort = 5usize;
        let mut threads = std::env::var("RLIM_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--bench" => {
                    let list = it.next().ok_or("--bench needs a comma-separated list")?;
                    let parsed: Result<Vec<Benchmark>, _> =
                        list.split(',').map(|s| s.trim().parse()).collect();
                    benchmarks = Some(parsed.map_err(|e| e.to_string())?);
                }
                "--quick" => benchmarks = Some(Benchmark::small().to_vec()),
                "--effort" => {
                    let v = it.next().ok_or("--effort needs a number")?;
                    effort = v.parse().map_err(|_| format!("bad effort `{v}`"))?;
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a number")?;
                    threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(RunPlan {
            benchmarks: benchmarks.unwrap_or_else(|| Benchmark::all().to_vec()),
            effort,
            threads,
        })
    }

    /// Parses the process's own arguments, exiting with a usage message on
    /// error.
    pub fn from_env() -> Self {
        match Self::from_args(std::env::args().skip(1)) {
            Ok(plan) => plan,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("usage: [--bench a,b,c] [--quick] [--effort N] [--threads N]");
                std::process::exit(2);
            }
        }
    }
}

/// One measured compilation: the paper's per-cell metrics.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Number of RM3 instructions (`#I`).
    pub instructions: usize,
    /// Number of RRAM cells (`#R`).
    pub rrams: usize,
    /// Write-distribution statistics (min / max / stdev).
    pub stats: WriteStats,
    /// Wall-clock compile time.
    pub seconds: f64,
}

impl Measurement {
    /// The same metrics lifted out of a service [`rlim_service::Report`].
    pub fn from_report(report: &rlim_service::Report) -> Self {
        Measurement {
            instructions: report.instructions,
            rrams: report.rrams,
            stats: report.writes,
            seconds: report.seconds,
        }
    }

    /// `min/max` formatted as in the paper's Table I.
    pub fn min_max(&self) -> String {
        format!("{}/{}", self.stats.min, self.stats.max)
    }
}

/// Percentage improvement of `new` standard deviation over `baseline`
/// (positive = better), the paper's `impr.` column.
pub fn improvement(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (1.0 - new / baseline) * 100.0
    }
}

/// The paper's Table I / II / III configuration columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Column {
    /// No rewriting, topological order, LIFO pool.
    Naive,
    /// DAC'16 PLiM compiler: Algorithm 1 + area-aware selection.
    PlimCompiler,
    /// Minimum write count strategy on top of the PLiM compiler.
    MinWrite,
    /// Minimum write strategy + endurance-aware MIG rewriting (Alg. 2).
    EnduranceRewriting,
    /// Full: Alg. 2 rewriting + Alg. 3 selection + min-write allocation.
    EnduranceAware,
    /// Full endurance management with the maximum write count strategy.
    MaxWrite(u64),
    /// Full endurance-aware compilation plus copy discovery + spilling
    /// (`CompileOptions::with_copy_reuse`).
    CopyReuse,
    /// Full endurance-aware compilation plus equality saturation over
    /// the Ω rules (`CompileOptions::with_esat`).
    Esat,
}

impl Column {
    /// Short label used in table headers.
    pub fn label(self) -> String {
        match self {
            Column::Naive => "naive".into(),
            Column::PlimCompiler => "PLiM compiler [21]".into(),
            Column::MinWrite => "min-write".into(),
            Column::EnduranceRewriting => "+EA rewriting".into(),
            Column::EnduranceAware => "+EA compilation".into(),
            Column::MaxWrite(w) => format!("max-write {w}"),
            Column::CopyReuse => "+copy reuse".into(),
            Column::Esat => "+esat".into(),
        }
    }

    /// The compiler options implementing this column.
    pub fn options(self, effort: usize) -> CompileOptions {
        let base = match self {
            Column::Naive => CompileOptions::naive(),
            Column::PlimCompiler => CompileOptions::plim_compiler(),
            Column::MinWrite => CompileOptions::min_write(),
            Column::EnduranceRewriting => CompileOptions::endurance_rewriting(),
            Column::EnduranceAware => CompileOptions::endurance_aware(),
            Column::MaxWrite(w) => CompileOptions::endurance_aware().with_max_writes(w),
            Column::CopyReuse => CompileOptions::endurance_aware().with_copy_reuse(true),
            Column::Esat => CompileOptions::endurance_aware().with_esat(true),
        };
        if self == Column::Naive {
            base // naive has no rewriting; effort is irrelevant
        } else {
            base.with_effort(effort)
        }
    }
}

/// Measurements for one benchmark across a set of columns.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Per-column measurements, in the order requested.
    pub columns: Vec<(Column, Measurement)>,
}

impl BenchmarkReport {
    /// Looks up one column's measurement.
    pub fn get(&self, column: Column) -> Option<&Measurement> {
        self.columns
            .iter()
            .find(|(c, _)| *c == column)
            .map(|(_, m)| m)
    }
}

/// Runs `specs` as one [`Service::run_batch`] call on the plan's worker
/// threads and measures each report, in spec order.
pub fn measure_batch(plan: &RunPlan, specs: &[JobSpec]) -> Vec<Measurement> {
    Service::new()
        .with_threads(plan.threads)
        .run_batch(specs)
        .expect("benchmark compilations cannot fail")
        .iter()
        .map(Measurement::from_report)
        .collect()
}

/// Runs `columns` over every benchmark in the plan as one
/// [`Service::run_batch`] call: the full **benchmark × column matrix**
/// becomes a [`JobSpec`] batch distributed across the service's scoped
/// worker pool (each distinct benchmark graph is built once). Reports
/// come back in plan order with columns in the requested order,
/// independent of scheduling; per-cell compile timings are still
/// measured per compile. Progress lines go to stderr.
pub fn run_suite(plan: &RunPlan, columns: &[Column]) -> Vec<BenchmarkReport> {
    let cells: Vec<(Benchmark, Column)> = plan
        .benchmarks
        .iter()
        .flat_map(|&b| columns.iter().map(move |&c| (b, c)))
        .collect();
    let specs: Vec<JobSpec> = cells
        .iter()
        .map(|&(b, c)| JobSpec::benchmark(b).with_options(c.options(plan.effort)))
        .collect();
    let mut measurements = cells
        .iter()
        .zip(measure_batch(plan, &specs))
        .map(|(&(b, col), m)| {
            eprintln!(
                "[{}] {}: #I={} #R={} stdev={:.2} ({:.2}s)",
                b.name(),
                col.label(),
                m.instructions,
                m.rrams,
                m.stats.stdev,
                m.seconds
            );
            m
        });
    plan.benchmarks
        .iter()
        .map(|&benchmark| BenchmarkReport {
            benchmark,
            columns: columns
                .iter()
                .map(|&c| (c, measurements.next().expect("one cell per matrix entry")))
                .collect(),
        })
        .collect()
}

// ---- Endurance-aware comparison tables ----------------------------------

/// One extension of the full endurance-aware compilation, set against it
/// on the paper's per-cell metrics: the shape of the COPY and ESAT
/// tables.
#[derive(Debug, Clone, Copy)]
pub struct Versus {
    /// The extension's column; the reference is [`Column::EnduranceAware`].
    pub candidate: Column,
    /// The extension's header label, e.g. `+copy`.
    pub label: &'static str,
    /// The table's title line.
    pub title: &'static str,
    /// What the footer counts, e.g. `max per-cell writes reduced`.
    pub improved_label: &'static str,
    /// Whether the extension's measurement (first) improves on the
    /// reference's (second), for the footer's count.
    pub improved: fn(&Measurement, &Measurement) -> bool,
}

/// Runs the plan under the endurance-aware reference and
/// `versus.candidate` and prints the comparison table: per benchmark
/// `#I`, `#R`, max writes and STDEV of both, the `#I` change and the max
/// change, an average row and a one-line summary.
pub fn print_versus_table(plan: &RunPlan, versus: &Versus) {
    let columns = [Column::EnduranceAware, versus.candidate];
    let reports = run_suite(plan, &columns);

    let candidate_instructions = format!("{} #I", versus.label);
    let mut table = TextTable::new([
        "benchmark",
        "PI/PO",
        "EA #I",
        "#R",
        "max",
        "STDEV",
        candidate_instructions.as_str(),
        "#R",
        "max",
        "STDEV",
        "ΔI%",
        "Δmax",
    ]);

    let mut sums = [0.0f64; 8];
    let mut improved = 0usize;
    let mut stdev_impr_sum = 0.0f64;
    for report in &reports {
        let (pi, po) = report.benchmark.interface();
        let ea = report.get(Column::EnduranceAware).expect("EA column");
        let cand = report.get(versus.candidate).expect("candidate column");
        let di = 100.0 * (cand.instructions as f64 / ea.instructions as f64 - 1.0);
        let dmax = cand.stats.max as i64 - ea.stats.max as i64;
        if (versus.improved)(cand, ea) {
            improved += 1;
        }
        let impr = improvement(ea.stats.stdev, cand.stats.stdev);
        stdev_impr_sum += if impr.is_finite() { impr } else { 0.0 };
        table.row([
            report.benchmark.name().to_string(),
            format!("{pi}/{po}"),
            ea.instructions.to_string(),
            ea.rrams.to_string(),
            ea.stats.max.to_string(),
            fmt_stdev(ea.stats.stdev),
            cand.instructions.to_string(),
            cand.rrams.to_string(),
            cand.stats.max.to_string(),
            fmt_stdev(cand.stats.stdev),
            format!("{di:+.2}%"),
            format!("{dmax:+}"),
        ]);
        for (i, v) in [
            ea.instructions as f64,
            ea.rrams as f64,
            ea.stats.max as f64,
            ea.stats.stdev,
            cand.instructions as f64,
            cand.rrams as f64,
            cand.stats.max as f64,
            cand.stats.stdev,
        ]
        .into_iter()
        .enumerate()
        {
            sums[i] += v;
        }
    }

    let n = reports.len().max(1) as f64;
    let mut avg = vec!["AVG".to_string(), String::new()];
    for s in &sums {
        avg.push(format!("{:.2}", s / n));
    }
    avg.push(format!("{:+.2}%", 100.0 * (sums[4] / sums[0] - 1.0)));
    avg.push(format!("{:+.2}", (sums[6] - sums[2]) / n));
    table.row(avg);

    println!("{}", versus.title);
    println!("(effort = {}, {} benchmarks)\n", plan.effort, reports.len());
    println!("{}", table.render());
    println!(
        "{} on {improved}/{} benchmarks; avg STDEV impr {:.2}%; total #I {:+.2}%",
        versus.improved_label,
        reports.len(),
        stdev_impr_sum / n,
        100.0 * (sums[4] / sums[0] - 1.0),
    );
}

// ---- Text-table rendering ------------------------------------------------

/// Minimal fixed-width table printer (first column left-aligned, the rest
/// right-aligned), matching the paper's typography closely enough to eyeball
/// against it.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], out: &mut String| {
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    out.push_str(&format!("{cell:<width$}"));
                } else {
                    out.push_str(&format!("  {cell:>width$}"));
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&self.header, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Formats a float the way the paper prints standard deviations.
pub fn fmt_stdev(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a percentage column (`impr.`).
pub fn fmt_pct(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}%")
    } else {
        "n/a".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_defaults_to_all() {
        let plan = RunPlan::from_args(Vec::<String>::new()).unwrap();
        assert_eq!(plan.benchmarks.len(), 18);
        assert_eq!(plan.effort, 5);
    }

    #[test]
    fn plan_parses_bench_list_and_effort() {
        let plan = RunPlan::from_args(["--bench", "adder,dec", "--effort", "2"].map(String::from))
            .unwrap();
        assert_eq!(plan.benchmarks, vec![Benchmark::Adder, Benchmark::Dec]);
        assert_eq!(plan.effort, 2);
    }

    #[test]
    fn plan_quick_subset() {
        let plan = RunPlan::from_args(["--quick".to_string()]).unwrap();
        assert_eq!(plan.benchmarks, Benchmark::small().to_vec());
    }

    #[test]
    fn plan_rejects_unknown() {
        assert!(RunPlan::from_args(["--frobnicate".to_string()]).is_err());
        assert!(RunPlan::from_args(["--bench".to_string(), "nope".to_string()]).is_err());
    }

    #[test]
    fn improvement_math() {
        assert!((improvement(10.0, 5.0) - 50.0).abs() < 1e-9);
        assert!(improvement(10.0, 12.0) < 0.0);
        assert_eq!(improvement(0.0, 0.0), 0.0);
    }

    #[test]
    fn column_options_match_paper_mapping() {
        use rlim_compiler::{Allocation, Selection};
        let naive = Column::Naive.options(5);
        assert_eq!(naive.rewriting, None);
        let full = Column::EnduranceAware.options(3);
        assert_eq!(full.selection, Selection::EnduranceAware);
        assert_eq!(full.allocation, Allocation::MinWrite);
        assert_eq!(full.effort, 3);
        let mw = Column::MaxWrite(20).options(5);
        assert_eq!(mw.max_writes, Some(20));
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(["name", "x"]);
        t.row(["a", "1"]);
        t.row(["bbbb", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].contains("22"));
    }

    #[test]
    fn measurement_on_tiny_benchmark() {
        let spec = JobSpec::benchmark(Benchmark::Int2float).with_options(Column::Naive.options(0));
        let report = Service::new().run(&spec).expect("a benchmark compiles");
        let m = Measurement::from_report(&report);
        assert!(m.instructions > 0);
        assert!(m.rrams >= 11);
        assert_eq!(m.stats.cells, m.rrams);
    }
}
