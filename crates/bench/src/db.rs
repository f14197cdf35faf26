//! The on-disk bench database: an **append-only** JSON array of per-run
//! fleet-throughput records, written through the workspace's in-tree
//! [`Json`] writer, plus the regression gate that compares a fresh
//! measurement against the latest committed record of the same workload.
//!
//! The file format is deliberately boring — a pretty-printed JSON array
//! whose element shape (field order, float precision) is pinned by the
//! golden test in `tests/service_api.rs` — and appends are **text
//! splices**: a new record is added by replacing the trailing `\n]\n`
//! with `,\n<record>\n]\n`, so committed history is never reformatted
//! and `git diff` shows exactly one new record per run.

use std::fmt;
use std::io;
use std::path::Path;

use rlim_service::json::{self, Fields, Json};

/// Default relative throughput drop tolerated by the regression gate
/// (`0.5` = the new run may be up to 50% slower than its
/// [`gate_baseline`] before the gate trips; wall-clock noise on shared CI runners
/// is large, so the gate is a safety net against order-of-magnitude
/// regressions, not a ±5% tripwire).
pub const DEFAULT_GATE_TOLERANCE: f64 = 0.5;

/// One committed fleet-throughput measurement.
///
/// `*_ops_per_second` count executed RM3 instructions — on the SIMD
/// path each word pass retires one instruction *per active lane*, so the
/// two columns are directly comparable (same logical work, different
/// wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Monotonic run index (1-based; previous committed record + 1).
    pub run: u64,
    /// Benchmark whose programs made up the workload.
    pub benchmark: String,
    /// Fleet size.
    pub arrays: usize,
    /// Jobs in the alternating heavy/light workload.
    pub jobs: usize,
    /// Total RM3 instructions the workload executes (logical, both paths).
    pub instructions: u64,
    /// Best wall-clock seconds for the scalar `run_batch` path.
    pub scalar_seconds: f64,
    /// `instructions / scalar_seconds`.
    pub scalar_ops_per_second: f64,
    /// Best wall-clock seconds for the word-level `run_batch_simd` path.
    pub simd_seconds: f64,
    /// `instructions / simd_seconds`.
    pub simd_ops_per_second: f64,
    /// `scalar_seconds / simd_seconds` — the word-level win this run.
    pub speedup: f64,
    /// Peak per-cell write count of the workload's endurance-aware
    /// program — the paper's "max writes" column for the compile the
    /// fleet executes. Deterministic, unlike the wall-clock columns.
    /// Zero on records from before the wear columns existed.
    pub max_cell_writes: u64,
    /// Write-count standard deviation of the same program (zero on
    /// pre-wear-column records).
    pub write_stdev: f64,
}

impl BenchRecord {
    /// The record's pinned JSON shape (field order and float precision
    /// are frozen by the golden schema test).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("run", Json::from(self.run)),
            ("benchmark", Json::from(self.benchmark.as_str())),
            ("arrays", Json::from(self.arrays)),
            ("jobs", Json::from(self.jobs)),
            ("instructions", Json::from(self.instructions)),
            ("scalar_seconds", Json::float(self.scalar_seconds, 6)),
            (
                "scalar_ops_per_second",
                Json::float(self.scalar_ops_per_second, 0),
            ),
            ("simd_seconds", Json::float(self.simd_seconds, 6)),
            (
                "simd_ops_per_second",
                Json::float(self.simd_ops_per_second, 0),
            ),
            ("speedup", Json::float(self.speedup, 3)),
            ("max_cell_writes", Json::from(self.max_cell_writes)),
            ("write_stdev", Json::float(self.write_stdev, 4)),
        ])
    }
}

impl fmt::Display for BenchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {}: {} x{} jobs on {} arrays, scalar {:.0} ops/s, simd {:.0} ops/s ({:.2}x)",
            self.run,
            self.benchmark,
            self.jobs,
            self.arrays,
            self.scalar_ops_per_second,
            self.simd_ops_per_second,
            self.speedup
        )
    }
}

/// Renders a record as it appears inside the DB array: the object
/// rendered at depth 1 (every line indented two spaces).
fn render_entry(record: &BenchRecord) -> String {
    record
        .to_json()
        .render()
        .lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Appends `record` to the DB at `path`, creating the file if missing.
///
/// Append-only by construction: an existing file is extended by splicing
/// the new entry before the closing bracket — earlier records are kept
/// byte-identical (asserted by the golden test).
pub fn append(path: &Path, record: &BenchRecord) -> io::Result<()> {
    let entry = render_entry(record);
    let text = match std::fs::read_to_string(path) {
        Ok(text) => {
            let base = text.strip_suffix("\n]\n").ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: not a bench DB (missing trailing `]`)", path.display()),
                )
            })?;
            format!("{base},\n{entry}\n]\n")
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => format!("[\n{entry}\n]\n"),
        Err(e) => return Err(e),
    };
    std::fs::write(path, text)
}

/// Reads every record back out of a DB file through the workspace's
/// JSON reader. Records written before the wear columns existed read
/// them as zero.
pub fn records(path: &Path) -> io::Result<Vec<BenchRecord>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    parse_records(&text).map_err(|msg| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {msg}", path.display()),
        )
    })
}

fn parse_records(text: &str) -> Result<Vec<BenchRecord>, String> {
    let Json::Array(items) = json::parse(text).map_err(|e| e.to_string())? else {
        return Err("not a bench DB (expected a JSON array)".to_owned());
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let r = Fields::of(item, format!("record {i}"))?;
            Ok(BenchRecord {
                run: r.u64("run")?,
                benchmark: r.str("benchmark")?.to_owned(),
                arrays: r.usize("arrays")?,
                jobs: r.usize("jobs")?,
                instructions: r.u64("instructions")?,
                scalar_seconds: r.f64("scalar_seconds")?,
                scalar_ops_per_second: r.f64("scalar_ops_per_second")?,
                simd_seconds: r.f64("simd_seconds")?,
                simd_ops_per_second: r.f64("simd_ops_per_second")?,
                speedup: r.f64("speedup")?,
                // Records from before the wear columns existed lack them.
                max_cell_writes: match r.get("max_cell_writes") {
                    Some(_) => r.u64("max_cell_writes")?,
                    None => 0,
                },
                write_stdev: match r.get("write_stdev") {
                    Some(_) => r.f64("write_stdev")?,
                    None => 0.0,
                },
            })
        })
        .collect()
}

/// The run index the next appended record should carry.
pub fn next_run(records: &[BenchRecord]) -> u64 {
    records.last().map_or(1, |r| r.run + 1)
}

/// The record a fresh measurement is gated against: the latest one of
/// the same workload (`benchmark`, `arrays` and `jobs`). Records of other
/// workloads measure different programs, so they never serve as the
/// baseline; `None` when the workload has no history yet.
pub fn gate_baseline<'a>(
    history: &'a [BenchRecord],
    current: &BenchRecord,
) -> Option<&'a BenchRecord> {
    history.iter().rev().find(|r| {
        r.benchmark == current.benchmark && r.arrays == current.arrays && r.jobs == current.jobs
    })
}

/// The regression gate: `current` may not be more than `tolerance`
/// (relative) slower than `previous` on either execution path, and the
/// deterministic wear columns (`max_cell_writes`, `write_stdev`) may not
/// regress at all — they describe the compiled program, not the runner,
/// so any growth is a compiler change, not noise. Returns the
/// human-readable failure description on a regression.
pub fn regression_gate(
    previous: &BenchRecord,
    current: &BenchRecord,
    tolerance: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();
    // Records committed before the wear columns existed parse as zero
    // and carry nothing to guard against.
    if previous.max_cell_writes > 0 {
        if current.max_cell_writes > previous.max_cell_writes {
            failures.push(format!(
                "max per-cell writes regressed: {} > {} (run {})",
                current.max_cell_writes, previous.max_cell_writes, previous.run
            ));
        }
        // The committed value is rendered at 4 decimals; tolerate that
        // rounding, nothing more.
        if current.write_stdev > previous.write_stdev + 1e-3 {
            failures.push(format!(
                "write stdev regressed: {:.4} > {:.4} (run {})",
                current.write_stdev, previous.write_stdev, previous.run
            ));
        }
    }
    for (label, prev, cur) in [
        (
            "scalar",
            previous.scalar_ops_per_second,
            current.scalar_ops_per_second,
        ),
        (
            "simd",
            previous.simd_ops_per_second,
            current.simd_ops_per_second,
        ),
    ] {
        let floor = prev * (1.0 - tolerance);
        if cur < floor {
            failures.push(format!(
                "{label} throughput regressed: {cur:.0} ops/s < {floor:.0} \
                 (run {} recorded {prev:.0}, tolerance {tolerance})",
                previous.run
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn record(run: u64, scalar: f64, simd: f64) -> BenchRecord {
        BenchRecord {
            run,
            benchmark: "div".to_owned(),
            arrays: 4,
            jobs: 256,
            instructions: 25_000_000,
            scalar_seconds: 25_000_000.0 / scalar,
            scalar_ops_per_second: scalar,
            simd_seconds: 25_000_000.0 / simd,
            simd_ops_per_second: simd,
            speedup: simd / scalar,
            max_cell_writes: 11,
            write_stdev: 1.97,
        }
    }

    fn temp_db(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("rlim_bench_db_{}_{name}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_then_read_back_round_trips() {
        let path = temp_db("roundtrip");
        let a = record(1, 2.0e8, 4.0e9);
        let b = record(2, 2.1e8, 4.2e9);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        let back = records(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].run, 1);
        assert_eq!(back[1].run, 2);
        assert_eq!(back[0].benchmark, "div");
        assert_eq!(back[1].scalar_ops_per_second, 2.1e8);
        assert_eq!(back[1].simd_ops_per_second, 4.2e9);
        assert_eq!(next_run(&back), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_is_a_pure_suffix_splice() {
        let path = temp_db("suffix");
        append(&path, &record(1, 1.0e8, 1.0e9)).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();
        append(&path, &record(2, 1.0e8, 1.0e9)).unwrap();
        let after = std::fs::read_to_string(&path).unwrap();
        // Everything up to the closing bracket is byte-identical.
        let stem = before.strip_suffix("\n]\n").unwrap();
        assert!(after.starts_with(stem));
        assert!(after.ends_with("\n]\n"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn committed_db_reads_back_with_legacy_rows_as_zero() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_db.json");
        let back = records(&path).unwrap();
        assert_eq!(back.len(), 3);
        // Run 1 predates the wear columns.
        assert_eq!((back[0].max_cell_writes, back[0].write_stdev), (0, 0.0));
        assert_eq!(back[0].scalar_ops_per_second, 245_005_597.0);
        assert_eq!(back[0].scalar_seconds, 0.080455);
        assert_eq!(back[2].benchmark, "div+esat");
        assert_eq!(
            (back[2].max_cell_writes, back[2].write_stdev),
            (292, 113.1916)
        );
        assert_eq!(next_run(&back), 4);
    }

    #[test]
    fn malformed_records_are_rejected() {
        for text in ["{}", "[{\"run\":1}]", "[1]", "[", "[{\"run\":\"one\"}]"] {
            let err = parse_records(text).expect_err(text);
            assert!(!err.is_empty());
        }
        assert_eq!(parse_records("[]").unwrap(), Vec::new());
    }

    #[test]
    fn missing_db_reads_empty_and_counts_from_one() {
        let path = temp_db("missing");
        assert_eq!(records(&path).unwrap(), Vec::new());
        assert_eq!(next_run(&[]), 1);
    }

    #[test]
    fn corrupt_db_is_rejected_not_clobbered() {
        let path = temp_db("corrupt");
        std::fs::write(&path, "not a db").unwrap();
        let err = append(&path, &record(1, 1.0, 1.0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "not a db");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gate_baseline_is_the_latest_record_of_the_same_workload() {
        let div = record(1, 2.0e8, 4.0e9);
        let mut cavlc = record(2, 9.0e8, 9.0e9);
        cavlc.benchmark = "cavlc".to_owned();
        let history = [div, cavlc];
        let current = record(3, 2.0e8, 4.0e9);
        assert_eq!(gate_baseline(&history, &current).map(|r| r.run), Some(1));
        // Another fleet shape of the same benchmark is another workload.
        let mut wider = record(3, 2.0e8, 4.0e9);
        wider.arrays = 8;
        assert_eq!(gate_baseline(&history, &wider), None);
        let mut more_jobs = record(3, 2.0e8, 4.0e9);
        more_jobs.jobs = 32;
        assert_eq!(gate_baseline(&history, &more_jobs), None);
        // The latest matching record wins over an older one.
        let mut newer_div = record(3, 2.1e8, 4.1e9);
        newer_div.max_cell_writes = 10;
        let history = [history[0].clone(), history[1].clone(), newer_div];
        assert_eq!(
            gate_baseline(&history, &record(4, 2.0e8, 4.0e9)).map(|r| r.run),
            Some(3)
        );
        assert_eq!(gate_baseline(&[], &current), None);
    }

    #[test]
    fn gate_trips_only_beyond_the_tolerance() {
        let prev = record(1, 2.0e8, 4.0e9);
        // Within tolerance (50% floor): fine, even when slower.
        assert!(regression_gate(&prev, &record(2, 1.1e8, 2.1e9), 0.5).is_ok());
        // Simd path collapsed: trips, and names the path.
        let err = regression_gate(&prev, &record(2, 2.0e8, 1.0e9), 0.5).unwrap_err();
        assert!(err.contains("simd throughput regressed"), "{err}");
        assert!(!err.contains("scalar throughput regressed"), "{err}");
        // Both paths collapsed: both named.
        let err = regression_gate(&prev, &record(2, 1.0e7, 1.0e9), 0.5).unwrap_err();
        assert!(err.contains("scalar throughput regressed"), "{err}");
        assert!(err.contains("simd throughput regressed"), "{err}");
        // Zero tolerance is a strict monotonicity gate.
        assert!(regression_gate(&prev, &prev, 0.0).is_ok());
        assert!(regression_gate(&prev, &record(2, 1.9e8, 4.0e9), 0.0).is_err());
    }

    #[test]
    fn gate_guards_the_wear_columns_strictly() {
        let prev = record(1, 2.0e8, 4.0e9);
        // Same wear: fine. Better wear: fine.
        assert!(regression_gate(&prev, &record(2, 2.0e8, 4.0e9), 0.5).is_ok());
        let mut better = record(2, 2.0e8, 4.0e9);
        better.max_cell_writes = 9;
        better.write_stdev = 1.5;
        assert!(regression_gate(&prev, &better, 0.5).is_ok());
        // One more write on the hottest cell: trips, despite identical
        // throughput — wear is deterministic, so there is no tolerance.
        let mut worse = record(2, 2.0e8, 4.0e9);
        worse.max_cell_writes = 12;
        let err = regression_gate(&prev, &worse, 0.5).unwrap_err();
        assert!(err.contains("max per-cell writes regressed"), "{err}");
        let mut wider = record(2, 2.0e8, 4.0e9);
        wider.write_stdev = 2.01;
        let err = regression_gate(&prev, &wider, 0.5).unwrap_err();
        assert!(err.contains("write stdev regressed"), "{err}");
        // A pre-wear-column record (zeros) guards nothing.
        let mut legacy = record(1, 2.0e8, 4.0e9);
        legacy.max_cell_writes = 0;
        legacy.write_stdev = 0.0;
        assert!(regression_gate(&legacy, &worse, 0.5).is_ok());
    }
}
