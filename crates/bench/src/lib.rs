//! Benchmark support for the rlim workspace.
//!
//! The Criterion micro-benchmarks live under `benches/`; the wall-clock
//! harness is `src/bin/bench_compile.rs`. This library holds the pieces
//! the harness shares with the workspace test suite:
//!
//! * [`db`] — the append-only bench database (`BENCH_db.json`): one
//!   fleet-throughput record per run, with a regression gate against the
//!   latest committed record of the same workload.
//! * [`baseline_totals`] / [`speedup_vs_prev_commit`] — parsing of a
//!   previously **committed** `BENCH_compile.json` and the per-benchmark
//!   speedup against it.
//!
//! ## `speedup_vs_prev_commit` semantics
//!
//! The per-benchmark speedup column compares this run's wall-clock
//! against the `total_seconds` of the *previously committed*
//! `BENCH_compile.json` passed via `--baseline` — i.e. the trajectory
//! from PR to PR, **not** a fixed first-ever baseline. (The field was
//! historically named `speedup_vs_baseline`, which silently stopped
//! meaning "vs the original seed" once the committed file started being
//! regenerated each PR; the name now says what it measures.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;

use rlim_service::json::{self, Fields, Json};

/// Extracts `(name, total_seconds)` pairs from the `benchmarks` rows of
/// a previously written `BENCH_compile.json` document. Rows missing
/// either key, and documents that do not parse, contribute nothing.
pub fn baseline_totals(text: &str) -> Vec<(String, f64)> {
    let Ok(doc) = json::parse(text) else {
        return Vec::new();
    };
    let rows = match Fields::of(&doc, "bench").map(|d| d.get("benchmarks")) {
        Ok(Some(Json::Array(rows))) => rows.as_slice(),
        _ => &[],
    };
    rows.iter()
        .filter_map(|row| {
            let row = Fields::of(row, "row").ok()?;
            Some((
                row.str("name").ok()?.to_owned(),
                row.f64("total_seconds").ok()?,
            ))
        })
        .collect()
}

/// The speedup of `total_seconds` for `name` against the previously
/// committed run's totals (> 1 means this run is faster). `None` when
/// the previous commit did not measure `name`.
pub fn speedup_vs_prev_commit(
    previous: &[(String, f64)],
    name: &str,
    total_seconds: f64,
) -> Option<f64> {
    previous
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, prev_seconds)| prev_seconds / total_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": 1,
  "benchmarks": [
    {
      "name": "div",
      "rewrite_seconds": 1.000000,
      "total_seconds": 2.000000,
      "instructions": 100
    },
    {
      "name": "voter",
      "total_seconds": 0.500000
    }
  ]
}
"#;

    #[test]
    fn baseline_totals_scrapes_name_total_pairs() {
        let totals = baseline_totals(SAMPLE);
        assert_eq!(
            totals,
            vec![("div".to_owned(), 2.0), ("voter".to_owned(), 0.5)]
        );
    }

    /// The satellite fix: the speedup column is *vs the previously
    /// committed run* — a faster run reads > 1, a slower one < 1, and a
    /// benchmark absent from the previous commit has no speedup at all.
    #[test]
    fn speedup_is_against_the_previous_commit() {
        let previous = baseline_totals(SAMPLE);
        assert_eq!(speedup_vs_prev_commit(&previous, "div", 1.0), Some(2.0));
        assert_eq!(speedup_vs_prev_commit(&previous, "div", 4.0), Some(0.5));
        assert_eq!(speedup_vs_prev_commit(&previous, "voter", 0.5), Some(1.0));
        assert_eq!(speedup_vs_prev_commit(&previous, "adder", 1.0), None);
    }
}
