//! Fleet-evaluation machinery behind the `fleet` binary: seeded
//! mixed-preset workloads, the fleet-size × dispatch-policy balance
//! matrix, and the endurance-preset lifetime table — all expressed as
//! [`Service`] job batches.
//!
//! A PLiM program's write cost is static, so a fleet serving *identical*
//! jobs is balanced by any policy; dispatch policies only separate on
//! heterogeneous traffic. Each benchmark's workload therefore
//! interleaves the same circuit compiled under two cost-distinct presets
//! — heavy (naive) and light (endurance-aware) jobs alternating, as when
//! unoptimised legacy traffic shares a fleet with endurance-aware
//! traffic. That alternation is the service's standard fleet rider
//! ([`FleetSpec`]); each cell of the balance matrix is one [`JobSpec`]
//! with a seeded rider, and the whole matrix is one
//! [`Service::run_batch`] call. Periodic traffic is the canonical
//! adversary for oblivious striping: round-robin pins every heavy job
//! onto the same subset of arrays whenever the traffic period divides
//! the fleet size, while least-worn-first (wear feedback) is immune to
//! the correlation — the fleet-level analogue of the paper's observation
//! that unbalanced traffic, not total traffic, kills arrays.
//!
//! All rows are deterministic: workloads are seeded per benchmark, the
//! fleet plans dispatch before executing, and reports come back in spec
//! order, so a forced single-thread run renders byte-identical tables to
//! a parallel one (asserted by the binary on every invocation).

use rlim_benchmarks::Benchmark;
use rlim_plim::DispatchPolicy;
use rlim_service::{FleetSpec, JobSpec, Service};

use crate::{fmt_pct, fmt_stdev, improvement, Column, RunPlan, TextTable};

/// Presets reported by the lifetime table, chosen for their distinct
/// write costs (naive ≫ min-write > endurance-aware on most circuits).
pub const MIX: [Column; 3] = [Column::Naive, Column::MinWrite, Column::EnduranceAware];

/// Dispatch policies compared by the balance table.
pub const POLICIES: [DispatchPolicy; 2] = [DispatchPolicy::RoundRobin, DispatchPolicy::LeastWorn];

/// Default job count per workload.
pub const DEFAULT_JOBS: usize = 24;

/// Default fleet sizes swept by the balance table.
pub const DEFAULT_ARRAYS: [usize; 3] = [2, 4, 8];

/// Default workload seed (any fixed value works; this one is stamped into
/// the committed table so reruns reproduce it).
pub const DEFAULT_SEED: u64 = 0xDA7E_2017;

/// The per-benchmark workload seed: the table seed, decorrelated across
/// benchmark indices.
pub fn workload_seed(base: u64, benchmark_index: usize) -> u64 {
    base.wrapping_add(benchmark_index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The balance-matrix cell spec: `benchmark` compiled heavy (naive) and
/// light (endurance-aware at `effort`), alternating over `jobs` seeded
/// random-input executions on `arrays` crossbars under `policy`.
pub fn balance_spec(
    benchmark: Benchmark,
    effort: usize,
    arrays: usize,
    jobs: usize,
    policy: DispatchPolicy,
    seed: u64,
) -> JobSpec {
    JobSpec::benchmark(benchmark)
        .with_options(Column::EnduranceAware.options(effort))
        .with_fleet(
            FleetSpec::new(arrays)
                .with_jobs(jobs)
                .with_dispatch(policy)
                .with_input_seed(seed),
        )
}

/// Renders the fleet-size × dispatch-policy balance table over the plan's
/// benchmarks, as one service batch. Rows are `benchmark × fleet size`;
/// the `impr.` column is the least-worn reduction of the hottest array's
/// writes vs round-robin.
pub fn balance_table(plan: &RunPlan, arrays: &[usize], jobs: usize, seed: u64) -> String {
    let mut cells: Vec<JobSpec> = Vec::new();
    for (i, &benchmark) in plan.benchmarks.iter().enumerate() {
        let seed = workload_seed(seed, i);
        for &n in arrays {
            for policy in POLICIES {
                cells.push(balance_spec(benchmark, plan.effort, n, jobs, policy, seed));
            }
        }
    }
    let reports = Service::new()
        .with_threads(plan.threads)
        .run_batch(&cells)
        .expect("unbudgeted fleets cannot be exhausted");

    let mut table = TextTable::new([
        "benchmark",
        "arrays",
        "jobs",
        "rr max",
        "rr stdev",
        "lw max",
        "lw stdev",
        "impr.",
    ]);
    let mut rows = reports.iter();
    for &benchmark in &plan.benchmarks {
        for &n in arrays {
            let rr = rows.next().expect("one report per cell").fleet.as_ref();
            let lw = rows.next().expect("one report per cell").fleet.as_ref();
            let (rr, lw) = (rr.expect("fleet rider"), lw.expect("fleet rider"));
            table.row([
                benchmark.name().to_string(),
                n.to_string(),
                jobs.to_string(),
                rr.wear.array_totals.max.to_string(),
                fmt_stdev(rr.wear.array_totals.stdev),
                lw.wear.array_totals.max.to_string(),
                fmt_stdev(lw.wear.array_totals.stdev),
                fmt_pct(improvement(
                    rr.wear.array_totals.max as f64,
                    lw.wear.array_totals.max as f64,
                )),
            ]);
        }
    }
    table.render()
}

/// Renders the endurance-preset lifetime table: per benchmark × preset,
/// the program's write cost and peak, and how many executions one array
/// and a fleet of `fleet_arrays` survive at the HfOx device endurance —
/// straight off each report's lifetime projection.
pub fn lifetime_table(plan: &RunPlan, fleet_arrays: usize) -> String {
    let mut cells: Vec<(Benchmark, Column)> = Vec::new();
    for &benchmark in &plan.benchmarks {
        cells.extend(MIX.map(|preset| (benchmark, preset)));
    }
    let specs: Vec<JobSpec> = cells
        .iter()
        .map(|&(b, preset)| {
            JobSpec::benchmark(b)
                .with_options(preset.options(plan.effort))
                .with_projection_arrays(fleet_arrays)
        })
        .collect();
    let reports = Service::new()
        .with_threads(plan.threads)
        .run_batch(&specs)
        .expect("benchmark compilations cannot fail");

    let mut table = TextTable::new(vec![
        "benchmark".to_string(),
        "preset".to_string(),
        "#I".to_string(),
        "peak/run".to_string(),
        "runs (1 array)".to_string(),
        format!("runs (fleet of {fleet_arrays})"),
    ]);
    for ((benchmark, preset), report) in cells.iter().zip(&reports) {
        table.row([
            benchmark.name().to_string(),
            preset.label(),
            report.instructions.to_string(),
            report.writes.max.to_string(),
            report.lifetime.single_array_runs.to_string(),
            report.lifetime.fleet_runs.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan(threads: usize) -> RunPlan {
        RunPlan {
            benchmarks: vec![Benchmark::Ctrl, Benchmark::Int2float],
            effort: 2,
            threads,
        }
    }

    /// The acceptance-critical determinism property: forced-serial and
    /// parallel runs render byte-identical tables.
    #[test]
    fn balance_table_serial_equals_parallel() {
        let serial = balance_table(&tiny_plan(1), &[2, 4], 12, DEFAULT_SEED);
        let parallel = balance_table(&tiny_plan(0), &[2, 4], 12, DEFAULT_SEED);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn least_worn_beats_round_robin_on_periodic_traffic() {
        let service = Service::new();
        for benchmark in [Benchmark::Ctrl, Benchmark::Router, Benchmark::Cavlc] {
            for arrays in [2usize, 4] {
                let cell = |policy| {
                    let spec = balance_spec(benchmark, 2, arrays, 24, policy, DEFAULT_SEED);
                    let report = service.run(&spec).unwrap();
                    report.fleet.unwrap().wear.array_totals.max
                };
                let rr = cell(DispatchPolicy::RoundRobin);
                let lw = cell(DispatchPolicy::LeastWorn);
                assert!(
                    lw < rr,
                    "{benchmark}/{arrays}: least-worn max {lw} !< round-robin max {rr}"
                );
            }
        }
    }

    #[test]
    fn workload_is_seeded_and_alternating() {
        let spec = balance_spec(Benchmark::Ctrl, 1, 2, 16, DispatchPolicy::LeastWorn, 7);
        let a = Service::new().run(&spec).unwrap();
        let b = Service::new().run(&spec).unwrap();
        // Same seed, same wear — the serialized report (which excludes
        // wall-clock timings) is fully reproducible.
        assert_eq!(a.to_json_string(), b.to_json_string());
        let fleet = a.fleet.expect("fleet rider");
        // The two presets must actually differ in cost, otherwise the
        // policies cannot separate.
        assert_ne!(fleet.heavy_instructions, fleet.light_instructions);
        // Alternating heavy-first over 16 jobs: 8 heavy + 8 light.
        assert_eq!(
            fleet.stream_writes,
            8 * (fleet.heavy_instructions + fleet.light_instructions) as u64
        );
    }

    #[test]
    fn lifetime_table_contains_every_preset() {
        let text = lifetime_table(&tiny_plan(1), 4);
        for preset in MIX {
            assert!(text.contains(&preset.label()), "{text}");
        }
    }
}
