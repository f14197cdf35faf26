//! Differential suite for the front-end memo: compiling through a shared
//! [`FrontEnds`] memo must give exactly the reports each spec gets on its
//! own.
//!
//! Rewrite and schedule read only the graph, the rewriting algorithm,
//! its effort and the selection policy, so a batch (or a daemon) shares
//! them across every spec that differs only in back-end options: write
//! cap, allocation, peephole, copy-reuse, esat and the backend. These
//! tests sweep those options over benchmarks and random graphs and
//! compare rendered reports byte for byte, with the memo roomy, tiny
//! (every entry evicted at once) and tight (one entry at a time).

use std::sync::Arc;

use rlim::benchmarks::Benchmark;
use rlim::compiler::{CompileOptions, FrontEnd, FrontKey};
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::service::FrontEnds;
use rlim::{BackendKind, JobSpec, Service};

const BACKENDS: [BackendKind; 4] = [
    BackendKind::Rm3,
    BackendKind::HostedRm3,
    BackendKind::WideRm3,
    BackendKind::Imp,
];

/// Three benchmarks and two random graphs.
fn sources() -> Vec<JobSpec> {
    let mut sources: Vec<JobSpec> = [Benchmark::Ctrl, Benchmark::Int2float, Benchmark::Dec]
        .into_iter()
        .map(JobSpec::benchmark)
        .collect();
    for seed in [3, 11] {
        let config = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 120,
            ..Default::default()
        };
        sources.push(JobSpec::shared_mig(Arc::new(generate(&config, seed))));
    }
    sources
}

/// Every preset × caps {none, 3, 20} × every backend, plus each preset
/// with copy-reuse, with peephole and with (small-budget) esat on both
/// compile classes; every report carries its listing, so programs are
/// compared whole.
fn sweep(source: &JobSpec) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for name in CompileOptions::preset_names() {
        let preset = CompileOptions::preset(name).expect("a listed preset");
        let mut options = Vec::new();
        for cap in [None, Some(3), Some(20)] {
            options.push((
                CompileOptions {
                    max_writes: cap,
                    ..preset
                },
                &BACKENDS[..],
            ));
        }
        let classes = &[BackendKind::Rm3, BackendKind::Imp][..];
        options.push((preset.with_copy_reuse(true), classes));
        options.push((preset.with_peephole(true), classes));
        let esat = preset
            .with_esat(true)
            .with_esat_nodes(2_000)
            .with_esat_iters(2);
        options.push((esat, classes));
        for (options, backends) in options {
            for &backend in backends {
                specs.push(
                    source
                        .clone()
                        .with_options(options)
                        .with_backend(backend)
                        .with_program_text(true),
                );
            }
        }
    }
    specs
}

fn rendered(reports: Vec<rlim::Report>) -> Vec<String> {
    reports
        .iter()
        .map(|r| r.to_json().render_compact())
        .collect()
}

/// Each spec on its own: a fresh front end per run, nothing shared.
fn one_by_one(specs: &[JobSpec]) -> Vec<String> {
    let service = Service::new().with_threads(1);
    specs
        .iter()
        .map(|spec| service.run(spec).unwrap().to_json().render_compact())
        .collect()
}

#[test]
fn shared_memo_batches_equal_per_spec_runs_byte_for_byte() {
    let memo = FrontEnds::new(usize::MAX);
    let service = Service::new().with_threads(2);
    for source in sources() {
        let specs = sweep(&source);
        let shared = rendered(service.run_batch_with(&specs, &memo).unwrap());
        assert_eq!(shared, one_by_one(&specs), "source {}", source.label());
    }
    let stats = memo.stats();
    // Five sources under the presets' three rewritings (none, Alg. 1,
    // Alg. 2): one front end each, rewritten once, never evicted.
    assert_eq!((stats.entries, stats.misses, stats.evictions), (15, 15, 0));
    assert!(stats.bytes > 0);
}

#[test]
fn evicting_memos_recompute_the_same_bytes() {
    let source = JobSpec::benchmark(Benchmark::Ctrl);
    let specs = sweep(&source);
    let expected = one_by_one(&specs);
    let service = Service::new().with_threads(1);

    // A memo no entry fits: every front end is evicted as it is stored,
    // so a second run recomputes them all.
    let tiny = FrontEnds::new(1);
    for round in 1..=2 {
        let reports = rendered(service.run_batch_with(&specs, &tiny).unwrap());
        assert_eq!(reports, expected, "round {round}");
        let stats = tiny.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions),
            (0, 3 * round, 3 * round)
        );
    }

    // Room for about one scheduled front end: spec by spec through one
    // memo, entries come and go as the sweep moves between rewritings.
    let mig = Arc::new(Benchmark::Ctrl.build());
    let options = CompileOptions::endurance_aware();
    let front = FrontEnd::new(&mig, FrontKey::of(&options));
    front.schedule(options.selection);
    let tight = FrontEnds::new(front.heap_bytes() * 3 / 2);
    let one_at_a_time: Vec<String> = specs
        .iter()
        .map(|spec| {
            let report = service.run_with(spec, &tight).unwrap();
            report.to_json().render_compact()
        })
        .collect();
    assert_eq!(one_at_a_time, expected);
    let stats = tight.stats();
    assert!(stats.evictions > 0, "{stats:?}");
    assert!(stats.hits > 0, "{stats:?}");
    assert!(stats.bytes <= front.heap_bytes() * 3 / 2, "{stats:?}");
}
