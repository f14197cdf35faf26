//! Differential suite for the front-end memo: compiling through a shared
//! [`FrontEnds`] memo must give exactly the reports each spec gets on its
//! own.
//!
//! Rewrite and schedule read only the graph, the rewriting algorithm,
//! its effort and the selection policy, so a batch (or a daemon) shares
//! them across every spec that differs only in back-end options: write
//! cap, allocation, peephole, copy-reuse, esat and the backend. IMPLY
//! synthesis reads only the graph and the allocation, so an unlisted
//! IMPLY compile shares its front end's summary for that policy. These
//! tests sweep those options over benchmarks and random graphs and
//! compare rendered reports byte for byte, with the memo roomy, tiny
//! (every entry evicted at once) and tight (one entry at a time).
//!
//! An uncapped RM3 compile leaves its wear summary and translated peak
//! on the front end, and an unlisted compile of the same options under
//! a cap at or above that peak is answered from it. The last tests
//! check those answers against runs that translate every cap.

use std::sync::Arc;

use rlim::benchmarks::Benchmark;
use rlim::compiler::{Allocation, CompileOptions, FrontEnd, FrontKey};
use rlim::mig::blif::{parse_blif, write_blif};
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::service::FrontEnds;
use rlim::{BackendKind, JobSpec, Service};
use rlim_testkit::without_dead_gates;

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
/// compile classes, each report with its listing so programs are
/// compared whole; then each preset's rewriting under every IMPLY
/// allocation, with and without peephole and without a listing, so the
/// summaries the front end keeps per allocation are compared too.
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
        // Unlisted IMPLY compiles read the front end's summary for their
        // allocation: each allocation with and without peephole, each of
        // those with and without further options synthesis ignores.
        for allocation in [Allocation::Lifo, Allocation::MinWrite] {
            for peephole in [false, true] {
                let options = CompileOptions {
                    allocation,
                    ..preset.with_peephole(peephole)
                };
                for options in [options, options.with_max_writes(3).with_copy_reuse(true)] {
                    specs.push(
                        source
                            .clone()
                            .with_options(options)
                            .with_backend(BackendKind::Imp),
                    );
                }
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
            let reports = service.run_batch_with(std::slice::from_ref(spec), &tight);
            reports.unwrap()[0].to_json().render_compact()
        })
        .collect();
    assert_eq!(one_at_a_time, expected);
    let stats = tight.stats();
    assert!(stats.evictions > 0, "{stats:?}");
    assert!(stats.hits > 0, "{stats:?}");
    assert!(stats.bytes <= front.heap_bytes() * 3 / 2, "{stats:?}");
}

/// A graph in memory and a BLIF of it are sources of one structure:
/// through one memo they share one front end per rewriting, and each
/// report is the one its spec gets alone.
///
/// BLIF writes each live gate as a majority cover, and the parser reads
/// such a cover back as that one gate, so the round trip returns the graph
/// node for node, less its dead gates. `dec` has none, so its benchmark
/// source shares the BLIF's front ends too; `ctrl` keeps 23 dead gates of
/// 190, so its benchmark is a second structure that misses once per
/// rewriting.
#[test]
fn sources_of_one_structure_share_their_front_ends() {
    for (benchmark, structures) in [(Benchmark::Dec, 1), (Benchmark::Ctrl, 2)] {
        let mig = benchmark.build();
        let live = without_dead_gates(&mig);
        assert_eq!(live == mig, structures == 1, "{benchmark}");
        let text = write_blif(&mig, benchmark.name());
        assert_eq!(
            parse_blif(&text).unwrap(),
            live,
            "{benchmark} round-trips exactly"
        );
        let path = std::env::temp_dir().join(format!(
            "rlim-frontends-{}-{benchmark}.blif",
            std::process::id()
        ));
        std::fs::write(&path, text).unwrap();
        let sources = [
            JobSpec::benchmark(benchmark),
            JobSpec::mig(live),
            JobSpec::blif_path(&path),
        ];
        let specs: Vec<JobSpec> = sources.iter().flat_map(sweep).collect();
        let memo = FrontEnds::new(usize::MAX);
        let service = Service::new().with_threads(1);
        let shared = rendered(service.run_batch_with(&specs, &memo).unwrap());
        let expected = one_by_one(&specs);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(shared, expected, "{benchmark}");
        // The presets' three rewritings, each rewritten once per
        // structure; every other source hits.
        let stats = memo.stats();
        let misses: u64 = 3 * structures;
        assert_eq!(
            (stats.entries as u64, stats.misses, stats.hits),
            (misses, misses, 9 - misses),
            "{benchmark}"
        );
    }
}

const RM3_CLASS: [BackendKind; 3] = [
    BackendKind::Rm3,
    BackendKind::HostedRm3,
    BackendKind::WideRm3,
];

/// Warms a memo with the uncapped compile of each option set in `sets`
/// on `source`, then sends unlisted RM3-class specs capped from 3 to the
/// translated peak + 2 (3, half the peak, peak − 1, peak, peak + 2)
/// through it. Every report must equal a fresh batch's, in which nothing
/// is uncapped, so every cap is translated. A cap at or above the peak
/// must be answered from the slot, and one below it translated. Returns
/// how many specs the slots answered.
fn capped_misses_equal_translations(source: &JobSpec, sets: &[CompileOptions]) -> usize {
    let memo = FrontEnds::new(usize::MAX);
    let service = Service::new().with_threads(2);
    let mig = source.source().load().unwrap();
    let mut specs = Vec::new();
    let mut answered = 0;
    for &options in sets {
        let uncapped = source.clone().with_options(options);
        service.run_batch_with(&[uncapped], &memo).unwrap();
        let front = memo.get(&mig, FrontKey::of(&options));
        let peak = front
            .rm3_peak(&options)
            .expect("the uncapped compile fills its slot");
        // The lowest cap, one halfway, and the caps around the peak.
        let mut caps: Vec<u64> = [3, peak / 2, peak.saturating_sub(1), peak, peak + 2]
            .into_iter()
            .filter(|&cap| cap >= 3)
            .collect();
        caps.dedup();
        for cap in caps {
            let capped = options.with_max_writes(cap);
            let from_slot = front.rm3_summary(&capped).is_some();
            assert_eq!(from_slot, cap >= peak, "{} {capped:?}", source.label());
            answered += usize::from(from_slot);
            let backend = RM3_CLASS[specs.len() % RM3_CLASS.len()];
            specs.push(source.clone().with_options(capped).with_backend(backend));
        }
    }
    let warm = rendered(service.run_batch_with(&specs, &memo).unwrap());
    let fresh = rendered(Service::new().with_threads(2).run_batch(&specs).unwrap());
    for ((spec, warm), fresh) in specs.iter().zip(&warm).zip(&fresh) {
        assert_eq!(warm, fresh, "{} {:?}", spec.label(), spec.options());
    }
    answered
}

/// Every benchmark under every preset, with and without peephole.
#[test]
fn slot_answers_equal_capped_translations_on_every_benchmark() {
    let mut sets = Vec::new();
    for name in CompileOptions::preset_names() {
        let preset = CompileOptions::preset(name).expect("a listed preset");
        sets.extend([preset, preset.with_peephole(true)]);
    }
    for &benchmark in Benchmark::all() {
        let answered = capped_misses_equal_translations(&JobSpec::benchmark(benchmark), &sets);
        assert!(answered >= 2 * sets.len(), "{benchmark}: {answered}");
    }
}

/// Copy-reuse and small-budget esat, whose peaks are taken over both
/// translate arms and every esat candidate, on the small circuits and
/// random graphs.
#[test]
fn slot_answers_equal_capped_translations_with_reuse_and_esat() {
    for source in sources() {
        let mut sets = Vec::new();
        for name in CompileOptions::preset_names() {
            let preset = CompileOptions::preset(name).expect("a listed preset");
            let esat = preset
                .with_esat(true)
                .with_esat_nodes(2_000)
                .with_esat_iters(2);
            sets.extend([
                preset.with_copy_reuse(true),
                esat,
                esat.with_copy_reuse(true).with_peephole(true),
            ]);
        }
        capped_misses_equal_translations(&source, &sets);
    }
}

/// A listed or fleet spec reads its program, so no slot answers it: a
/// batch mixing them with the uncapped compile equals per-spec runs.
#[test]
fn listed_and_fleet_specs_are_translated() {
    let options = CompileOptions::endurance_aware();
    let source = JobSpec::benchmark(Benchmark::Ctrl);
    let memo = FrontEnds::new(usize::MAX);
    let service = Service::new().with_threads(1);
    service
        .run_batch_with(&[source.clone().with_options(options)], &memo)
        .unwrap();
    let capped = options.with_max_writes(400);
    let specs = [
        source.clone().with_options(capped).with_program_text(true),
        source
            .clone()
            .with_options(capped)
            .with_fleet(rlim::service::FleetSpec::new(2).with_jobs(4)),
        source.clone().with_options(capped),
    ];
    let shared = rendered(service.run_batch_with(&specs, &memo).unwrap());
    assert_eq!(shared, one_by_one(&specs));
    assert!(shared[0].contains("\"program\""), "{}", shared[0]);
}
