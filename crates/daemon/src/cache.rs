//! The daemon's compile cache: finished report lines keyed by the full
//! semantic identity of a job.
//!
//! The key is the Strash fingerprint of the source graph followed by the
//! spec's canonical compact wire encoding with the source dropped and
//! the backend replaced by its compile class — see [`cache_key`]. The
//! key therefore has no field list of its own: whatever the wire
//! carries, the key carries, so a new option reaches it without anyone
//! touching this module. Three consequences fall out of that derivation:
//!
//! * **Backend-class sharing.** `rm3`, `hosted-rm3` and `rm3-wide`
//!   execute the same compiled program, so they share one entry, exactly
//!   as [`rlim_service::Service::run_batch`]'s in-batch dedup shares one
//!   compile. The report's `label` and `backend` fields are written per
//!   request on a hit.
//! * **Source-identity, not source-spelling.** The fingerprint hashes
//!   the graph structure ([`rlim_mig::Mig::fingerprint`]), so a BLIF
//!   file that parses to the same graph as a named benchmark hits the
//!   benchmark's entry.
//! * **Riders are identity.** A fleet/chaos rider, including the fault
//!   seed, is part of the key: a chaos run is never served a fault-free
//!   cached fleet section, and two runs differing only in `--fault-seed`
//!   miss each other's entries. Chaos floats must be exact at their wire
//!   precision (see [`crate::wire`]), so equal key bytes mean an equal
//!   fault model.
//!
//! An entry is a [`CachedReply`]: the miss's compact reply line, rendered
//! once and shared with the connection that asked for it. A hit splices
//! its own `label` and `backend` onto the stored body and ends it with
//! `"cached":true`, so serving it costs one copy of the line.
//!
//! Eviction is least-recently-used over a bounded entry count (an
//! [`Lru`] weighing each entry 1), with hit/miss/eviction counters
//! surfaced through the `metrics` verb. Lookups, inserts and evictions
//! are O(1).

use std::fmt::Write as _;
use std::sync::Arc;

use rlim_service::json;
use rlim_service::lru::Lru;
use rlim_service::{Error, JobSpec, Report, REPORT_SCHEMA_VERSION};

use crate::wire;

/// Cache observability counters, serialized inside the `metrics` verb's
/// payload (deliberately *not* inside reports, so a cache hit stays
/// byte-identical to its original miss modulo `cached`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Maximum entries before LRU eviction.
    pub capacity: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a compile.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// The derived cache key for a job: the source graph's structural
/// `fingerprint`, then the spec's wire encoding without its source and
/// with its backend's compile class (see the module docs).
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] when the spec has no exact wire
/// encoding: a chaos float that its wire precision would round.
pub fn cache_key(fingerprint: u128, spec: &JobSpec) -> Result<String, Error> {
    Ok(format!(
        "{fingerprint:032x}{}",
        wire::encode_identity(spec)?
    ))
}

/// The tail of a miss's reply line, newline included.
const MISS_TAIL: &str = "\"cached\":false}\n";
/// The tail a hit puts in its place.
const HIT_TAIL: &str = "\"cached\":true}\n";

/// Appends a report line's head: every field before `policy`, the only
/// ones besides `cached` that differ between requests sharing an entry.
fn write_head(out: &mut String, label: &str, backend: &str) {
    let _ = write!(
        out,
        "{{\"schema\":{REPORT_SCHEMA_VERSION},\"label\":{},\"backend\":{}",
        json::escape(label),
        json::escape(backend)
    );
}

/// A miss's rendered reply line, shared between the cache and the
/// connection that asked for it, with the offset where its body starts.
///
/// A compact report line is laid out as the head (`schema`, `label`,
/// `backend`), the body (from `,"policy":` through `"fleet":…,`) and
/// the tail `"cached":false}`. The body depends only on the cache key,
/// so [`CachedReply::splice`] answers any request sharing the key by
/// writing that request's head around a copy of it.
#[derive(Debug, Clone)]
pub struct CachedReply {
    line: Arc<String>,
    body: usize,
}

impl CachedReply {
    /// Renders a freshly compiled `report` as a reply line (with its
    /// trailing newline) and records where the body starts.
    ///
    /// # Panics
    ///
    /// Panics if `report` is marked `cached` (only a miss fills an
    /// entry), or if its line does not open with `schema`, `label` and
    /// `backend` and close with `cached`, the layout a hit splices into.
    pub fn render(report: &Report) -> Self {
        assert!(!report.cached, "only a compiled report fills an entry");
        let mut line = report.to_json().render_compact();
        line.push('\n');
        // An entry outlives many requests: drop the render's growth slack
        // (glibc's realloc shrinks a block in place).
        line.shrink_to_fit();
        let mut head = String::new();
        write_head(&mut head, &report.label, report.backend);
        // The layout is `Report::to_json`'s key order; a reorder there
        // must fail here, not corrupt every later hit.
        assert!(
            line.starts_with(&head) && line.ends_with(MISS_TAIL),
            "a report line starts with schema, label and backend and ends with cached"
        );
        CachedReply {
            line: Arc::new(line),
            body: head.len(),
        }
    }

    /// The miss's own reply line, newline included.
    pub fn line(&self) -> &Arc<String> {
        &self.line
    }

    /// The reply line for a request `spec` sharing this entry: the
    /// spec's own `label` and `backend`, this entry's body, and
    /// `"cached":true`. Equals the miss's report re-personalized for the
    /// request and rendered with `render_compact`, plus the newline.
    pub fn splice(&self, spec: &JobSpec) -> String {
        let label = spec.label();
        let body = &self.line[self.body..self.line.len() - MISS_TAIL.len()];
        let mut out = String::with_capacity(label.len() + body.len() + 64);
        write_head(&mut out, &label, spec.backend().name());
        out.push_str(body);
        out.push_str(HIT_TAIL);
        out
    }
}

/// The bounded LRU reply cache. Not internally synchronized — the
/// daemon wraps it in a `Mutex` and keeps compiles and renders outside
/// the lock.
#[derive(Debug)]
pub struct ReportCache {
    /// Every entry weighs 1, so the bound is an entry count.
    lru: Lru<String, CachedReply>,
    hits: u64,
    misses: u64,
}

impl ReportCache {
    /// A cache holding at most `capacity` replies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        ReportCache {
            lru: Lru::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, counting a hit (and refreshing recency) or a
    /// miss. The returned entry answers the requesting spec through
    /// [`CachedReply::splice`].
    pub fn lookup(&mut self, key: &str) -> Option<CachedReply> {
        let hit = self.hit(key);
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// Looks `key` up, counting and refreshing a hit but counting no
    /// miss: for a probe whose absence a later [`ReportCache::lookup`]
    /// of the same key will count.
    pub fn hit(&mut self, key: &str) -> Option<CachedReply> {
        let reply = self.lru.get(key)?.clone();
        self.hits += 1;
        Some(reply)
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one when at capacity.
    pub fn insert(&mut self, key: String, reply: CachedReply) {
        self.lru.insert(key, reply, 1);
    }

    /// The current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.lru.len(),
            capacity: self.lru.capacity(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.lru.evictions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rlim_benchmarks::Benchmark;
    use rlim_compiler::CompileOptions;
    use rlim_service::{BackendKind, ChaosSpec, FleetSpec, Service};
    use std::collections::HashMap;

    fn reply() -> CachedReply {
        let report = Service::new()
            .run(&JobSpec::benchmark(Benchmark::Ctrl))
            .unwrap();
        CachedReply::render(&report)
    }

    fn key(fingerprint: u128, spec: &JobSpec) -> String {
        cache_key(fingerprint, spec).unwrap()
    }

    #[test]
    fn backend_classes_share_keys_but_imp_does_not() {
        let fp = 7u128;
        let rm3 = key(fp, &JobSpec::benchmark(Benchmark::Ctrl));
        let hosted = key(
            fp,
            &JobSpec::benchmark(Benchmark::Ctrl).with_backend(BackendKind::HostedRm3),
        );
        let wide = key(
            fp,
            &JobSpec::benchmark(Benchmark::Ctrl).with_backend(BackendKind::WideRm3),
        );
        let imp = key(
            fp,
            &JobSpec::benchmark(Benchmark::Ctrl).with_backend(BackendKind::Imp),
        );
        assert_eq!(rm3, hosted);
        assert_eq!(rm3, wide);
        assert_ne!(rm3, imp);
        // The source label is *not* part of the key — identity comes
        // from the fingerprint alone.
        assert_eq!(rm3, key(fp, &JobSpec::blif_path("/some/file.blif")));
        assert_ne!(rm3, key(8, &JobSpec::benchmark(Benchmark::Ctrl)));
    }

    #[test]
    fn riders_are_part_of_the_key() {
        let fp = 7u128;
        let base = JobSpec::benchmark(Benchmark::Ctrl);
        let fleet = base.clone().with_fleet(FleetSpec::new(2));
        let chaos_a = base
            .clone()
            .with_fleet(FleetSpec::new(2).with_chaos(ChaosSpec::new(1)));
        let chaos_b = base
            .clone()
            .with_fleet(FleetSpec::new(2).with_chaos(ChaosSpec::new(2)));
        assert_ne!(key(fp, &base), key(fp, &fleet));
        // A chaos run never matches a fault-free fleet entry…
        assert_ne!(key(fp, &fleet), key(fp, &chaos_a));
        // …and the fault seed alone separates chaos entries.
        assert_ne!(key(fp, &chaos_a), key(fp, &chaos_b));
        // Program and projection riders change the report, so the key.
        assert_ne!(
            key(fp, &base),
            key(fp, &base.clone().with_program_text(true))
        );
        assert_ne!(
            key(fp, &base),
            key(fp, &base.clone().with_projection_arrays(9))
        );
    }

    #[test]
    fn chaos_floats_the_wire_would_round_have_no_key() {
        // 0.25 and 0.25001 render alike at the wire's four decimals; a
        // key for the latter would share the former's entry.
        let sigma = |s: f64| {
            JobSpec::benchmark(Benchmark::Ctrl)
                .with_fleet(FleetSpec::new(2).with_chaos(ChaosSpec::new(1).with_endurance_sigma(s)))
        };
        assert!(cache_key(7, &sigma(0.25)).is_ok());
        assert!(cache_key(7, &sigma(0.25001)).unwrap_err().is_usage());
    }

    #[test]
    fn copy_options_never_share_cache_entries() {
        // Copy discovery changes the emitted program, so a reuse job must
        // never be served a baseline entry (or vice versa) — the option
        // is part of the key like every other policy knob.
        let fp = 7u128;
        let base = JobSpec::benchmark(Benchmark::Ctrl);
        let reuse = base
            .clone()
            .with_options(base.options().with_copy_reuse(true));
        assert_ne!(key(fp, &base), key(fp, &reuse));
    }

    #[test]
    fn esat_options_never_share_cache_entries() {
        // Equality saturation rewrites the graph the program is compiled
        // from, and its budgets change what the saturation explores — an
        // esat job must never be served a greedy-only entry, nor may two
        // runs with different budgets share one.
        let fp = 7u128;
        let base = JobSpec::benchmark(Benchmark::Ctrl);
        let esat = base.clone().with_options(base.options().with_esat(true));
        assert_ne!(key(fp, &base), key(fp, &esat));
        let narrow = base
            .clone()
            .with_options(base.options().with_esat(true).with_esat_nodes(1_000));
        let short = base
            .clone()
            .with_options(base.options().with_esat(true).with_esat_iters(1));
        assert_ne!(key(fp, &esat), key(fp, &narrow));
        assert_ne!(key(fp, &esat), key(fp, &short));
        assert_ne!(key(fp, &narrow), key(fp, &short));
    }

    #[test]
    fn lru_eviction_and_counters() {
        let mut cache = ReportCache::new(2);
        let r = reply();
        assert!(cache.lookup("a").is_none());
        cache.insert("a".into(), r.clone());
        cache.insert("b".into(), r.clone());
        assert!(cache.lookup("a").is_some(), "hit refreshes recency");
        cache.insert("c".into(), r.clone());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(cache.lookup("b").is_none(), "b was least recently used");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 2));
        // Re-inserting an existing key refreshes without evicting.
        cache.insert("a".into(), r);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn probes_count_hits_but_never_misses() {
        let mut cache = ReportCache::new(2);
        assert!(cache.hit("a").is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
        cache.insert("a".into(), reply());
        cache.insert("b".into(), reply());
        assert!(cache.hit("a").is_some(), "a probe refreshes recency");
        cache.insert("c".into(), reply());
        assert!(cache.hit("b").is_none(), "b was least recently used");
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 0));
    }

    /// The cache as it was before the recency list: a tick per access
    /// and a scan for the oldest entry on every eviction.
    #[derive(Default)]
    struct ScanLru {
        last_used: HashMap<u8, u64>,
        tick: u64,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The linked recency order evicts exactly what a full scan for
        /// the least recently used entry would.
        #[test]
        fn eviction_order_matches_a_full_scan(
            capacity in 1usize..6,
            ops in proptest::collection::vec((any::<bool>(), 0u8..10), 0..80),
        ) {
            let entry = reply();
            let mut cache = ReportCache::new(capacity);
            let mut model = ScanLru::default();
            for (insert, k) in ops {
                model.tick += 1;
                let key = k.to_string();
                if insert {
                    if !model.last_used.contains_key(&k) && model.last_used.len() >= capacity {
                        let victim = *model.last_used.iter().min_by_key(|(_, t)| **t).unwrap().0;
                        model.last_used.remove(&victim);
                    }
                    model.last_used.insert(k, model.tick);
                    cache.insert(key, entry.clone());
                } else {
                    let hit = model.last_used.get_mut(&k).map(|t| *t = model.tick).is_some();
                    prop_assert_eq!(cache.lookup(&key).is_some(), hit);
                }
                prop_assert_eq!(cache.stats().entries, model.last_used.len());
            }
        }
    }

    /// Labels as BLIF paths that need escaping: quotes, backslashes,
    /// control bytes and non-ASCII between plain runs.
    fn label_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                Just('"'),
                Just('\\'),
                (1u8..0x20).prop_map(char::from),
                Just('\u{7f}'),
                Just('é'),
                Just('Ω'),
                Just('\u{1d11e}'),
                (0x20u8..0x7f).prop_map(char::from),
            ],
            0..24,
        )
        .prop_map(|chars| format!("/tmp/{}.blif", chars.into_iter().collect::<String>()))
    }

    const BACKENDS: [BackendKind; 4] = [
        BackendKind::Rm3,
        BackendKind::HostedRm3,
        BackendKind::WideRm3,
        BackendKind::Imp,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A spliced hit is byte-identical to the miss's report
        /// personalized for the hit's request and rendered whole.
        #[test]
        fn spliced_hits_equal_personalized_renders(
            bench in prop_oneof![Just(Benchmark::Ctrl), Just(Benchmark::Int2float), Just(Benchmark::Dec)],
            preset in 0usize..5,
            backend in 0usize..4,
            program in any::<bool>(),
            fleet in prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
            miss_label in label_strategy(),
            hit_label in label_strategy(),
        ) {
            let options = CompileOptions::preset(CompileOptions::preset_names()[preset])
                .expect("a listed preset");
            let mut spec = JobSpec::benchmark(bench)
                .with_backend(BACKENDS[backend])
                .with_options(options)
                .with_program_text(program);
            // Fleets execute RM3 programs only.
            if let Some(chaos) = fleet.filter(|_| BACKENDS[backend] != BackendKind::Imp) {
                let fleet = FleetSpec::new(2).with_jobs(4);
                spec = spec.with_fleet(if chaos { fleet.with_chaos(ChaosSpec::new(3)) } else { fleet });
            }
            let mut report = Service::new().with_threads(1).run(&spec).unwrap();
            report.label = miss_label;
            let entry = CachedReply::render(&report);
            prop_assert_eq!(
                entry.line().as_str(),
                format!("{}\n", report.to_json().render_compact())
            );
            for hit_backend in BACKENDS {
                let hit = JobSpec::blif_path(&hit_label).with_backend(hit_backend);
                report.label = hit.label();
                report.backend = hit_backend.name();
                report.cached = true;
                prop_assert_eq!(
                    entry.splice(&hit),
                    format!("{}\n", report.to_json().render_compact())
                );
            }
        }
    }
}
