//! The `serve` workload: an in-process daemon on loopback with one
//! worker, driven by two closed-loop clients (one connection each).
//!
//! Each client's seeded stream repeats one of its own 16 latest misses
//! three times in four (cache hits) and otherwise sends a spec no
//! request sent before (a miss): a small or medium benchmark under one
//! of the presets, an optional max-writes cap and one of the `rm3`,
//! `hosted-rm3`, `rm3-wide` and `imp` backends. One miss in seven, and
//! so about one request in seven, asks for the program listing, so some
//! reply lines are large.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use rlim_benchmarks::Benchmark;
use rlim_compiler::CompileOptions;
use rlim_daemon::wire::{decode_response, encode_request};
use rlim_daemon::{serve, Client, DaemonConfig, DaemonHandle, Request, Response};
use rlim_mig::Mig;
use rlim_service::{BackendKind, JobSpec, Service};

use crate::compile::report_matches;
use crate::rng::Rng;
use crate::{push_latencies, stats, timed_setup, Outcome, Scale};

/// Stream tag of the serve workload's generators (one per client).
const STREAM: u64 = 3;
/// Client connections; each is one closed loop.
const CLIENTS: usize = 2;
/// Daemon workers.
const WORKERS: usize = 1;
/// Requests generated per client: more than any run sends.
const STREAM_LEN: usize = 40_000;
/// A repeat draws from this many of the connection's latest misses.
const RECENT: usize = 16;
/// Misses whose reply is compared with a direct `Service::run`.
const DIRECT_CHECKS: usize = 16;
/// Listing replies per client whose program is executed after the run.
const LISTING_CHECKS: usize = 32;
/// Tail percentile over single round trips.
const TAIL: f64 = 99.0;

/// The benchmarks misses draw from: every circuit whose compile takes
/// at most a few milliseconds.
const POOL: [Benchmark; 12] = [
    Benchmark::Cavlc,
    Benchmark::Ctrl,
    Benchmark::Dec,
    Benchmark::Int2float,
    Benchmark::Priority,
    Benchmark::Router,
    Benchmark::I2c,
    Benchmark::Sin,
    Benchmark::Max,
    Benchmark::Bar,
    Benchmark::Adder,
    Benchmark::Voter,
];

/// The pool entries listings are asked for: `cavlc`, `dec`, `priority`,
/// `i2c`, `bar` and `adder`, whose listing replies are 11–65 KB under
/// every preset. Replies above the server's 8 KiB write buffer take a
/// different path through the socket than smaller ones (about 40 ms
/// against 1 ms on loopback on a 2-vCPU VM), so mixing both sizes
/// would put the listing median on the edge between two modes.
const LISTINGS: [usize; 6] = [0, 2, 4, 6, 9, 10];

const BACKENDS: [BackendKind; 4] = [
    BackendKind::Rm3,
    BackendKind::HostedRm3,
    BackendKind::WideRm3,
    BackendKind::Imp,
];

/// One request of a client's stream.
#[derive(Debug, Clone)]
struct Req {
    spec: JobSpec,
    /// Index of the request that first sent this spec (itself for a miss).
    origin: usize,
    bench: usize,
}

impl Req {
    fn is_miss(&self, index: usize) -> bool {
        self.origin == index
    }

    fn kind(&self, index: usize) -> usize {
        if self.spec.includes_program() {
            2
        } else if self.is_miss(index) {
            1
        } else {
            0
        }
    }
}

/// The compile-cache identity fields of a miss spec: benchmark, preset,
/// max-writes cap, IMPLY class, listing.
type MissKey = (usize, usize, Option<u64>, bool, bool);

/// Every this-many misses of a client ask for the listing.
const LISTING_PERIOD: usize = 7;

/// Both clients' request streams. Misses are unique across both
/// streams, since the daemon's cache is shared.
///
/// The miss sequence cycles through the pool's benchmarks and the
/// presets, and every seventh miss asks for the listing, so every seed
/// sends the same mix of circuits; the seed draws the caps, backends
/// and which recent spec each repeat sends.
fn streams(seed: u64, len: usize) -> Vec<Vec<Req>> {
    let presets = CompileOptions::preset_names();
    let mut rngs: Vec<Rng> = (0..CLIENTS as u64)
        .map(|c| Rng::new(seed, STREAM + c))
        .collect();
    let mut used: HashSet<MissKey> = HashSet::new();
    let mut out: Vec<Vec<Req>> = (0..CLIENTS).map(|_| Vec::with_capacity(len)).collect();
    let mut misses = [0usize; CLIENTS];
    // Each client's latest misses, by request index.
    let mut recent: Vec<Vec<usize>> = vec![Vec::new(); CLIENTS];
    for i in 0..len {
        for (client, rng) in rngs.iter_mut().enumerate() {
            let stream = &mut out[client];
            let recent = &mut recent[client];
            if i > 0 && rng.chance(3, 4) {
                let repeat = stream[recent[rng.below(recent.len())]].clone();
                stream.push(repeat);
                continue;
            }
            if recent.len() == RECENT {
                recent.remove(0);
            }
            recent.push(i);
            let k = misses[client] + client * POOL.len() / CLIENTS;
            misses[client] += 1;
            let listing = k % LISTING_PERIOD == LISTING_PERIOD - 1;
            // Listings are RM3 assembly, which only the RM3 class emits.
            let backend = BACKENDS[rng.below(BACKENDS.len() - usize::from(listing))];
            let bench = if listing {
                LISTINGS[k / LISTING_PERIOD % LISTINGS.len()]
            } else {
                k % POOL.len()
            };
            let mut key: MissKey = (
                bench,
                k / POOL.len() % presets.len(),
                rng.chance(1, 2).then(|| 5 + rng.below(396) as u64),
                backend == BackendKind::Imp,
                listing,
            );
            // Redraw only the cap on a collision.
            while !used.insert(key) {
                key.2 = Some(5 + rng.below(396) as u64);
            }
            let (bench, preset, max_writes, _, listing) = key;
            let mut options = CompileOptions::preset(presets[preset]).expect("canonical preset");
            if let Some(cap) = max_writes {
                options = options.with_max_writes(cap);
            }
            stream.push(Req {
                spec: JobSpec::benchmark(POOL[bench])
                    .with_backend(backend)
                    .with_options(options)
                    .with_program_text(listing),
                origin: i,
                bench,
            });
        }
    }
    out
}

/// A running daemon, shut down and joined when dropped.
struct Daemon(Option<DaemonHandle>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.shutdown();
            handle.join();
        }
    }
}

impl Daemon {
    fn handle(&self) -> &DaemonHandle {
        self.0.as_ref().expect("daemon runs until dropped")
    }
}

/// Boots the daemon and warms it: one request per pool benchmark builds
/// the daemon's source graphs, under a spec the streams never send.
fn boot() -> Daemon {
    let handle = serve(DaemonConfig {
        workers: WORKERS,
        ..Default::default()
    })
    .expect("the daemon binds a loopback port");
    let daemon = Daemon(Some(handle));
    let mut client = Client::connect(daemon.handle().addr()).expect("daemon accepts");
    for bench in POOL {
        let warm = JobSpec::benchmark(bench)
            .with_options(CompileOptions::naive())
            .with_projection_arrays(1);
        match client.submit(&warm) {
            Ok(Response::Report(_)) => {}
            other => panic!("warm-up of {} failed: {other:?}", bench.name()),
        }
    }
    daemon
}

/// Everything set-up produces.
struct Setup {
    daemon: Daemon,
    streams: Vec<Vec<Req>>,
    graphs: Vec<Arc<Mig>>,
}

fn setup(seed: u64, len: usize) -> Setup {
    Setup {
        daemon: boot(),
        streams: streams(seed, len),
        graphs: POOL.iter().map(|b| Arc::new(b.build())).collect(),
    }
}

/// One answered request.
struct Sample {
    index: usize,
    rtt_s: f64,
    encode_s: f64,
    decode_s: f64,
    traced: bool,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    failed: u64,
    /// Miss index → reply line, for the first listing misses and a
    /// sample of plain misses (checked after the run).
    kept: HashMap<usize, String>,
    elapsed_s: f64,
}

/// Hash of a report line around its `flag` (the `cached` field), or
/// `None` when the line does not carry `flag`.
fn hash_around(line: &str, flag: &str) -> Option<u64> {
    let (head, tail) = line.split_once(flag)?;
    let mut hasher = DefaultHasher::new();
    head.hash(&mut hasher);
    tail.hash(&mut hasher);
    Some(hasher.finish())
}

/// One closed loop: send, wait, record, until `seconds` have passed or
/// `limit` requests were answered. With `traced`, every other request
/// is sent as separately timed encode, round trip and decode.
fn client_loop(
    addr: std::net::SocketAddr,
    stream: &[Req],
    seconds: f64,
    limit: usize,
    traced: bool,
    keep: &HashSet<usize>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("serve: {e}");
            log.failed += 1;
            return log;
        }
    };
    // Each miss's reply-line hash around its `cached` flag.
    let mut miss_hash: HashMap<usize, u64> = HashMap::new();
    let mut listings_kept = 0;
    let start = Instant::now();
    for (index, req) in stream.iter().enumerate().take(limit) {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let split = traced && index % 2 == 0;
        let (mut encode_s, mut decode_s) = (0.0, 0.0);
        let t = Instant::now();
        let response = if split {
            let e = Instant::now();
            let line = encode_request(&Request::Job(Box::new(req.spec.clone())));
            encode_s = e.elapsed().as_secs_f64();
            line.and_then(|line| client.request_line(&line))
                .and_then(|reply| {
                    let d = Instant::now();
                    let response = decode_response(&reply);
                    decode_s = d.elapsed().as_secs_f64();
                    response
                })
        } else {
            client.submit(&req.spec)
        };
        let rtt_s = t.elapsed().as_secs_f64();
        let ok = match response {
            Ok(Response::Report(reply)) if req.is_miss(index) => {
                let hash = hash_around(&reply.line, "\"cached\":false");
                let listing = req.spec.includes_program() && listings_kept < LISTING_CHECKS;
                listings_kept += usize::from(listing);
                if listing || keep.contains(&index) {
                    log.kept.insert(index, reply.line);
                }
                hash.map(|h| miss_hash.insert(index, h)).is_some()
            }
            Ok(Response::Report(reply)) => {
                let hash = hash_around(&reply.line, "\"cached\":true");
                hash.is_some() && miss_hash.get(&req.origin) == hash.as_ref()
            }
            Ok(other) => {
                eprintln!("serve: request {index} answered {other:?}");
                false
            }
            Err(e) => {
                eprintln!("serve: request {index}: {e}");
                false
            }
        };
        if !ok {
            log.failed += 1;
        }
        log.samples.push(Sample {
            index,
            rtt_s,
            encode_s,
            decode_s,
            traced: split,
        });
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Runs both clients against the daemon.
fn drive(setup: &Setup, seed: u64, seconds: f64, limit: usize, traced: bool) -> Vec<ClientLog> {
    let addr = setup.daemon.handle().addr();
    let mut rng = Rng::new(seed, STREAM + 10);
    let keeps: Vec<HashSet<usize>> = setup
        .streams
        .iter()
        .map(|s| {
            let misses: Vec<usize> = (0..limit.min(s.len()).min(256))
                .filter(|&i| s[i].is_miss(i))
                .collect();
            (0..DIRECT_CHECKS / CLIENTS)
                .filter(|_| !misses.is_empty())
                .map(|_| misses[rng.below(misses.len())])
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = setup
            .streams
            .iter()
            .zip(&keeps)
            .map(|(stream, keep)| {
                scope.spawn(move || client_loop(addr, stream, seconds, limit, traced, keep))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread does not panic"))
            .collect()
    })
}

/// Post-run checks of the kept replies: listings run on the machine and
/// match the graph; sampled misses equal a direct `Service::run`.
/// Returns the number of failed checks and, per checked plain miss, its
/// round trip minus the direct run's wall time.
fn check_kept(setup: &Setup, logs: &[ClientLog], seed: u64) -> (u64, Vec<f64>) {
    let service = Service::new().with_threads(1);
    let mut rng = Rng::new(seed, STREAM + 20);
    let mut failed = 0;
    let mut overheads = Vec::new();
    for (stream, log) in setup.streams.iter().zip(logs) {
        let mut kept: Vec<(&usize, &String)> = log.kept.iter().collect();
        kept.sort();
        for (&index, line) in kept {
            let req = &stream[index];
            let ok = if req.spec.includes_program() {
                let report = decode_response(line).and_then(|r| match r {
                    Response::Report(reply) => reply.decode(),
                    other => Err(rlim_service::Error::Run(format!("{other:?}"))),
                });
                report
                    .is_ok_and(|report| report_matches(&report, &setup.graphs[req.bench], &mut rng))
            } else {
                let t = Instant::now();
                let direct = service.run(&req.spec);
                let direct_s = t.elapsed().as_secs_f64();
                if let Some(sample) = log.samples.iter().find(|s| s.index == index) {
                    overheads.push((sample.rtt_s - direct_s) * 1e3);
                }
                direct.is_ok_and(|report| report.to_json().render_compact() == *line)
            };
            if !ok {
                eprintln!("serve: reply to request {index} failed its check");
                failed += 1;
            }
        }
    }
    (failed, overheads)
}

/// Latencies by kind: `[hit, miss, listing]`, in milliseconds.
fn by_kind(setup: &Setup, logs: &[ClientLog], traced: Option<bool>) -> [Vec<f64>; 3] {
    let mut kinds: [Vec<f64>; 3] = Default::default();
    for (stream, log) in setup.streams.iter().zip(logs) {
        for s in &log.samples {
            if traced.is_none_or(|t| t == s.traced) {
                kinds[stream[s.index].kind(s.index)].push(s.rtt_s * 1e3);
            }
        }
    }
    kinds
}

fn count(out: &mut Outcome, logs: &[ClientLog], failed_checks: u64) {
    let answered: usize = logs.iter().map(|l| l.samples.len()).sum();
    out.attempted += answered as u64;
    out.failed += logs.iter().map(|l| l.failed).sum::<u64>() + failed_checks;
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (setup_s, setup) = timed_setup(|| setup(seed, STREAM_LEN));
    let logs = drive(&setup, seed, seconds, STREAM_LEN, false);
    let (failed_checks, _) = check_kept(&setup, &logs, seed);
    let mut out = Outcome::default();
    count(&mut out, &logs, failed_checks);
    let answered: usize = logs.iter().map(|l| l.samples.len()).sum();
    let elapsed = logs.iter().map(|l| l.elapsed_s).fold(0.0, f64::max);
    let kinds = by_kind(&setup, &logs, None);
    println!(
        "serve requests={answered} hits={} misses={} listings={} median_ms={:?}",
        kinds[0].len(),
        kinds[1].len(),
        kinds[2].len(),
        kinds
            .iter()
            .map(|v| (!v.is_empty()).then(|| stats::median(v)))
            .collect::<Vec<_>>()
    );
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
    out.push("ops_per_s", answered as f64 / elapsed, "1/s");
    push_latencies(&mut out, &kinds, &kinds.concat(), TAIL);
    out
}

/// The traced run: the same traffic with every other request split
/// into timed encode, round trip and decode, then the daemon's own
/// counters from the `metrics` verb.
pub fn trace(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let limit = match scale {
        Scale::Full => STREAM_LEN,
        Scale::Sample => 200,
    };
    let setup = setup(seed, limit);
    let logs = drive(&setup, seed, seconds, limit, true);
    let (failed_checks, overheads) = check_kept(&setup, &logs, seed);
    let mut out = Outcome::default();
    count(&mut out, &logs, failed_checks);
    let mut client = Client::connect(setup.daemon.handle().addr()).expect("daemon accepts");
    let metrics = client.metrics();
    out.count(metrics.is_ok());
    let kinds = by_kind(&setup, &logs, None);
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    out.push("daemon.hit_rtt_p50_ms", p50(&kinds[0]), "ms");
    out.push("daemon.miss_rtt_p50_ms", p50(&kinds[1]), "ms");
    out.push("daemon.listing_rtt_p50_ms", p50(&kinds[2]), "ms");
    out.push("daemon.server_overhead_ms", p50(&overheads), "ms");
    let split: Vec<&Sample> = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.traced)
        .collect();
    let per_split = |f: fn(&Sample) -> f64| {
        split.iter().map(|s| f(s)).sum::<f64>() * 1e6 / split.len().max(1) as f64
    };
    out.push("daemon.wire_encode_us", per_split(|s| s.encode_s), "us");
    out.push("daemon.wire_decode_us", per_split(|s| s.decode_s), "us");
    if let Ok(m) = metrics {
        let lookups = (m.cache.hits + m.cache.misses).max(1);
        out.push(
            "daemon.cache_hit_ratio",
            m.cache.hits as f64 / lookups as f64,
            "ratio",
        );
        out.push("daemon.rejected", m.jobs_rejected as f64, "count");
        out.push("daemon.failed", m.jobs_failed as f64, "count");
    }
    if scale == Scale::Full {
        let geo = |t: bool| {
            let kinds = by_kind(&setup, &logs, Some(t));
            let medians: Vec<f64> = kinds
                .iter()
                .filter(|v| !v.is_empty())
                .map(|v| stats::median(v))
                .collect();
            stats::geomean(&medians)
        };
        out.push(
            "trace.overhead_pct",
            (geo(true) / geo(false) - 1.0) * 100.0,
            "%",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{DEFAULT_SEED, HOLDOUT_SEED};

    fn labels(seed: u64) -> Vec<Vec<(usize, String)>> {
        streams(seed, 400)
            .iter()
            .map(|s| {
                s.iter()
                    .map(|r| (r.origin, format!("{:?}", r.spec)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_streams() {
        assert_eq!(labels(DEFAULT_SEED), labels(DEFAULT_SEED));
    }

    #[test]
    fn holdout_seed_gives_other_streams() {
        assert_ne!(labels(DEFAULT_SEED), labels(HOLDOUT_SEED));
    }

    #[test]
    fn misses_are_unique_and_repeats_are_recent() {
        let streams = streams(DEFAULT_SEED, 2000);
        let mut seen = HashSet::new();
        let (mut hits, mut listings, mut total) = (0, 0, 0);
        for stream in &streams {
            for (i, req) in stream.iter().enumerate() {
                total += 1;
                listings += usize::from(req.spec.includes_program());
                if req.is_miss(i) {
                    assert!(
                        seen.insert(format!("{:?}", req.spec)),
                        "miss {i} repeats a spec"
                    );
                } else {
                    hits += 1;
                    assert!(stream[req.origin].is_miss(req.origin));
                    assert_eq!(
                        format!("{:?}", stream[req.origin].spec),
                        format!("{:?}", req.spec)
                    );
                }
            }
        }
        let share = |n: usize| n as f64 / total as f64;
        assert!(
            (share(hits) - 0.75).abs() < 0.03,
            "hit share {}",
            share(hits)
        );
        let expected = 1.0 / LISTING_PERIOD as f64;
        assert!(
            (share(listings) - expected).abs() < 0.03,
            "listing share {}",
            share(listings)
        );
    }
}
