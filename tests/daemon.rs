//! Black-box protocol suite for `rlimd`, the compile-job daemon.
//!
//! Every test here talks to a real daemon over a real TCP socket — the
//! same path `rlim report --remote` takes — and checks the contract
//! from the outside:
//!
//! * concurrent clients receive responses byte-identical to a direct
//!   [`Service::run_batch`];
//! * a repeated spec is served from the compile cache with identical
//!   bytes (modulo the `cached` flag) and a frozen miss counter;
//! * a full queue answers structured rejections while in-flight jobs
//!   run to completion;
//! * a hit is answered while the only worker is stuck on a miss;
//! * `shutdown` drains in-flight work, then the socket refuses
//!   connections;
//! * random `JobSpec`s round-trip exactly through the wire encoding,
//!   garbage lines (non-UTF-8 ones included) get structured errors
//!   without killing workers, and an oversize line is refused without
//!   hurting other connections;
//! * misses that differ only in back-end options share one front end,
//!   also when two workers race on it;
//! * a spec that decodes but fails `JobSpec::validate` is refused with a
//!   usage error before it is keyed or queued;
//! * a lifetime projection over `usize::MAX` arrays is answered
//!   promptly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rlim::benchmarks::Benchmark;
use rlim::compiler::CompileOptions;
use rlim::daemon::{
    cache_key, decode_request, decode_response, encode_request, serve, Client, DaemonConfig,
    Request, Response,
};
use rlim::service::{json, ChaosSpec, FleetSpec};
use rlim::{BackendKind, JobSpec, Service};

fn daemon(workers: usize, queue_depth: usize) -> rlim::daemon::DaemonHandle {
    serve(DaemonConfig {
        workers,
        queue_depth,
        ..Default::default()
    })
    .expect("daemon binds an ephemeral port")
}

/// Polls the daemon's metrics until `ready` holds (the black-box way to
/// wait for workers to pick up or queue jobs).
fn wait_for(
    addr: std::net::SocketAddr,
    what: &str,
    ready: impl Fn(&rlim::daemon::MetricsSnapshot) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = Client::connect(addr).unwrap();
    loop {
        let snapshot = client.metrics().unwrap();
        if ready(&snapshot) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A job slow enough (seconds of fleet simulation) to keep a worker
/// busy while other connections race against it.
fn slow_spec() -> JobSpec {
    JobSpec::benchmark(Benchmark::Ctrl)
        .with_options(CompileOptions::naive())
        .with_fleet(FleetSpec::new(1).with_jobs(64_000))
}

/// The line of a report response.
fn report_line(response: Response) -> String {
    match response {
        Response::Report(line) => line.line,
        other => panic!("expected a report, got {other:?}"),
    }
}

fn submit_on_thread(
    addr: std::net::SocketAddr,
    spec: JobSpec,
) -> std::thread::JoinHandle<Response> {
    std::thread::spawn(move || {
        Client::connect(addr)
            .unwrap()
            .submit(&spec)
            .expect("submission completes")
    })
}

// ---- (a) concurrency: daemon == direct service, byte for byte ----------

/// Eight concurrent clients with eight distinct specs receive exactly
/// the bytes a direct batch run would serialize — the daemon's worker
/// pool, queue and cache are invisible to correctness.
#[test]
fn concurrent_clients_match_run_batch_byte_identical() {
    let specs = vec![
        JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive()),
        JobSpec::benchmark(Benchmark::Int2float).with_options(CompileOptions::naive()),
        JobSpec::benchmark(Benchmark::Dec)
            .with_options(CompileOptions::naive())
            .with_program_text(true),
        JobSpec::benchmark(Benchmark::Router).with_options(CompileOptions::naive()),
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::endurance_aware().with_effort(1)),
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::naive())
            .with_backend(BackendKind::Imp),
        JobSpec::benchmark(Benchmark::Int2float)
            .with_options(CompileOptions::min_write().with_effort(1)),
        JobSpec::benchmark(Benchmark::Dec)
            .with_options(CompileOptions::naive())
            .with_projection_arrays(2),
    ];
    let direct: Vec<String> = Service::new()
        .with_threads(1)
        .run_batch(&specs)
        .unwrap()
        .iter()
        .map(|r| r.to_json().render_compact())
        .collect();

    let handle = daemon(4, 16);
    let addr = handle.addr();
    let threads: Vec<_> = specs
        .iter()
        .map(|spec| submit_on_thread(addr, spec.clone()))
        .collect();
    let remote: Vec<String> = threads
        .into_iter()
        .map(|t| match t.join().unwrap() {
            Response::Report(line) => line.line,
            other => panic!("expected a report, got {other:?}"),
        })
        .collect();

    assert_eq!(remote, direct);
    handle.shutdown();
    let last = handle.join();
    assert_eq!(last.jobs_served, 8);
    assert_eq!(last.jobs_failed, 0);
}

// ---- (b) the compile cache --------------------------------------------

/// A repeated spec flips `cached` to `true` with otherwise identical
/// report bytes, and the miss counter stays frozen — the second answer
/// never recompiled.
#[test]
fn repeat_jobs_hit_the_cache_with_identical_bytes() {
    let handle = daemon(2, 8);
    let addr = handle.addr();
    let spec = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());

    let mut client = Client::connect(addr).unwrap();
    let first = match client.submit(&spec).unwrap() {
        Response::Report(line) => line.line,
        other => panic!("{other:?}"),
    };
    assert!(first.contains("\"cached\":false"), "{first}");
    let after_miss = client.metrics().unwrap();
    assert_eq!((after_miss.cache.misses, after_miss.cache.hits), (1, 0));

    let second = match client.submit(&spec).unwrap() {
        Response::Report(line) => line.line,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        second,
        first.replace("\"cached\":false", "\"cached\":true"),
        "a hit must be byte-identical modulo the cached flag"
    );
    let after_hit = client.metrics().unwrap();
    assert_eq!(
        (after_hit.cache.misses, after_hit.cache.hits),
        (1, 1),
        "the miss counter must freeze on repeats"
    );

    // Backend-class sharing: hosted-rm3 executes the same compiled
    // program, so it hits rm3's entry — with its own backend label.
    let hosted = match client
        .submit(&spec.clone().with_backend(BackendKind::HostedRm3))
        .unwrap()
    {
        Response::Report(line) => line.line,
        other => panic!("{other:?}"),
    };
    assert!(hosted.contains("\"cached\":true"), "{hosted}");
    assert!(hosted.contains("\"backend\":\"hosted-rm3\""), "{hosted}");
    assert_eq!(client.metrics().unwrap().cache.misses, 1);

    handle.shutdown();
    handle.join();
}

/// Correctness regression: the cache key includes the chaos rider. Two
/// specs differing only in `--fault-seed` must miss each other's
/// entries — a fault-injected fleet is never served a different seed's
/// report.
#[test]
fn fault_seeds_never_share_cache_entries() {
    let handle = daemon(2, 8);
    let addr = handle.addr();
    let chaos_spec = |seed: u64| {
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::naive())
            .with_fleet(
                FleetSpec::new(2)
                    .with_jobs(8)
                    .with_chaos(ChaosSpec::new(seed)),
            )
    };

    let mut client = Client::connect(addr).unwrap();
    for seed in [1, 2] {
        match client.submit(&chaos_spec(seed)).unwrap() {
            Response::Report(line) => {
                assert!(line.line.contains("\"cached\":false"), "{}", line.line);
                assert!(
                    line.line.contains(&format!("\"seed\":{seed}")),
                    "{}",
                    line.line
                );
            }
            other => panic!("{other:?}"),
        }
    }
    let stats = client.metrics().unwrap().cache;
    assert_eq!((stats.misses, stats.hits), (2, 0), "seeds must not collide");

    // The same seed does hit its own entry.
    match client.submit(&chaos_spec(1)).unwrap() {
        Response::Report(line) => assert!(line.line.contains("\"cached\":true")),
        other => panic!("{other:?}"),
    }
    let stats = client.metrics().unwrap().cache;
    assert_eq!((stats.misses, stats.hits), (2, 1));

    // A fault-free fleet never matches a chaos entry either.
    let fault_free = JobSpec::benchmark(Benchmark::Ctrl)
        .with_options(CompileOptions::naive())
        .with_fleet(FleetSpec::new(2).with_jobs(8));
    match client.submit(&fault_free).unwrap() {
        Response::Report(line) => assert!(line.line.contains("\"cached\":false")),
        other => panic!("{other:?}"),
    }

    handle.shutdown();
    handle.join();
}

// ---- (c) admission control ---------------------------------------------

/// With one worker and a depth-1 queue, a third job is refused with a
/// structured `rejected` response while both in-flight jobs complete
/// normally.
#[test]
fn full_queue_rejects_without_disturbing_in_flight_jobs() {
    let handle = daemon(1, 1);
    let addr = handle.addr();

    let running = submit_on_thread(addr, slow_spec());
    wait_for(addr, "the worker to go busy", |m| m.workers_busy == 1);

    let queued_spec =
        JobSpec::benchmark(Benchmark::Int2float).with_options(CompileOptions::naive());
    let queued = submit_on_thread(addr, queued_spec.clone());
    wait_for(addr, "the queue to fill", |m| m.queue_depth == 1);

    // The queue is full: an immediate structured rejection.
    let overflow = JobSpec::benchmark(Benchmark::Dec).with_options(CompileOptions::naive());
    match Client::connect(addr).unwrap().submit(&overflow).unwrap() {
        Response::Rejected {
            queue_depth,
            queue_capacity,
            message,
        } => {
            assert_eq!((queue_depth, queue_capacity), (1, 1));
            assert_eq!(message, "job queue full");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }

    // Neither in-flight job noticed: both complete with real reports,
    // byte-identical to direct runs.
    let slow_direct = Service::new()
        .with_threads(1)
        .run(&slow_spec())
        .unwrap()
        .to_json()
        .render_compact();
    let queued_direct = Service::new()
        .with_threads(1)
        .run(&queued_spec)
        .unwrap()
        .to_json()
        .render_compact();
    match running.join().unwrap() {
        Response::Report(line) => assert_eq!(line.line, slow_direct),
        other => panic!("{other:?}"),
    }
    match queued.join().unwrap() {
        Response::Report(line) => assert_eq!(line.line, queued_direct),
        other => panic!("{other:?}"),
    }

    handle.shutdown();
    let last = handle.join();
    assert_eq!(last.jobs_rejected, 1);
    assert_eq!(last.jobs_served, 2);
    assert_eq!(last.jobs_failed, 0);
}

// ---- (d) graceful shutdown ---------------------------------------------

/// `shutdown` acknowledges, lets the in-flight job finish and deliver
/// its report, then the socket refuses new connections.
#[test]
fn shutdown_drains_in_flight_work_then_refuses_connections() {
    let handle = daemon(1, 4);
    let addr = handle.addr();
    let hit = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());
    let mut control = Client::connect(addr).unwrap();
    let miss = report_line(control.submit(&hit).unwrap());

    let running = submit_on_thread(addr, slow_spec());
    wait_for(addr, "the worker to go busy", |m| m.workers_busy == 1);
    // While accepting, the busy worker does not hold the hit up.
    assert_eq!(
        report_line(control.submit(&hit).unwrap()),
        miss.replace("\"cached\":false", "\"cached\":true")
    );

    control.shutdown().expect("shutdown acknowledged");
    // Once draining, health reports the daemon is no longer accepting
    // and fresh jobs on a live connection are refused, hits included.
    let health = control.healthz().unwrap();
    assert!(!health.accepting);
    match control.submit(&hit).unwrap() {
        Response::Rejected { message, .. } => assert_eq!(message, "daemon is draining"),
        other => panic!("expected a drain rejection, got {other:?}"),
    }

    // The in-flight job still completes and delivers its bytes.
    match running.join().unwrap() {
        Response::Report(line) => {
            assert!(line.line.contains("\"fleet\":{"), "{}", line.line);
        }
        other => panic!("{other:?}"),
    }

    let last = handle.join();
    assert_eq!(
        last.jobs_served, 3,
        "the warm-up miss, the hit and the slow job"
    );
    // The listener is gone: connections are refused.
    assert!(
        Client::connect(addr).is_err(),
        "socket must refuse connections after shutdown"
    );
}

// ---- (e) hits never wait behind a miss ----------------------------------

/// A hit on a benchmark the daemon has built is answered by its
/// connection thread, not queued: it arrives while the only worker is
/// stuck on a miss. The gate is a FIFO, so the stuck worker sits in the
/// read of its BLIF source until the test writes the circuit.
#[test]
fn hits_are_answered_while_the_only_worker_is_stuck_on_a_miss() {
    let dir = std::env::temp_dir().join(format!("rlimd-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fifo = dir.join("gate.blif");
    let _ = std::fs::remove_file(&fifo);
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(made.success(), "mkfifo {}", fifo.display());

    let handle = daemon(1, 4);
    let addr = handle.addr();
    let warm = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());
    let miss = report_line(Client::connect(addr).unwrap().submit(&warm).unwrap());

    let gated_spec = JobSpec::blif_path(&fifo).with_options(CompileOptions::naive());
    let gated = submit_on_thread(addr, gated_spec.clone());
    wait_for(addr, "the worker to take the gated job", |m| {
        m.workers_busy == 1
    });

    let (sent, received) = mpsc::channel();
    let asker = std::thread::spawn(move || {
        let response = Client::connect(addr).unwrap().submit(&warm);
        let _ = sent.send(response);
    });
    let hit = received
        .recv_timeout(Duration::from_secs(30))
        .expect("a hit is answered while the worker is stuck")
        .unwrap();
    asker.join().unwrap();
    assert_eq!(
        report_line(hit),
        miss.replace("\"cached\":false", "\"cached\":true")
    );
    let metrics = Client::connect(addr).unwrap().metrics().unwrap();
    assert_eq!(metrics.workers_busy, 1, "the gated job is still running");

    // Open the gate: the stuck job completes, byte-identical to a direct
    // run over the same FIFO, fed again from a writer thread.
    let blif = rlim::mig::blif::write_blif(&Benchmark::Int2float.build(), "gate");
    std::fs::write(&fifo, &blif).unwrap();
    let gated = report_line(gated.join().unwrap());
    let feeder = {
        let fifo = fifo.clone();
        std::thread::spawn(move || std::fs::write(fifo, blif).unwrap())
    };
    let direct = Service::new()
        .with_threads(1)
        .run(&gated_spec)
        .unwrap()
        .to_json()
        .render_compact();
    feeder.join().unwrap();
    assert_eq!(gated, direct);

    handle.shutdown();
    let last = handle.join();
    assert_eq!(last.jobs_served, last.cache.hits + last.cache.misses);
    assert_eq!((last.cache.hits, last.cache.misses), (1, 2));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- wire round-trip and framing fuzz ----------------------------------

fn options_strategy() -> impl Strategy<Value = CompileOptions> {
    (
        prop_oneof![
            Just("naive"),
            Just("plim21"),
            Just("min-write"),
            Just("ea-rewriting"),
            Just("endurance-aware"),
        ],
        (any::<bool>(), 0usize..10),
        (any::<bool>(), 3u64..200),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        1u32..200_000,
        1u32..16,
    )
        .prop_map(
            |(
                preset,
                (some_e, effort),
                (some_w, max_writes),
                peephole,
                copy_reuse,
                esat,
                esat_nodes,
                esat_iters,
            )| {
                let mut options = CompileOptions::preset(preset).expect("canonical preset");
                if some_e {
                    options = options.with_effort(effort);
                }
                if some_w {
                    options = options.with_max_writes(max_writes);
                }
                options
                    .with_peephole(peephole)
                    .with_copy_reuse(copy_reuse)
                    .with_esat(esat)
                    .with_esat_nodes(esat_nodes)
                    .with_esat_iters(esat_iters)
            },
        )
}

fn chaos_strategy() -> impl Strategy<Value = ChaosSpec> {
    (
        any::<u64>(),
        0usize..3,
        0usize..3,
        0usize..3,
        any::<bool>(),
        0usize..16,
        1u64..100,
    )
        .prop_map(|(seed, m, s, p, recovery, spares, max_faults)| {
            // Grid floats chosen to be exact at the wire's precisions
            // (median: 1 decimal, sigma/stuck: 4 decimals).
            let medians = [512.0, 4096.0, 100.5];
            let sigmas = [0.25, 0.1234, 0.5];
            let stucks = [0.01, 0.0005, 0.375];
            ChaosSpec::new(seed)
                .with_endurance_median(medians[m])
                .with_endurance_sigma(sigmas[s])
                .with_stuck_probability(stucks[p])
                .with_recovery(recovery)
                .with_spares(spares)
                .with_max_faults(max_faults)
        })
}

fn fleet_strategy() -> impl Strategy<Value = FleetSpec> {
    (
        1usize..6,
        1usize..40,
        any::<bool>(),
        (any::<bool>(), 1u64..100_000),
        (any::<bool>(), any::<u64>()),
        (any::<bool>(), chaos_strategy()).prop_map(|(some, c)| some.then_some(c)),
    )
        .prop_map(
            |(arrays, jobs, round_robin, (some_b, budget), (some_s, seed), chaos)| {
                let mut fleet = FleetSpec::new(arrays).with_jobs(jobs);
                if round_robin {
                    fleet = fleet.with_dispatch(rlim::plim::DispatchPolicy::RoundRobin);
                }
                if some_b {
                    fleet = fleet.with_write_budget(budget);
                }
                if some_s {
                    fleet = fleet.with_input_seed(seed);
                }
                if let Some(chaos) = chaos {
                    fleet = fleet.with_chaos(chaos);
                }
                fleet
            },
        )
}

fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        0usize..18,
        any::<bool>(),
        prop_oneof![
            Just(BackendKind::Rm3),
            Just(BackendKind::HostedRm3),
            Just(BackendKind::WideRm3),
            Just(BackendKind::Imp),
        ],
        options_strategy(),
        (any::<bool>(), fleet_strategy()).prop_map(|(some, f)| some.then_some(f)),
        any::<bool>(),
        1usize..9,
    )
        .prop_map(|(bench, blif, backend, options, fleet, program, arrays)| {
            let benchmark = Benchmark::all()[bench];
            let mut spec = if blif {
                JobSpec::blif_path(format!("/tmp/{}.blif", benchmark.name()))
            } else {
                JobSpec::benchmark(benchmark)
            };
            spec = spec
                .with_backend(backend)
                .with_options(options)
                .with_program_text(program)
                .with_projection_arrays(arrays);
            if let Some(fleet) = fleet {
                spec = spec.with_fleet(fleet);
            }
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite: `JobSpec → wire line → JobSpec → wire line` is exact —
    /// the wire encoding loses nothing, including fleet/chaos riders
    /// (the proptest mirror of the argv ↔ spec round-trip).
    #[test]
    fn wire_spec_roundtrip_is_exact(spec in spec_strategy()) {
        let line = encode_request(&Request::Job(Box::new(spec.clone())))
            .expect("benchmark/blif specs are wire-expressible");
        let decoded = match decode_request(&line).expect("own encoding decodes") {
            Request::Job(inner) => *inner,
            other => panic!("{other:?}"),
        };
        prop_assert_eq!(&decoded, &spec);
        let again = encode_request(&Request::Job(Box::new(decoded))).unwrap();
        prop_assert_eq!(line, again);
    }
}

/// Every spec field but the source, as parts the key proptest edits
/// one at a time.
#[derive(Clone, Copy)]
struct Parts {
    backend: BackendKind,
    options: CompileOptions,
    fleet: Option<FleetSpec>,
    program: bool,
    arrays: usize,
}

impl Parts {
    fn of(spec: &JobSpec) -> Self {
        Parts {
            backend: spec.backend(),
            options: *spec.options(),
            fleet: spec.fleet().copied(),
            program: spec.includes_program(),
            arrays: spec.projection_arrays(),
        }
    }

    fn onto(self, source: JobSpec) -> JobSpec {
        let spec = source
            .with_backend(self.backend)
            .with_options(self.options)
            .with_program_text(self.program)
            .with_projection_arrays(self.arrays);
        match self.fleet {
            Some(fleet) => spec.with_fleet(fleet),
            None => spec,
        }
    }
}

/// Number of distinct single-field edits [`edit_one`] knows.
const EDITS: usize = 27;

/// `parts` with exactly one key-relevant field changed. An edit inside
/// an absent fleet or chaos rider adds the rider instead.
fn edit_one(mut p: Parts, which: usize) -> Parts {
    use rlim::compiler::{Allocation, Selection};
    use rlim::mig::rewrite::Algorithm;
    use rlim::plim::DispatchPolicy;

    let o = &mut p.options;
    match which {
        0 => {
            o.rewriting = match o.rewriting {
                Some(Algorithm::LevelAware) => None,
                _ => Some(Algorithm::LevelAware),
            }
        }
        1 => o.effort += 1,
        2 => {
            o.selection = match o.selection {
                Selection::Topological => Selection::AreaAware,
                _ => Selection::Topological,
            }
        }
        3 => {
            o.allocation = match o.allocation {
                Allocation::Lifo => Allocation::MinWrite,
                Allocation::MinWrite => Allocation::Lifo,
            }
        }
        4 => o.max_writes = Some(o.max_writes.map_or(3, |w| w + 1)),
        5 => o.peephole ^= true,
        6 => o.copy_reuse ^= true,
        7 => o.esat ^= true,
        8 => o.esat_nodes += 1,
        9 => o.esat_iters += 1,
        10 => p.program ^= true,
        11 => p.arrays += 1,
        12 => {
            p.backend = match p.backend {
                BackendKind::Imp => BackendKind::Rm3,
                _ => BackendKind::Imp,
            }
        }
        13 => p.fleet = p.fleet.xor(Some(FleetSpec::new(1))),
        _ => {
            let Some(f) = p.fleet.as_mut() else {
                p.fleet = Some(FleetSpec::new(1));
                return p;
            };
            match which {
                14 => f.arrays += 1,
                15 => f.jobs += 1,
                16 => {
                    f.dispatch = match f.dispatch {
                        DispatchPolicy::RoundRobin => DispatchPolicy::LeastWorn,
                        DispatchPolicy::LeastWorn => DispatchPolicy::RoundRobin,
                    }
                }
                17 => f.write_budget = Some(f.write_budget.map_or(1, |b| b + 1)),
                18 => f.input_seed = Some(f.input_seed.map_or(0, |s| s.wrapping_add(1))),
                19 => f.chaos = f.chaos.xor(Some(ChaosSpec::new(0))),
                _ => {
                    let Some(c) = f.chaos.as_mut() else {
                        f.chaos = Some(ChaosSpec::new(0));
                        return p;
                    };
                    // Float edits stay on values exact at wire precision.
                    match which {
                        20 => c.fault_seed = c.fault_seed.wrapping_add(1),
                        21 => c.endurance_median += 1.0,
                        22 => c.endurance_sigma = if c.endurance_sigma == 0.5 { 0.25 } else { 0.5 },
                        23 => {
                            c.stuck_probability = if c.stuck_probability == 0.375 {
                                0.01
                            } else {
                                0.375
                            }
                        }
                        24 => c.recovery ^= true,
                        25 => c.spares += 1,
                        _ => c.max_faults += 1,
                    }
                }
            }
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cache key is the job's identity: a copy that differs only in
    /// source spelling, or in backend within a compile class, shares the
    /// key; a copy with any one other field changed does not.
    #[test]
    fn cache_key_separates_exactly_the_fields_that_change_a_job(
        spec in spec_strategy(),
        other_source in 0usize..18,
        fingerprint in any::<u64>(),
    ) {
        let fp = u128::from(fingerprint);
        let key = |spec: &JobSpec| cache_key(fp, spec).expect("wire-exact spec");
        let base = key(&spec);
        let parts = Parts::of(&spec);

        let respelled = Benchmark::all()[other_source];
        prop_assert_eq!(&base, &key(&parts.onto(JobSpec::benchmark(respelled))));
        prop_assert_eq!(&base, &key(&parts.onto(JobSpec::blif_path("/elsewhere.blif"))));
        if parts.backend != BackendKind::Imp {
            for backend in [BackendKind::Rm3, BackendKind::HostedRm3, BackendKind::WideRm3] {
                let sibling = Parts { backend, ..parts }.onto(JobSpec::benchmark(respelled));
                prop_assert_eq!(&base, &key(&sibling));
            }
        }

        prop_assert_ne!(&base, &cache_key(fp + 1, &spec).unwrap());
        for which in 0..EDITS {
            let edited = edit_one(parts, which).onto(JobSpec::benchmark(respelled));
            prop_assert!(base != key(&edited), "edit {which} kept the key {base}");
        }
    }
}

/// One long-lived daemon shared by the framing fuzz (ephemeral port,
/// lives for the test process).
fn fuzz_daemon_addr() -> std::net::SocketAddr {
    static ADDR: OnceLock<std::net::SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let handle = serve(DaemonConfig {
            workers: 1,
            ..Default::default()
        })
        .expect("fuzz daemon starts");
        let addr = handle.addr();
        std::mem::forget(handle);
        addr
    })
}

fn garbage_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("{".to_string()),
        Just("[1,2".to_string()),
        Just("nullish".to_string()),
        Just("1e9".to_string()),
        Just("\"half".to_string()),
        Just("{\"verb\":\"warp\"}".to_string()),
        Just("{\"verb\":\"job\"}".to_string()),
        Just("{\"verb\":\"job\",\"spec\":{}}".to_string()),
        Just("{\"verb\":\"metrics\",\"extra\":1}".to_string()),
        Just("{\"verb\":\"job\",\"spec\":null,\"spec\":null}".to_string()),
        // Random printable-ASCII noise.  The leading `\x7f` keeps the line
        // non-blank (blank lines are protocol no-ops) and guarantees the
        // line is not accidentally valid JSON, without needing a filter.
        proptest::collection::vec(32u8..127u8, 0usize..40).prop_map(|bytes| {
            let mut s = String::from("\u{7f}");
            s.extend(bytes.into_iter().map(char::from));
            s
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: garbage lines never hang a connection or kill a
    /// worker — each gets a structured one-line error, and the daemon
    /// still serves real work on the same socket afterwards.
    #[test]
    fn garbage_lines_get_structured_errors_and_workers_survive(garbage in garbage_strategy()) {
        let addr = fuzz_daemon_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(garbage.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        prop_assert!(
            reply.starts_with("{\"error\":"),
            "garbage must get a structured error, got {reply:?}"
        );
        match decode_response(reply.trim_end()).unwrap() {
            Response::Error { usage, .. } => prop_assert!(usage),
            other => panic!("{other:?}"),
        }
        // The same connection still speaks the protocol…
        stream.write_all(b"{\"verb\":\"healthz\"}\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        prop_assert!(reply.starts_with("{\"healthz\":"), "{reply}");
    }
}

/// Report lines as the daemon renders them: plain, with a listing full
/// of escaped newlines, and with a chaos fleet section.
fn rendered_reports() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let naive = CompileOptions::naive();
        let specs = [
            JobSpec::benchmark(Benchmark::Ctrl).with_options(naive),
            JobSpec::benchmark(Benchmark::Dec)
                .with_options(naive)
                .with_program_text(true),
            JobSpec::benchmark(Benchmark::Ctrl)
                .with_options(naive)
                .with_fleet(FleetSpec::new(2).with_jobs(8).with_chaos(ChaosSpec::new(5))),
        ];
        let service = Service::new().with_threads(1);
        specs
            .iter()
            .flat_map(|spec| {
                let doc = service.run(spec).unwrap().to_json();
                [doc.render_compact(), doc.render()]
            })
            .collect()
    })
}

/// Bytes that steer the JSON grammar, for one-byte edits of report lines.
const GRAMMAR_BYTES: &[u8] = b"\"\\{}[],:-.0e tnf\n\x01";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `json::validate` accepts exactly what `json::parse` accepts and
    /// fails at the same byte with the same message: over the framing
    /// fuzz's garbage, whole report lines, and their truncations and
    /// one-byte edits.
    #[test]
    fn validate_agrees_with_parse(
        garbage in garbage_strategy(),
        which in 0usize..6,
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in 0..GRAMMAR_BYTES.len(),
    ) {
        let agree = |text: &str| -> Result<(), TestCaseError> {
            prop_assert_eq!(json::validate(text), json::parse(text).map(|_| ()), "{:?}", text);
            Ok(())
        };
        agree(&garbage)?;
        let report = &rendered_reports()[which];
        agree(report)?;
        let cut = cut % (report.len() + 1);
        if report.is_char_boundary(cut) {
            agree(&report[..cut])?;
        }
        let at = at % report.len();
        if report.as_bytes()[at].is_ascii() {
            let mut edited = report.clone().into_bytes();
            edited[at] = GRAMMAR_BYTES[byte];
            agree(&String::from_utf8(edited).expect("an ASCII byte replaced by an ASCII byte"))?;
        }
    }
}

/// A request line over the daemon's 1 MiB cap gets a structured error
/// and its connection is closed; other connections are still served.
#[test]
fn oversize_request_lines_are_refused_and_other_connections_served() {
    let handle = daemon(1, 4);
    let addr = handle.addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The daemon stops reading at the cap, so the rest of the 2 MiB may
    // never be taken: write from a thread that tolerates the reset.
    let mut flood_half = stream.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = flood_half.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut reader = BufReader::new(&stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match decode_response(reply.trim_end()).unwrap() {
        Response::Error { message, usage } => {
            assert!(usage, "{message}");
            assert!(message.contains("request line exceeds"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    let mut rest = String::new();
    assert!(
        !matches!(reader.read_line(&mut rest), Ok(n) if n > 0),
        "the connection is closed after the error, got {rest:?}"
    );
    flood.join().unwrap();

    let mut client = Client::connect(addr).unwrap();
    assert!(client.healthz().unwrap().accepting);
    let spec = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());
    assert!(report_line(client.submit(&spec).unwrap()).contains("\"label\":\"ctrl\""));
    handle.shutdown();
    handle.join();
}

/// A request line that is not UTF-8 is garbage like any other: it gets
/// a structured usage error and the connection keeps serving.
#[test]
fn non_utf8_request_lines_get_structured_errors_and_the_connection_survives() {
    let addr = fuzz_daemon_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..2 {
        stream
            .write_all(b"\xff\xfe{\"verb\":\"healthz\"}\n")
            .unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match decode_response(reply.trim_end()) {
            Ok(Response::Error { message, usage }) => {
                assert!(usage, "{message}");
                assert!(message.contains("not UTF-8"), "{message}");
            }
            other => panic!("expected a usage error, got {other:?} from {reply:?}"),
        }
    }
    stream.write_all(b"{\"verb\":\"healthz\"}\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("{\"healthz\":"), "{reply:?}");
}

/// Misses that differ only in back-end options (cap, backend, listing)
/// share one front end: the second is a memo hit, and both replies are
/// the bytes a direct run gives.
#[test]
fn back_end_variants_of_a_miss_share_its_front_end() {
    let handle = daemon(1, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let options = CompileOptions::endurance_aware();
    let specs = [
        JobSpec::benchmark(Benchmark::Ctrl).with_options(options),
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(options.with_max_writes(20))
            .with_program_text(true),
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(options.with_max_writes(20))
            .with_backend(BackendKind::Imp),
    ];
    let service = Service::new().with_threads(1);
    for (i, spec) in specs.iter().enumerate() {
        let remote = report_line(client.submit(spec).unwrap());
        let direct = service.run(spec).unwrap().to_json().render_compact();
        assert_eq!(remote, direct, "spec {i}");
        let frontends = client.metrics().unwrap().frontends;
        assert_eq!(
            (
                frontends.entries,
                frontends.hits,
                frontends.misses,
                frontends.evictions
            ),
            (1, i as u64, 1, 0),
            "after spec {i}"
        );
        assert!(frontends.bytes > 0);
    }
    handle.shutdown();
    handle.join();
}

/// Two workers racing on one front end (same circuit and rewriting,
/// different back-end options) keep one memo entry and answer what a
/// direct run answers.
#[test]
fn workers_racing_on_one_front_end_give_identical_replies() {
    let handle = daemon(2, 8);
    let addr = handle.addr();
    let options = CompileOptions::endurance_aware();
    let specs: Vec<JobSpec> = [None, Some(5), Some(9), Some(30)]
        .into_iter()
        .map(|cap| {
            JobSpec::benchmark(Benchmark::Voter)
                .with_options(CompileOptions {
                    max_writes: cap,
                    ..options
                })
                .with_program_text(true)
        })
        .collect();
    let threads: Vec<_> = specs
        .iter()
        .map(|spec| submit_on_thread(addr, spec.clone()))
        .collect();
    let remote: Vec<String> = threads
        .into_iter()
        .map(|t| report_line(t.join().unwrap()))
        .collect();
    let service = Service::new().with_threads(1);
    for (spec, remote) in specs.iter().zip(&remote) {
        assert_eq!(
            *remote,
            service.run(spec).unwrap().to_json().render_compact()
        );
    }
    handle.shutdown();
    let frontends = handle.join().frontends;
    // A racing loser counts a miss but its front end is dropped.
    assert_eq!(frontends.entries, 1, "{frontends:?}");
    assert_eq!(frontends.hits + frontends.misses, 4, "{frontends:?}");
}

/// A lifetime projection over any number of arrays costs one product:
/// a `projection_arrays` near `usize::MAX` is answered promptly, with a
/// saturated `fleet_runs` and the bytes a direct run gives.
#[test]
fn huge_projection_fleets_are_answered_promptly() {
    let handle = daemon(1, 4);
    let (tx, rx) = mpsc::channel();
    let addr = handle.addr();
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for arrays in [usize::MAX, usize::MAX - 1] {
            let spec = JobSpec::benchmark(Benchmark::Ctrl)
                .with_options(CompileOptions::naive())
                .with_projection_arrays(arrays);
            let reply = client.submit(&spec).unwrap();
            tx.send((spec, reply)).unwrap();
        }
    });
    for _ in 0..2 {
        let (spec, reply) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a prompt reply");
        let Response::Report(line) = reply else {
            panic!("expected a report, got {reply:?}");
        };
        let lifetime = line.decode().unwrap().lifetime;
        assert_eq!(lifetime.fleet_arrays, spec.projection_arrays());
        assert_eq!(lifetime.fleet_runs, u64::MAX);
        let direct = Service::new().with_threads(1).run(&spec).unwrap();
        assert_eq!(line.line, direct.to_json().render_compact());
    }
    handle.shutdown();
    handle.join();
}

/// After the fuzz barrage, the worker pool still compiles — no thread
/// died swallowing garbage.
#[test]
fn workers_survive_malformed_specs_that_pass_framing() {
    let addr = fuzz_daemon_addr();
    let mut client = Client::connect(addr).unwrap();
    // A well-framed job whose spec fails validation…
    let line = "{\"verb\":\"job\",\"spec\":{\"source\":{\"benchmark\":\"nonesuch\"},\
\"backend\":\"rm3\",\"options\":{\"rewriting\":null,\"effort\":0,\
\"selection\":\"topological\",\"allocation\":\"lifo\",\"max_writes\":null,\
\"peephole\":false},\"fleet\":null,\"program\":false,\"projection_arrays\":4}}";
    let reply = client.request_line(line).unwrap();
    assert!(reply.starts_with("{\"error\":"), "{reply}");
    // …and a real job right after, on the same daemon, still compiles.
    let spec = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());
    match client.submit(&spec).unwrap() {
        Response::Report(line) => assert!(line.line.contains("\"label\":\"ctrl\"")),
        other => panic!("{other:?}"),
    }
}

/// Specs that decode but break a rule of `JobSpec::validate` are refused
/// before they are keyed or queued: each gets a usage error (never a
/// worker panic), no counter moves, and the same connection is then
/// served a valid job.
#[test]
fn invalid_specs_are_refused_before_the_queue() {
    let handle = daemon(1, 4);
    let mut client = Client::connect(handle.addr()).unwrap();
    let ctrl = || JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());
    let fleet = |f: FleetSpec| ctrl().with_fleet(f.with_jobs(2));
    let chaos = |c: ChaosSpec| FleetSpec::new(2).with_chaos(c);
    let invalid = [
        fleet(FleetSpec::new(2).with_write_budget(0)),
        fleet(chaos(ChaosSpec::new(1).with_endurance_median(-1.0))),
        fleet(chaos(ChaosSpec::new(1).with_endurance_sigma(-0.5))),
        fleet(chaos(ChaosSpec::new(1).with_stuck_probability(1.5))),
        fleet(FleetSpec::new(0)),
        ctrl().with_projection_arrays(0),
        fleet(FleetSpec::new(2)).with_backend(BackendKind::Imp),
    ];
    for spec in &invalid {
        match client.submit(spec).unwrap() {
            Response::Error { message, usage } => {
                assert!(usage, "{spec:?}: {message}");
                assert!(!message.contains("panicked"), "{spec:?}: {message}");
                assert_eq!(message, spec.validate().unwrap_err().to_string());
            }
            other => panic!("{spec:?}: expected a usage error, got {other:?}"),
        }
    }
    let metrics = client.metrics().unwrap();
    assert_eq!(
        (
            metrics.jobs_served,
            metrics.jobs_failed,
            metrics.jobs_rejected
        ),
        (0, 0, 0)
    );
    assert_eq!((metrics.cache.hits, metrics.cache.misses), (0, 0));

    let spec = ctrl();
    assert_eq!(
        report_line(client.submit(&spec).unwrap()),
        Service::new()
            .with_threads(1)
            .run(&spec)
            .unwrap()
            .to_json()
            .render_compact()
    );
    let metrics = client.metrics().unwrap();
    assert_eq!((metrics.jobs_served, metrics.jobs_failed), (1, 0));
    assert_eq!(metrics.cache.misses, 1);
    handle.shutdown();
    handle.join();
}
