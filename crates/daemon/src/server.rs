//! The server: acceptor, per-connection reader threads, and the worker
//! pool draining the bounded job queue.
//!
//! ## Thread layout
//!
//! * one **acceptor** owning the [`TcpListener`];
//! * one reader thread per live **connection**, reading request lines
//!   of at most 1 MiB (`MAX_REQUEST_LINE`) and answering `metrics` /
//!   `healthz` / `shutdown` inline. A `job` whose spec fails
//!   [`JobSpec::validate`] is answered inline with a usage `error`, like
//!   a line that does not decode, and counts as neither served nor
//!   failed. It answers a `job` inline too when the job is a cache hit
//!   whose key it can derive without a build (a benchmark some earlier
//!   job built): it splices the stored reply and never waits behind a
//!   worker's miss. Every other job goes onto the queue with its key, if
//!   derived (a connection therefore has at most one job in flight);
//! * `N` **workers** blocking on the queue, each looking a job up once
//!   more (it may have been filled while queued) and compiling misses
//!   through a single-threaded [`Service`] — the worker pool is the
//!   parallelism axis, exactly like a batch run's per-spec axis. The
//!   workers share one [`FrontEnds`] memo, so a miss that differs from
//!   an earlier one only in back-end options (cap, backend, listing)
//!   skips rewrite and schedule.
//!
//! ## Shutdown state machine
//!
//! `accepting → draining → stopped`. A `shutdown` verb (or
//! [`ShutdownTrigger::shutdown`]) atomically flips `accepting` off,
//! closes the queue (new jobs get `rejected`, queued jobs keep
//! draining) and wakes the acceptor, which drops the listener — the
//! socket refuses connections from that point. [`DaemonHandle::join`]
//! then waits for the workers to drain the queue and for every pending
//! response to be written back before returning the final counters; the
//! CLI turns that return into exit code 0.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use rlim_mig::Mig;
use rlim_service::{Error, FrontEnds, JobSpec, Service, Source};

use crate::cache::{cache_key, CachedReply, ReportCache};
use crate::metrics::{Health, MetricsSnapshot};
use crate::queue::{BoundedQueue, PushError};
use crate::wire::{self, Request};

/// Server configuration with production-shaped defaults.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port `0` asks the OS for an ephemeral port (read
    /// the bound one back from [`DaemonHandle::addr`]).
    pub addr: String,
    /// Worker-pool size; `0` = one per available core.
    pub workers: usize,
    /// Bounded job-queue depth (the admission limit).
    pub queue_depth: usize,
    /// Compile-cache capacity, in reports.
    pub cache_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 256,
        }
    }
}

/// The bytes the front-end memo may hold: a fixed bound, like the
/// request-line cap, not a knob. It fits the rewritten graphs and
/// schedules of every benchmark under every preset many times over.
const FRONT_END_BYTES: usize = 64 << 20;

/// The longest request line a connection may send, newline excluded.
/// A longer line is answered with an `error` and its connection closed,
/// so no peer can grow a reader's buffer without bound.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// One reply line, newline included. A miss's line is shared with the
/// cache entry it fills rather than copied.
type Line = Arc<String>;

fn line(mut text: String) -> Line {
    text.push('\n');
    Arc::new(text)
}

/// One admitted job: the decoded spec, its cache key when the connection
/// thread already derived it, and the channel its reply travels back
/// through.
struct QueuedJob {
    spec: JobSpec,
    key: Option<String>,
    reply: SyncSender<Line>,
}

/// Counts requests between admission and the moment their response hit
/// the socket, so [`DaemonHandle::join`] never returns with a reply
/// still unwritten.
#[derive(Default)]
struct PendingReplies {
    count: Mutex<usize>,
    zero: Condvar,
}

impl PendingReplies {
    fn enter(&self) {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }

    fn exit(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count -= 1;
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *count > 0 {
            count = self
                .zero
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Shared {
    service: Service,
    queue: BoundedQueue<QueuedJob>,
    cache: Mutex<ReportCache>,
    /// Rewritten graphs and their schedules, shared by all workers.
    frontends: FrontEnds,
    /// Benchmark graphs built once per daemon lifetime, keyed by
    /// benchmark name; each is hashed before it is stored and keeps its
    /// fingerprint.
    sources: Mutex<HashMap<String, Arc<Mig>>>,
    started: Instant,
    local_addr: SocketAddr,
    accepting: AtomicBool,
    workers_total: usize,
    workers_busy: AtomicUsize,
    jobs_served: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected: AtomicU64,
    pending: PendingReplies,
}

/// Triggers graceful shutdown from anywhere: another thread, a signal
/// substitute (the CLI's `--watch-stdin` supervisor pipe), a test.
#[derive(Clone)]
pub struct ShutdownTrigger {
    shared: Arc<Shared>,
}

impl ShutdownTrigger {
    /// Stops accepting, closes the queue for draining, wakes the
    /// acceptor so the listener drops. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`DaemonHandle::shutdown`] (or send the `shutdown` verb) and
/// then [`DaemonHandle::join`].
pub struct DaemonHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (with the OS-assigned port when the config
    /// asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A cloneable shutdown trigger decoupled from the handle.
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The current counters snapshot (same payload as the `metrics`
    /// verb).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics()
    }

    /// Initiates graceful shutdown (see [`ShutdownTrigger::shutdown`]).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for shutdown to complete: the acceptor has dropped the
    /// listener, the workers have drained the queue, and every pending
    /// response has been written back. Returns the final counters.
    ///
    /// Blocks until something triggers shutdown — the `shutdown` verb,
    /// [`DaemonHandle::shutdown`], or a [`ShutdownTrigger`].
    pub fn join(self) -> MetricsSnapshot {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        self.shared.pending.wait_zero();
        self.shared.metrics()
    }
}

/// Binds the listener and spawns the daemon's threads.
///
/// # Errors
///
/// Returns the bind/spawn I/O error; the daemon either starts fully or
/// not at all.
pub fn serve(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let workers_total = if config.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.workers
    };
    let shared = Arc::new(Shared {
        // Each job runs single-threaded: the worker pool is the
        // parallelism axis, and reports stay byte-identical to a direct
        // `Service` run regardless of thread counts.
        service: Service::new().with_threads(1),
        queue: BoundedQueue::new(config.queue_depth),
        cache: Mutex::new(ReportCache::new(config.cache_capacity)),
        frontends: FrontEnds::new(FRONT_END_BYTES),
        sources: Mutex::new(HashMap::new()),
        started: Instant::now(),
        local_addr,
        accepting: AtomicBool::new(true),
        workers_total,
        workers_busy: AtomicUsize::new(0),
        jobs_served: AtomicU64::new(0),
        jobs_failed: AtomicU64::new(0),
        jobs_rejected: AtomicU64::new(0),
        pending: PendingReplies::default(),
    });

    let mut workers = Vec::with_capacity(workers_total);
    for i in 0..workers_total {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("rlimd-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("rlimd-acceptor".to_string())
            .spawn(move || accept_loop(listener, &shared))?
    };
    Ok(DaemonHandle {
        shared,
        acceptor,
        workers,
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        // Checked after every wakeup: `begin_shutdown` self-connects to
        // get us here, and the break drops the listener, so the socket
        // refuses connections from this point on.
        if !shared.accepting.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("rlimd-conn".to_string())
            .spawn(move || handle_connection(&shared, stream));
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells a line of exactly the cap, newline
        // included, from a longer one.
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let oversize = buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n');
        let request = if oversize {
            Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes"))
        } else {
            match std::str::from_utf8(&buf) {
                // Garbage like any other: answered, and the connection
                // keeps serving.
                Err(_) => Err("request line is not UTF-8".to_string()),
                Ok(text) => {
                    let text = text.strip_suffix('\n').unwrap_or(text);
                    let text = text.strip_suffix('\r').unwrap_or(text);
                    if text.trim().is_empty() {
                        continue;
                    }
                    Ok(text)
                }
            }
        };
        shared.pending.enter();
        let reply = match request {
            Ok(text) => shared.respond(text),
            Err(message) => line(wire::error_line(&Error::InvalidRequest(message))),
        };
        // One `write_all` per line, newline included: a reply larger than
        // the writer's buffer goes straight to the socket, and a separate
        // newline write would then trail it as a second segment that
        // waits out the peer's delayed ACK.
        let written = writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.flush());
        shared.pending.exit();
        if written.is_err() || oversize {
            break;
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.workers_busy.fetch_add(1, Ordering::SeqCst);
        // A panicking job (a compiler bug on some exotic input) must
        // cost one response, not one worker: catch it and answer with a
        // structured error.
        let result = catch_unwind(AssertUnwindSafe(|| shared.run_job(&job.spec, job.key)))
            .unwrap_or_else(|_| Err(Error::Run("internal: job panicked".to_string())));
        let reply = shared.answer(result);
        shared.workers_busy.fetch_sub(1, Ordering::SeqCst);
        let _ = job.reply.send(reply);
    }
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.accepting.swap(false, Ordering::SeqCst) {
            self.queue.close();
            // Wake the acceptor out of `accept` so it can observe the
            // flag and drop the listener.
            let _ = TcpStream::connect(self.local_addr);
        }
    }

    fn respond(self: &Arc<Self>, text: &str) -> Line {
        match wire::decode_request(text) {
            Err(error) => line(wire::error_line(&error)),
            Ok(Request::Healthz) => line(wire::healthz_line(&self.health())),
            Ok(Request::Metrics) => line(wire::metrics_line(&self.metrics())),
            Ok(Request::Shutdown) => {
                self.begin_shutdown();
                line(wire::shutdown_line())
            }
            Ok(Request::Job(spec)) => self.serve_job(*spec),
        }
    }

    /// Refuses an invalid spec the way a malformed line is refused (no
    /// served, failed or miss count), answers a hit on the calling
    /// connection thread when the spec's key can be derived without a
    /// build, and queues every other job. A probe that finds nothing
    /// counts no miss: the worker's lookup of the queued job counts it
    /// (or a hit, if a sibling filled the entry meanwhile).
    fn serve_job(&self, spec: JobSpec) -> Line {
        if let Err(error) = spec.validate() {
            return line(wire::error_line(&error));
        }
        let key = match self
            .known_fingerprint(&spec)
            .map(|fingerprint| cache_key(fingerprint, &spec))
            .transpose()
        {
            Ok(key) => key,
            Err(error) => return self.answer(Err(error)),
        };
        if let Some(key) = &key {
            // A draining daemon takes no more jobs, hits included.
            if self.accepting.load(Ordering::SeqCst) {
                let hit = self
                    .cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .hit(key);
                if let Some(entry) = hit {
                    return self.answer(Ok(Arc::new(entry.splice(&spec))));
                }
            }
        }
        let (reply, response) = std::sync::mpsc::sync_channel(1);
        match self.queue.try_push(QueuedJob { spec, key, reply }) {
            Err(refusal) => {
                self.jobs_rejected.fetch_add(1, Ordering::SeqCst);
                let message = match refusal {
                    PushError::Full => "job queue full",
                    PushError::Closed => "daemon is draining",
                };
                line(wire::rejected_line(
                    self.queue.len(),
                    self.queue.capacity(),
                    message,
                ))
            }
            Ok(()) => response.recv().unwrap_or_else(|_| {
                line(wire::error_line(&Error::Run(
                    "internal: worker dropped the job".to_string(),
                )))
            }),
        }
    }

    /// Counts a served job (and a failed one) and turns its outcome into
    /// the reply line.
    fn answer(&self, result: Result<Line, Error>) -> Line {
        let reply = result.unwrap_or_else(|error| {
            self.jobs_failed.fetch_add(1, Ordering::SeqCst);
            line(wire::error_line(&error))
        });
        self.jobs_served.fetch_add(1, Ordering::SeqCst);
        reply
    }

    /// The spec's source fingerprint when no build is needed to know it:
    /// a benchmark that an earlier job already built. The graph keeps
    /// the fingerprint [`Shared::load_source`] computed, so this hashes
    /// nothing.
    fn known_fingerprint(&self, spec: &JobSpec) -> Option<u128> {
        let Source::Benchmark(b) = spec.source() else {
            return None;
        };
        self.sources
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(b.name())
            .map(|mig| mig.fingerprint())
    }

    /// Loads the spec's source graph, building a benchmark only on its
    /// first use in the daemon's lifetime.
    fn load_source(&self, spec: &JobSpec) -> Result<Arc<Mig>, Error> {
        let Source::Benchmark(b) = spec.source() else {
            return spec.source().load();
        };
        let sources = &self.sources;
        if let Some(entry) = sources
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(b.name())
        {
            return Ok(entry.clone());
        }
        // Build outside the lock so a large benchmark's first touch
        // doesn't serialize the other workers; a racing builder's entry
        // wins and becomes the canonical Arc. Hashed before it is
        // published, so a connection thread only reads the kept value.
        let mig = spec.source().load()?;
        mig.fingerprint();
        Ok(Arc::clone(
            sources
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(b.name().to_string())
                .or_insert(mig),
        ))
    }

    fn run_job(&self, spec: &JobSpec, key: Option<String>) -> Result<Line, Error> {
        let mig = self.load_source(spec)?;
        let key = match key {
            Some(key) => key,
            None => cache_key(mig.fingerprint(), spec)?,
        };
        let hit = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(&key);
        if let Some(entry) = hit {
            return Ok(Arc::new(entry.splice(spec)));
        }
        let run_spec = spec.clone().with_source(Source::Mig(mig));
        let mut report = self
            .service
            .run_batch_with(std::slice::from_ref(&run_spec), &self.frontends)?
            .pop()
            .expect("one report per spec");
        // The daemon compiles through an in-memory graph whose label
        // would read `<mig>`; the reply names the request's own source.
        report.label = spec.label();
        // Rendered outside the lock, once: the entry and this reply
        // share the line.
        let entry = CachedReply::render(&report);
        let reply = Arc::clone(entry.line());
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, entry);
        Ok(reply)
    }

    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_ticks: self.started.elapsed().as_secs(),
            workers: self.workers_total,
            workers_busy: self.workers_busy.load(Ordering::SeqCst),
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            jobs_served: self.jobs_served.load(Ordering::SeqCst),
            jobs_failed: self.jobs_failed.load(Ordering::SeqCst),
            jobs_rejected: self.jobs_rejected.load(Ordering::SeqCst),
            cache: self
                .cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .stats(),
            frontends: self.frontends.stats(),
        }
    }

    fn health(&self) -> Health {
        Health {
            ok: true,
            accepting: self.accepting.load(Ordering::SeqCst),
            workers: self.workers_total,
            queue_depth: self.queue.len(),
        }
    }
}
