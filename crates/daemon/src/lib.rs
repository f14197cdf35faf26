//! `rlimd` — a long-running compile-job daemon for the RLIM toolchain.
//!
//! The daemon listens on a TCP socket and speaks **JSON lines**: each
//! request is one JSON object per line carrying a verb (`job`,
//! `metrics`, `healthz`, `shutdown`), each response one JSON object per
//! line — a bare report document for jobs, a single-key envelope
//! (`rejected`, `error`, `metrics`, `healthz`, `shutdown`) for
//! everything else. The protocol is serde-free on both sides: it reuses
//! the service crate's own [`rlim_service::json::Json`] writer/parser,
//! and the exact bytes are pinned by goldens in `tests/service_api.rs`.
//!
//! Architecture, end to end:
//!
//! * [`serve`] binds a [`std::net::TcpListener`] (port 0 for an
//!   ephemeral port) and spawns an acceptor plus a worker pool;
//! * a [`ReportCache`] keyed by [`cache_key`] — the source graph's
//!   structural fingerprint plus the spec's canonical wire encoding,
//!   with the source dropped and the backend replaced by its compile
//!   class — holds each miss's rendered reply line, so repeat jobs are
//!   answered byte-identically (modulo the report's `cached` flag)
//!   without recompiling or re-rendering;
//! * connection threads decode request lines, answer a hit on a known
//!   benchmark themselves, and `try_push` every other job onto a
//!   [`BoundedQueue`] — a full queue answers `rejected` immediately
//!   (admission control) without disturbing in-flight work;
//! * workers drain the queue, compiling misses into the cache through
//!   one shared, byte-bounded [`rlim_service::FrontEnds`] memo, so a miss
//!   that differs from an earlier one only in back-end options skips
//!   rewrite and schedule;
//! * the `shutdown` verb (or a [`ShutdownTrigger`]) stops accepting,
//!   drains the queue and lets [`DaemonHandle::join`] return the final
//!   counters for a clean exit 0.
//!
//! [`Client`] is the matching blocking client, used by
//! `rlim report --remote` and the black-box test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod wire;

pub use cache::{cache_key, CacheStats, CachedReply, ReportCache};
pub use client::Client;
pub use metrics::{Health, MetricsSnapshot};
pub use queue::{BoundedQueue, PushError};
pub use server::{serve, DaemonConfig, DaemonHandle, ShutdownTrigger};
pub use wire::{
    decode_request, decode_response, decode_spec, encode_request, encode_spec, ReportLine, Request,
    Response,
};
