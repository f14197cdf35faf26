//! Typed payloads for the daemon's introspection verbs.
//!
//! `metrics` answers with a [`MetricsSnapshot`], `healthz` with a
//! [`Health`] probe. Both serialize through the in-tree JSON writer and
//! decode back on the client side; the field sets are pinned
//! byte-for-byte by the wire-protocol goldens in `tests/service_api.rs`.

use rlim_service::json::{Fields, Json};
use rlim_service::{Error, FrontEndStats};

use crate::cache::CacheStats;

/// One point-in-time counters snapshot: queue, workers, jobs, cache and
/// front-end memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Whole seconds since the daemon booted.
    pub uptime_ticks: u64,
    /// Worker-pool size.
    pub workers: usize,
    /// Workers executing a job right now.
    pub workers_busy: usize,
    /// Jobs admitted and waiting for a worker.
    pub queue_depth: usize,
    /// The queue's admission limit.
    pub queue_capacity: usize,
    /// Job requests answered (reports and error responses alike).
    pub jobs_served: u64,
    /// Job requests that failed with an error response.
    pub jobs_failed: u64,
    /// Job requests refused at admission (queue full or draining).
    pub jobs_rejected: u64,
    /// Compile-cache counters.
    pub cache: CacheStats,
    /// Front-end memo counters: rewritten graphs and schedules the
    /// workers' misses share.
    pub frontends: FrontEndStats,
}

impl MetricsSnapshot {
    /// The `metrics` payload (the object inside the envelope).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("uptime_ticks", Json::from(self.uptime_ticks)),
            ("workers", Json::from(self.workers)),
            ("workers_busy", Json::from(self.workers_busy)),
            ("queue_depth", Json::from(self.queue_depth)),
            ("queue_capacity", Json::from(self.queue_capacity)),
            ("jobs_served", Json::from(self.jobs_served)),
            ("jobs_failed", Json::from(self.jobs_failed)),
            ("jobs_rejected", Json::from(self.jobs_rejected)),
            (
                "cache",
                Json::object([
                    ("entries", Json::from(self.cache.entries)),
                    ("capacity", Json::from(self.cache.capacity)),
                    ("hits", Json::from(self.cache.hits)),
                    ("misses", Json::from(self.cache.misses)),
                    ("evictions", Json::from(self.cache.evictions)),
                ]),
            ),
            (
                "frontends",
                Json::object([
                    ("entries", Json::from(self.frontends.entries)),
                    ("bytes", Json::from(self.frontends.bytes)),
                    ("hits", Json::from(self.frontends.hits)),
                    ("misses", Json::from(self.frontends.misses)),
                    ("evictions", Json::from(self.frontends.evictions)),
                ]),
            ),
        ])
    }

    /// Decodes a `metrics` payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Run`] when the payload does not have the pinned
    /// shape.
    pub fn from_json(json: &Json) -> Result<Self, Error> {
        Fields::of(json, "metrics")
            .and_then(|m| Self::decode(&m))
            .map_err(Error::Run)
    }

    pub(crate) fn decode(m: &Fields<'_>) -> Result<Self, String> {
        let cache = m.object("cache")?;
        let frontends = m.object("frontends")?;
        Ok(MetricsSnapshot {
            uptime_ticks: m.u64("uptime_ticks")?,
            workers: m.usize("workers")?,
            workers_busy: m.usize("workers_busy")?,
            queue_depth: m.usize("queue_depth")?,
            queue_capacity: m.usize("queue_capacity")?,
            jobs_served: m.u64("jobs_served")?,
            jobs_failed: m.u64("jobs_failed")?,
            jobs_rejected: m.u64("jobs_rejected")?,
            cache: CacheStats {
                entries: cache.usize("entries")?,
                capacity: cache.usize("capacity")?,
                hits: cache.u64("hits")?,
                misses: cache.u64("misses")?,
                evictions: cache.u64("evictions")?,
            },
            frontends: FrontEndStats {
                entries: frontends.usize("entries")?,
                bytes: frontends.usize("bytes")?,
                hits: frontends.u64("hits")?,
                misses: frontends.u64("misses")?,
                evictions: frontends.u64("evictions")?,
            },
        })
    }
}

/// The `healthz` probe: alive, and (still) taking work?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// Always `true` on a reply — a dead daemon cannot answer.
    pub ok: bool,
    /// Whether new connections and jobs are admitted (`false` while
    /// draining for shutdown).
    pub accepting: bool,
    /// Worker-pool size.
    pub workers: usize,
    /// Jobs admitted and waiting for a worker.
    pub queue_depth: usize,
}

impl Health {
    /// The `healthz` payload (the object inside the envelope).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("ok", Json::from(self.ok)),
            ("accepting", Json::from(self.accepting)),
            ("workers", Json::from(self.workers)),
            ("queue_depth", Json::from(self.queue_depth)),
        ])
    }

    /// Decodes a `healthz` payload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Run`] when the payload does not have the pinned
    /// shape.
    pub fn from_json(json: &Json) -> Result<Self, Error> {
        Fields::of(json, "healthz")
            .and_then(|h| Self::decode(&h))
            .map_err(Error::Run)
    }

    pub(crate) fn decode(h: &Fields<'_>) -> Result<Self, String> {
        Ok(Health {
            ok: h.bool("ok")?,
            accepting: h.bool("accepting")?,
            workers: h.usize("workers")?,
            queue_depth: h.usize("queue_depth")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_round_trip() {
        let snapshot = MetricsSnapshot {
            uptime_ticks: 12,
            workers: 4,
            workers_busy: 2,
            queue_depth: 1,
            queue_capacity: 8,
            jobs_served: 100,
            jobs_failed: 3,
            jobs_rejected: 7,
            cache: CacheStats {
                entries: 5,
                capacity: 256,
                hits: 90,
                misses: 10,
                evictions: 0,
            },
            frontends: FrontEndStats {
                entries: 3,
                bytes: 4096,
                hits: 20,
                misses: 3,
                evictions: 1,
            },
        };
        assert_eq!(
            MetricsSnapshot::from_json(&snapshot.to_json()).unwrap(),
            snapshot
        );
        let health = Health {
            ok: true,
            accepting: false,
            workers: 4,
            queue_depth: 1,
        };
        assert_eq!(Health::from_json(&health.to_json()).unwrap(), health);
        assert!(MetricsSnapshot::from_json(&Json::Null).is_err());
        assert!(Health::from_json(&Json::object([("ok", true)])).is_err());
    }
}
