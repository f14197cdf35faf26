//! The front-end memo: rewritten graphs with their schedules and IMPLY
//! wear summaries, keyed by `(source fingerprint, rewriting, effort)`
//! and shared by every compile that differs only in back-end options.
//!
//! Every [`Service`](crate::Service) run compiles through one:
//! [`Service::run_batch`](crate::Service::run_batch) through a memo of
//! its own that lives as long as the call, and a caller that keeps front
//! ends across calls (the daemon) through its own memo, passed to
//! [`Service::run_batch_with`](crate::Service::run_batch_with). The key
//! reads the source's [`Mig::fingerprint`], which the graph keeps once
//! computed, so a source shared by many lookups is hashed once. The memo
//! is least-recently-used under a byte bound: an entry is charged its
//! [`FrontEnd::heap_bytes`], which grows as schedule slots fill (the
//! IMPLY slots are inline, counted from the start).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rlim_compiler::{FrontEnd, FrontKey, Selection};
use rlim_mig::Mig;

use crate::lru::Lru;

/// Memo counters, for the daemon's `metrics` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrontEndStats {
    /// Live entries.
    pub entries: usize,
    /// Bytes the live entries are charged.
    pub bytes: usize,
    /// Lookups that found their front end.
    pub hits: u64,
    /// Lookups that had to rewrite.
    pub misses: u64,
    /// Entries evicted to stay within the byte bound.
    pub evictions: u64,
}

/// A thread-safe, byte-bounded memo of [`FrontEnd`]s.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rlim_benchmarks::Benchmark;
/// use rlim_compiler::{CompileOptions, FrontKey};
/// use rlim_service::FrontEnds;
///
/// let memo = FrontEnds::new(64 << 20);
/// let mig = Arc::new(Benchmark::Ctrl.build());
/// let options = CompileOptions::endurance_aware();
/// let key = |options: &CompileOptions| FrontKey::of(options);
/// let first = memo.get(&mig, key(&options));
/// // A write cap is a back-end option: the same front end answers.
/// let capped = memo.get(&mig, key(&options.with_max_writes(20)));
/// assert!(Arc::ptr_eq(&first, &capped));
/// // So does a second build of the same graph: the key is its structure.
/// let rebuilt = Arc::new(Benchmark::Ctrl.build());
/// assert!(Arc::ptr_eq(&first, &memo.get(&rebuilt, key(&options))));
/// assert_eq!((memo.stats().hits, memo.stats().misses), (2, 1));
/// ```
#[derive(Debug)]
pub struct FrontEnds {
    memo: Mutex<Memo>,
}

#[derive(Debug)]
struct Memo {
    lru: Lru<(u128, FrontKey), Arc<FrontEnd>>,
    hits: u64,
    misses: u64,
}

impl FrontEnds {
    /// An empty memo whose entries may hold `bytes` in total.
    pub fn new(bytes: usize) -> Self {
        FrontEnds {
            memo: Mutex::new(Memo {
                lru: Lru::new(bytes),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The front end of `source` under `rewriting`. A miss rewrites
    /// outside the lock; when two callers race on one key, the first
    /// entry inserted is kept and returned to both.
    pub fn get(&self, source: &Arc<Mig>, rewriting: FrontKey) -> Arc<FrontEnd> {
        let key = (source.fingerprint(), rewriting);
        {
            let mut memo = self.lock();
            if let Some(front) = memo.lru.get(&key).map(Arc::clone) {
                memo.hits += 1;
                return front;
            }
            memo.misses += 1;
        }
        let built = Arc::new(FrontEnd::new(source, rewriting));
        let mut memo = self.lock();
        if let Some(first) = memo.lru.get(&key) {
            return Arc::clone(first);
        }
        let bytes = built.heap_bytes();
        memo.lru.insert(key, Arc::clone(&built), bytes);
        built
    }

    /// Fills the schedule slot for `selection` (if empty) of `front`,
    /// the front end of `source`, and recharges its entry, which may
    /// evict older entries, or this one when it alone outgrows the bound.
    pub fn schedule(&self, source: &Mig, front: &Arc<FrontEnd>, selection: Selection) {
        front.schedule(selection);
        let key = (source.fingerprint(), front.key());
        let mut memo = self.lock();
        // Only the entry this front end is: a racing loser or an evicted
        // one is not in the memo to charge.
        if memo
            .lru
            .peek(&key)
            .is_some_and(|kept| Arc::ptr_eq(kept, front))
        {
            memo.lru.reweigh(&key, front.heap_bytes());
        }
    }

    /// The current counters.
    pub fn stats(&self) -> FrontEndStats {
        let memo = self.lock();
        FrontEndStats {
            entries: memo.lru.len(),
            bytes: memo.lru.weight(),
            hits: memo.hits,
            misses: memo.misses,
            evictions: memo.lru.evictions(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_benchmarks::Benchmark;
    use rlim_compiler::CompileOptions;

    /// Scheduling charges the entry of the front end's source, found by
    /// the source's fingerprint: any graph of that structure will do.
    #[test]
    fn schedules_recharge_their_source_entry() {
        let memo = FrontEnds::new(usize::MAX);
        let mig = Arc::new(Benchmark::Ctrl.build());
        let options = CompileOptions::endurance_aware();
        let front = memo.get(&mig, FrontKey::of(&options));
        let unscheduled = memo.stats().bytes;
        assert_eq!(unscheduled, front.heap_bytes());
        memo.schedule(&Benchmark::Ctrl.build(), &front, options.selection);
        assert!(front.heap_bytes() > unscheduled);
        assert_eq!(memo.stats().bytes, front.heap_bytes());
        // Another source's schedule call leaves this entry as it is.
        memo.schedule(&Benchmark::Dec.build(), &front, Selection::Topological);
        assert!(front.heap_bytes() > memo.stats().bytes);
    }
}
