//! The front-end memo: rewritten graphs with their schedules and IMPLY
//! wear summaries, keyed by `(source fingerprint, rewriting, effort)`
//! and shared by every compile that differs only in back-end options.
//!
//! [`Service::run_batch`](crate::Service::run_batch) shares front ends
//! within one call; a caller that keeps them across calls (the daemon)
//! passes a memo to
//! [`Service::run_batch_with`](crate::Service::run_batch_with). The memo
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
/// let first = memo.get(mig.fingerprint(), &mig, key(&options));
/// // A write cap is a back-end option: the same front end answers.
/// let capped = memo.get(mig.fingerprint(), &mig, key(&options.with_max_writes(20)));
/// assert!(Arc::ptr_eq(&first, &capped));
/// assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
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

    /// The front end of `source`, whose fingerprint is `fingerprint`,
    /// under `rewriting`. A miss rewrites outside the lock; when two
    /// callers race on one key, the first entry inserted is kept and
    /// returned to both.
    pub fn get(&self, fingerprint: u128, source: &Arc<Mig>, rewriting: FrontKey) -> Arc<FrontEnd> {
        let key = (fingerprint, rewriting);
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

    /// Fills `front`'s schedule slot for `selection` (if empty) and
    /// recharges its entry, which may evict older entries, or this one
    /// when it alone outgrows the bound.
    pub fn schedule(&self, fingerprint: u128, front: &Arc<FrontEnd>, selection: Selection) {
        front.schedule(selection);
        let key = (fingerprint, front.key());
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
