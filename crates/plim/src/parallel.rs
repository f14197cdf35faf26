//! The workspace's one scoped worker pool.
//!
//! One policy, defined once: `threads == 0` means one worker per
//! available core, the worker count never exceeds the job count, results
//! come back in input order regardless of scheduling, and a panicking job
//! propagates to the caller when the scope joins. The [`crate::Fleet`]'s
//! per-array executors, the differential oracle's preset matrix and the
//! service's batch stages all run on this pool; it lives here because
//! `rlim-plim` is the lowest crate with a parallel caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested worker count: `0` means one per available core,
/// and the count never exceeds the number of jobs.
pub fn resolve_threads(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        requested
    };
    t.clamp(1, jobs.max(1))
}

/// Applies `f` to every job on a scoped worker pool, returning results in
/// input order regardless of scheduling. `threads == 0` uses one worker
/// per core; a worker panic propagates when the scope joins.
pub fn parallel_map<T, R, F>(jobs: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = resolve_threads(threads, jobs.len());
    if threads <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    return;
                }
                let job = jobs[i].lock().expect("job lock").take().expect("job taken");
                let result = f(job);
                *results[i].lock().expect("result lock") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().expect("no poisoned lock").expect("job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order_at_any_thread_count() {
        let jobs: Vec<usize> = (0..57).collect();
        let expect: Vec<usize> = jobs.iter().map(|i| i * i).collect();
        for threads in [0, 1, 3, 16] {
            assert_eq!(
                parallel_map(jobs.clone(), threads, |i| i * i),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(vec![1usize, 2, 3], 2, |i| {
                assert_ne!(i, 2, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn thread_resolution_clamps() {
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(1, 100), 1);
        assert_eq!(resolve_threads(0, 0), 1);
        assert!(resolve_threads(0, 64) >= 1);
    }
}
