//! The front end of a compilation: the rewritten graph and its
//! schedules, shared by every compile that differs only in back-end
//! options.
//!
//! Rewriting (paper Algorithm 1/2) reads only the source graph, the
//! algorithm and its effort; scheduling (Algorithm 3) reads only that
//! graph and the selection policy. Neither reads allocation, the write
//! cap, peephole, copy-reuse, esat or the backend. A [`FrontEnd`] holds
//! the result of both stages so a sweep over back-end options rewrites
//! its circuit once and schedules it once per selection policy.

use std::sync::{Arc, OnceLock};

use rlim_mig::rewrite::{rewrite, Algorithm};
use rlim_mig::Mig;

use crate::options::{CompileOptions, Selection};
use crate::pipeline::Schedule;

/// The rewritten graph of one `(source, rewriting, effort)` triple, with
/// a lazily filled [`Schedule`] slot per [`Selection`].
///
/// A front end is immutable apart from its schedule slots, which fill
/// at most once each (a concurrent reader waits for the one filling the
/// slot), so it can be shared across threads behind an `Arc`.
///
/// # Examples
///
/// ```
/// use rlim_compiler::{compile, compile_front, CompileOptions, FrontEnd, FrontKey};
/// use rlim_mig::Mig;
///
/// let mut mig = Mig::new(3);
/// let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
/// let (sum, carry) = mig.full_adder(a, b, c);
/// mig.add_output(sum);
/// mig.add_output(carry);
///
/// // Two configurations that differ only in the write cap share the
/// // rewritten graph and its endurance-aware schedule.
/// let options = CompileOptions::endurance_aware();
/// let front = FrontEnd::build(&mig, FrontKey::of(&options));
/// for cap in [None, Some(3)] {
///     let options = CompileOptions { max_writes: cap, ..options };
///     assert!(front.serves(&options));
///     let shared = compile_front(&front, &options);
///     assert_eq!(shared.program, compile(&mig, &options).program);
/// }
/// ```
#[derive(Debug)]
pub struct FrontEnd {
    graph: Arc<Mig>,
    key: FrontKey,
    /// One slot per [`Selection`], indexed by its discriminant.
    schedules: [OnceLock<Schedule>; 3],
}

/// What a front end depends on besides its source graph: the rewriting
/// algorithm and its effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrontKey {
    /// The rewriting algorithm, `None` for the graph as given.
    pub rewriting: Option<Algorithm>,
    /// Rewriting effort cycles; `0` when nothing is rewritten, since the
    /// effort is then never read.
    pub effort: usize,
}

impl FrontKey {
    /// The part of `options` a front end depends on.
    pub fn of(options: &CompileOptions) -> Self {
        FrontKey {
            rewriting: options.rewriting,
            effort: options.rewriting.map_or(0, |_| options.effort),
        }
    }

    /// `source` rewritten under this key, `None` when nothing is
    /// rewritten.
    fn rewrite(self, source: &Mig) -> Option<Mig> {
        self.rewriting
            .map(|algorithm| rewrite(source, algorithm, self.effort))
    }
}

impl FrontEnd {
    /// The front end of a shared source graph under `key`: the source
    /// itself (shared, not copied) when `key` rewrites nothing.
    pub fn new(source: &Arc<Mig>, key: FrontKey) -> Self {
        let graph = match key.rewrite(source) {
            Some(graph) => Arc::new(graph),
            None => Arc::clone(source),
        };
        FrontEnd::from_parts(graph, key)
    }

    /// The front end of a borrowed source graph under `key`; the source
    /// is copied only when `key` rewrites nothing.
    pub fn build(source: &Mig, key: FrontKey) -> Self {
        let graph = key.rewrite(source).unwrap_or_else(|| source.clone());
        FrontEnd::from_parts(Arc::new(graph), key)
    }

    fn from_parts(graph: Arc<Mig>, key: FrontKey) -> Self {
        FrontEnd {
            graph,
            key,
            schedules: Default::default(),
        }
    }

    /// Whether this front end is the one `options` compile from: the
    /// same rewriting algorithm and effort.
    pub fn serves(&self, options: &CompileOptions) -> bool {
        self.key == FrontKey::of(options)
    }

    /// The rewriting this front end was built with.
    pub fn key(&self) -> FrontKey {
        self.key
    }

    /// The (possibly rewritten) graph every back end compiles.
    pub fn graph(&self) -> &Arc<Mig> {
        &self.graph
    }

    /// The graph's schedule under `selection`, computed on first use.
    pub fn schedule(&self, selection: Selection) -> &Schedule {
        self.schedules[selection as usize].get_or_init(|| {
            let mut schedule = Schedule::of(&self.graph, selection);
            // A front end may be kept for many compiles: keep no slack.
            schedule.order.shrink_to_fit();
            schedule.fanout.shrink_to_fit();
            schedule
        })
    }

    /// Bytes this front end holds: the graph and every schedule filled
    /// so far, allocated capacity included. The graph counts in full even
    /// when it is the shared source, so a cache charging this never
    /// undercounts what it keeps alive.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<FrontEnd>()
            + self.graph.heap_bytes()
            + self
                .schedules
                .iter()
                .filter_map(OnceLock::get)
                .map(Schedule::heap_bytes)
                .sum::<usize>()
    }
}
