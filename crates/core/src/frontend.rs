//! The front end of a compilation: the rewritten graph, its schedules
//! and the wear of its IMPLY programs, shared by every compile that
//! differs only in back-end options.
//!
//! Rewriting (paper Algorithm 1/2) reads only the source graph, the
//! algorithm and its effort; scheduling (Algorithm 3) reads only that
//! graph and the selection policy. Neither reads allocation, the write
//! cap, peephole, copy-reuse, esat or the backend. IMPLY synthesis
//! (paper §II) reads only the graph and the allocation policy. A
//! [`FrontEnd`] holds the result of all three so a sweep over back-end
//! options rewrites its circuit once, schedules it once per selection
//! policy and synthesizes its IMPLY baseline once per allocation policy.
//!
//! It also keeps what an uncapped RM3 compile found: per cap-free option
//! set, the program's [`WearSummary`] and its *translated peak*, the
//! largest write count one cell took in any program the compile
//! translated (every translate arm, every esat candidate), taken before
//! peephole. The maximum write count strategy (the paper's technique 2,
//! Table III) changes a program only where a cell would pass the cap,
//! so a compile whose cap is at or above that peak compiles to the
//! uncapped program, and [`FrontEnd::rm3_summary`] answers it without
//! translating. The rule is exact: the cap is read only by `fits_budget` (at allocation,
//! at in-place consumption and in copy discovery) and by retirement at
//! release. A cell the uncapped run chose for `b` more writes ends with
//! at least `b` more, so it fits any cap at or above the peak, and each
//! policy's first choice is still chosen. A choice that fails the check
//! under the cap is one the uncapped run did not make: only its cost
//! rises, so the cheapest plan stays cheapest. A cell retired under the
//! cap sits at the peak, so the uncapped run never wrote it again. Each
//! translation is then the uncapped one, esat scores and keeps the same
//! candidates, and peephole, which runs after, elides the same writes.
//! The peak must be taken before peephole, since the checks read the
//! translator's counts, and over every translation, since esat's
//! candidates are translated under the cap too.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rlim_isa::{Isa, Program};
use rlim_mig::rewrite::{rewrite, Algorithm};
use rlim_mig::Mig;
use rlim_rram::WriteStats;

use crate::backend::{Backend, ImpBackend};
use crate::options::{CompileOptions, Selection};
use crate::pipeline::Schedule;

/// What a report reads of a compiled program: `#I`, `#R`, the total
/// writes and the per-cell write statistics. It is also the score every
/// best-of guard compares ([`WearSummary::no_worse_than`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSummary {
    /// Instructions — the paper's `#I`.
    pub instructions: usize,
    /// Cells — the paper's `#R`.
    pub rrams: usize,
    /// Writes one execution makes.
    pub total_writes: u64,
    /// Per-cell write statistics.
    pub writes: WriteStats,
}

impl WearSummary {
    /// The summary of `program`.
    pub fn of<I: Isa>(program: &Program<I>) -> Self {
        WearSummary {
            instructions: program.num_instructions(),
            rrams: program.num_rrams(),
            total_writes: program.total_writes(),
            writes: program.write_stats(),
        }
    }

    /// Pointwise no worse on the paper's endurance metrics: `#I`, peak
    /// per-cell writes and write STDEV.
    pub fn no_worse_than(&self, other: &Self) -> bool {
        self.instructions <= other.instructions
            && self.writes.max <= other.writes.max
            && self.writes.stdev <= other.writes.stdev
    }

    /// No worse, and strictly better on at least one of the three.
    pub fn dominates(&self, other: &Self) -> bool {
        self.no_worse_than(other)
            && (self.instructions < other.instructions
                || self.writes.max < other.writes.max
                || self.writes.stdev < other.writes.stdev)
    }
}

/// The rewritten graph of one `(source, rewriting, effort)` triple, with
/// a lazily filled [`Schedule`] slot per [`Selection`], a lazily
/// filled IMPLY [`WearSummary`] slot per [`Allocation`](crate::Allocation)
/// and an RM3 slot per cap-free option set, filled by its uncapped
/// [`compile_front`](crate::compile_front).
///
/// A front end is immutable apart from its slots, which fill at most
/// once each (a concurrent reader of a schedule or IMPLY slot waits for
/// the one filling it), so it can be shared across threads behind an
/// `Arc`. The IMPLY and RM3 slots keep the summary, not the program: a
/// front end kept for many compiles holds a few numbers per option set,
/// and a caller that needs the listing compiles it.
///
/// # Examples
///
/// ```
/// use rlim_compiler::{
///     compile, compile_front, Backend, CompileOptions, FrontEnd, FrontKey, ImpBackend, WearSummary,
/// };
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
///
/// // The uncapped compile filled its RM3 slot, which answers any cap
/// // at or above its translated peak without translating.
/// let peak = front.rm3_peak(&options).expect("filled by the uncapped compile");
/// let at_peak = options.with_max_writes(peak.max(3));
/// let program = compile(&mig, &at_peak).program;
/// assert_eq!(front.rm3_summary(&at_peak), Some(WearSummary::of(&program)));
///
/// // They share the summary of their IMPLY program too: one synthesis.
/// let capped = CompileOptions { max_writes: Some(3), ..options };
/// assert!(std::ptr::eq(front.imp_summary(&options), front.imp_summary(&capped)));
/// let program = ImpBackend.compile(&mig, &capped);
/// assert_eq!(*front.imp_summary(&capped), WearSummary::of(&program));
/// ```
#[derive(Debug)]
pub struct FrontEnd {
    graph: Arc<Mig>,
    key: FrontKey,
    /// One slot per [`Selection`], indexed by its discriminant.
    schedules: [OnceLock<Schedule>; 3],
    /// One IMPLY slot per allocation policy (the one option IMPLY
    /// synthesis reads besides the front end's own), indexed by its
    /// discriminant.
    imp: [OnceLock<WearSummary>; 2],
    /// The RM3 slots filled so far, one per cap-free option set.
    rm3: Mutex<Vec<Rm3Slot>>,
}

/// What an uncapped RM3 compile left on its front end.
#[derive(Debug, Clone, Copy)]
struct Rm3Slot {
    /// The compile's options; `max_writes` is `None`.
    options: CompileOptions,
    summary: WearSummary,
    /// The translated peak (see the [module docs](self)).
    peak: u64,
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
            imp: Default::default(),
            rm3: Mutex::default(),
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

    /// The wear summary of the IMPLY program `options` compile from this
    /// front end, synthesized ([`ImpBackend`]) on the first call for
    /// `options`' allocation policy; every later call for that policy
    /// answers from the slot, whatever the other options.
    ///
    /// # Panics
    ///
    /// Panics if `options` name another rewriting than this front end's.
    pub fn imp_summary(&self, options: &CompileOptions) -> &WearSummary {
        assert!(
            self.serves(options),
            "a front end compiles only the rewriting it was built with"
        );
        self.imp[options.allocation as usize]
            .get_or_init(|| WearSummary::of(&ImpBackend.compile_front(self, options)))
    }

    /// The wear summary of the RM3 program `options` compile from this
    /// front end, when the slot of their cap-free option set answers it:
    /// the slot is filled, and `options` set no cap or one at or above
    /// its translated peak (the rule is in the module docs).
    /// `None` otherwise; the caller translates.
    ///
    /// Debug builds check every capped answer against a fresh capped
    /// compile.
    ///
    /// # Panics
    ///
    /// Panics if `options` name another rewriting than this front end's.
    pub fn rm3_summary(&self, options: &CompileOptions) -> Option<WearSummary> {
        let slot = self.rm3_slot(options)?;
        if options.max_writes.is_some_and(|cap| cap < slot.peak) {
            return None;
        }
        debug_assert!(
            options.max_writes.is_none()
                || WearSummary::of(&crate::compile_front(self, options).program) == slot.summary,
            "a slot answer differs from its capped translation: {options:?}"
        );
        Some(slot.summary)
    }

    /// The translated peak of the uncapped compile of `options`' cap-free
    /// option set, once that compile has run.
    ///
    /// # Panics
    ///
    /// Panics if `options` name another rewriting than this front end's.
    pub fn rm3_peak(&self, options: &CompileOptions) -> Option<u64> {
        self.rm3_slot(options).map(|slot| slot.peak)
    }

    fn rm3_slot(&self, options: &CompileOptions) -> Option<Rm3Slot> {
        assert!(
            self.serves(options),
            "a front end compiles only the rewriting it was built with"
        );
        let uncapped = CompileOptions {
            max_writes: None,
            ..*options
        };
        self.rm3_slots()
            .iter()
            .find(|slot| slot.options == uncapped)
            .copied()
    }

    /// Fills the RM3 slot of the uncapped `options`, unless it is filled.
    pub(crate) fn fill_rm3(&self, options: &CompileOptions, summary: WearSummary, peak: u64) {
        debug_assert_eq!(options.max_writes, None, "only an uncapped compile fills");
        let mut slots = self.rm3_slots();
        if !slots.iter().any(|slot| slot.options == *options) {
            slots.push(Rm3Slot {
                options: *options,
                summary,
                peak,
            });
        }
    }

    fn rm3_slots(&self) -> std::sync::MutexGuard<'_, Vec<Rm3Slot>> {
        self.rm3.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes this front end holds: the graph, every schedule and the RM3
    /// slots filled so far, allocated capacity included; the IMPLY slots
    /// are inline, so they count from the start and a filling one adds
    /// nothing. The graph counts in full even when it is the shared
    /// source, so a cache charging this never undercounts what it keeps
    /// alive.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<FrontEnd>()
            + self.graph.heap_bytes()
            + self
                .schedules
                .iter()
                .filter_map(OnceLock::get)
                .map(Schedule::heap_bytes)
                .sum::<usize>()
            + self.rm3_slots().capacity() * std::mem::size_of::<Rm3Slot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Allocation;
    use rlim_benchmarks::Benchmark;
    use rlim_mig::random::{generate, RandomMigConfig};

    fn presets() -> impl Iterator<Item = CompileOptions> {
        CompileOptions::preset_names()
            .iter()
            .map(|name| CompileOptions::preset(name).expect("a listed preset"))
    }

    fn filled(front: &FrontEnd) -> usize {
        front.imp.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// Options that differ only in what IMPLY synthesis ignores (the
    /// write cap, selection, copy-reuse, esat and its budgets, peephole)
    /// read one slot, filled once; each allocation policy picks its own.
    #[test]
    fn imp_slots_are_shared_across_ignored_options() {
        let mig = generate(&RandomMigConfig::default(), 5);
        for preset in presets() {
            let front = FrontEnd::build(&mig, FrontKey::of(&preset));
            let first = front.imp_summary(&preset);
            let variants = [
                preset.with_max_writes(3),
                preset.with_max_writes(40),
                CompileOptions {
                    selection: Selection::Topological,
                    ..preset
                },
                CompileOptions {
                    selection: Selection::EnduranceAware,
                    ..preset
                },
                preset.with_copy_reuse(true),
                preset.with_esat(true).with_esat_nodes(7).with_esat_iters(1),
                preset.with_peephole(!preset.peephole),
            ];
            for options in variants {
                assert!(
                    std::ptr::eq(first, front.imp_summary(&options)),
                    "{options:?}"
                );
            }
            assert_eq!(filled(&front), 1, "{preset:?}");
            let bytes = front.heap_bytes();
            for allocation in [Allocation::Lifo, Allocation::MinWrite] {
                let options = CompileOptions {
                    allocation,
                    ..preset
                };
                let slot = front.imp_summary(&options);
                assert!(std::ptr::eq(slot, front.imp_summary(&options)));
            }
            assert_eq!(filled(&front), 2, "{preset:?}");
            assert_eq!(front.heap_bytes(), bytes, "the slots are inline");
        }
    }

    /// An uncapped compile fills the RM3 slot of its options, which then
    /// answers exactly the caps at or above its translated peak, with the
    /// summary of the capped compile; a capped compile fills nothing.
    #[test]
    fn rm3_slots_answer_caps_that_cannot_bind() {
        let mig = generate(&RandomMigConfig::default(), 5);
        for preset in presets() {
            let front = FrontEnd::build(&mig, FrontKey::of(&preset));
            let bytes = front.heap_bytes();
            crate::compile_front(&front, &preset.with_max_writes(3));
            assert_eq!(front.rm3_peak(&preset), None, "{preset:?}");
            crate::compile_front(&front, &preset);
            let peak = front.rm3_peak(&preset).expect("filled");
            assert!(front.heap_bytes() > bytes, "the slots count");
            assert_eq!(front.rm3_peak(&preset.with_max_writes(3)), Some(peak));
            assert_eq!(front.rm3_peak(&preset.with_peephole(true)), None);
            for cap in 3..peak + 3 {
                let capped = preset.with_max_writes(cap);
                let program = crate::compile_front(&front, &capped).program;
                match front.rm3_summary(&capped) {
                    Some(summary) => {
                        assert!(cap >= peak, "{capped:?}");
                        assert_eq!(summary, WearSummary::of(&program), "{capped:?}");
                    }
                    None => assert!(cap < peak, "{capped:?}"),
                }
            }
        }
    }

    /// Every slot, filled in an order that would expose a shared or
    /// misplaced index, equals the summary of a freshly synthesized
    /// program: every preset's rewriting × allocation, on random graphs
    /// and on the 18 benchmarks.
    #[test]
    fn imp_slots_equal_fresh_synthesis() {
        let mut migs: Vec<(String, Mig)> = (0..4)
            .map(|seed| {
                let config = RandomMigConfig {
                    inputs: 7,
                    outputs: 5,
                    gates: 90,
                    ..Default::default()
                };
                (format!("random {seed}"), generate(&config, seed))
            })
            .collect();
        migs.extend(
            Benchmark::all()
                .iter()
                .map(|b| (b.name().to_string(), b.build())),
        );
        // The presets name three rewritings; effort 1, since the slots
        // are under test, not the rewrite.
        let mut keys: Vec<FrontKey> = presets().map(|p| FrontKey::of(&p.with_effort(1))).collect();
        keys.dedup();
        for (name, mig) in &migs {
            for &key in &keys {
                let front = FrontEnd::build(mig, key);
                let all =
                    [Allocation::MinWrite, Allocation::Lifo].map(|allocation| CompileOptions {
                        rewriting: key.rewriting,
                        effort: 1,
                        allocation,
                        ..CompileOptions::naive()
                    });
                for options in &all {
                    front.imp_summary(options);
                }
                for options in &all {
                    let program = ImpBackend.compile_front(&front, options);
                    assert_eq!(
                        *front.imp_summary(options),
                        WearSummary::of(&program),
                        "{name} {options:?}"
                    );
                }
            }
        }
    }
}
