//! The compile core's dense structures against brute-force references:
//! the schedule pass's bucket queues (fanout-level buckets under
//! Algorithm 3, releasing classes under the area-aware policy) against a
//! scan of every ready node that reads levels and parents from the
//! `Mig` accessors, and the copy-reuse holder index against the
//! retain-and-push candidate lists it replaced. A counting allocator
//! checks that scheduling a deep chain allocates a fixed number of
//! buffers, none per level.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use proptest::prelude::*;
use rlim::benchmarks::Benchmark;
use rlim::compiler::values::{Holders, ValueId, Values, FALSE, TRUE};
use rlim::compiler::{
    Candidate, CompileOptions, Pass, PipelineState, Schedule, SchedulePass, Selection,
};
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::mig::rewrite::{rewrite, Algorithm};
use rlim::mig::{Mig, NodeId};
use rlim::plim::parallel::parallel_map;
use rlim::rram::CellId;

const POLICIES: [Selection; 3] = [
    Selection::Topological,
    Selection::AreaAware,
    Selection::EnduranceAware,
];

fn mig_strategy() -> impl Strategy<Value = Mig> {
    (
        2usize..9,    // inputs
        1usize..6,    // outputs
        0usize..160,  // gates
        0.0f64..0.6,  // complement probability
        0.0f64..0.5,  // long-edge probability
        any::<u64>(), // seed
    )
        .prop_map(
            |(inputs, outputs, gates, complement_prob, long_edge_prob, seed)| {
                let cfg = RandomMigConfig {
                    inputs,
                    outputs,
                    gates,
                    complement_prob,
                    long_edge_prob,
                    ..Default::default()
                };
                generate(&cfg, seed)
            },
        )
}

/// Wide, shallow graphs: children drawn from the whole history and many
/// outputs drawn from anywhere, so many ready nodes tie on one fanout
/// level, one child's last use raises several waiting parents, and many
/// nodes feed only primary outputs (`fanout_level = u32::MAX`).
fn wide_mig_strategy() -> impl Strategy<Value = Mig> {
    (
        4usize..24,   // inputs
        1usize..40,   // outputs
        0usize..240,  // gates
        0.0f64..0.6,  // constant probability
        any::<u64>(), // seed
    )
        .prop_map(|(inputs, outputs, gates, constant_prob, seed)| {
            let cfg = RandomMigConfig {
                inputs,
                outputs,
                gates,
                constant_prob,
                window: 400,
                ..Default::default()
            };
            generate(&cfg, seed)
        })
}

fn schedule_pass(mig: &Mig, selection: Selection) -> Schedule {
    let options = CompileOptions {
        selection,
        ..CompileOptions::naive()
    };
    let mut state = PipelineState::new(mig, &options);
    SchedulePass.run(&mut state);
    let schedule = state.schedule.expect("the schedule pass emits a schedule");
    schedule.into_owned()
}

/// The schedule by definition: until every live gate is computed, score
/// every ready, uncomputed live gate afresh and compute the one with the
/// largest key (keys are distinct: their last lane is the index), then
/// consume one pending use per child. Levels, parents and liveness come
/// from the `Mig` accessors, so the scan shares no code with the queue it
/// checks.
fn reference_schedule(mig: &Mig, selection: Selection) -> Schedule {
    const CONSTANT: usize = usize::MAX;
    let is_live = mig.live_mask();
    let levels = mig.levels();
    let parents = mig.parents();
    let live: Vec<NodeId> = mig.gates().filter(|g| is_live[g.index()]).collect();
    // Per gate: the non-constant children, and the gate children still
    // uncomputed. Plain loops over flat tables keep the scan affordable
    // in unoptimised test builds.
    let mut kids = vec![[CONSTANT; 3]; mig.num_nodes()];
    let mut deps = vec![0u32; mig.num_nodes()];
    let mut pending = vec![0u32; mig.num_nodes()];
    for &g in &live {
        for (slot, s) in mig.children(g).into_iter().enumerate() {
            if !s.is_constant() {
                kids[g.index()][slot] = s.node().index();
                pending[s.node().index()] += 1;
                deps[g.index()] += u32::from(mig.is_gate(s.node()));
            }
        }
    }
    for s in mig.outputs().iter().filter(|s| !s.is_constant()) {
        pending[s.node().index()] += 1;
    }
    let fanout = pending.clone();
    if selection == Selection::Topological {
        // The key is the index alone, and the smallest uncomputed live
        // gate is always ready (its children have smaller indices), so
        // the scan would pick the live gates in index order.
        return Schedule {
            order: live,
            fanout,
        };
    }
    let live_parents: Vec<Vec<NodeId>> = parents
        .into_iter()
        .map(|ps| ps.into_iter().filter(|p| is_live[p.index()]).collect())
        .collect();
    let fanout_level: Vec<u32> = live_parents
        .iter()
        .map(|ps| {
            ps.iter()
                .map(|p| levels[p.index()])
                .min()
                .unwrap_or(u32::MAX)
        })
        .collect();
    let mut ready: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|g| deps[g.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(live.len());
    // Whether child `k` is at its last pending use.
    let last_use = |pending: &[u32], k: usize| u32::from(k != CONSTANT && pending[k] == 1);
    while !ready.is_empty() {
        let mut best = (0, u128::MIN);
        for (at, g) in ready.iter().enumerate() {
            let g = g.index();
            let [a, b, c] = kids[g];
            let key = selection.key(Candidate {
                releasing: last_use(&pending, a) + last_use(&pending, b) + last_use(&pending, c),
                fanout_level: fanout_level[g],
                index: g as u32,
            });
            if at == 0 || key > best.1 {
                best = (at, key);
            }
        }
        let n = ready.swap_remove(best.0);
        order.push(n);
        for &k in &kids[n.index()] {
            if k != CONSTANT {
                pending[k] -= 1;
            }
        }
        for &p in &live_parents[n.index()] {
            deps[p.index()] -= 1;
            if deps[p.index()] == 0 {
                ready.push(p);
            }
        }
    }
    assert_eq!(order.len(), live.len(), "every live gate is scheduled");
    Schedule { order, fanout }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On random graphs, narrow and deep or wide and shallow, the schedule
    /// pass picks exactly the node a scan of every ready node picks, under
    /// each selection policy, and starts from the same pending-use counts.
    #[test]
    fn schedule_matches_the_reference_scan_on_random_graphs(
        mig in prop_oneof![mig_strategy(), wide_mig_strategy()],
    ) {
        for selection in POLICIES {
            prop_assert_eq!(
                schedule_pass(&mig, selection),
                reference_schedule(&mig, selection),
                "{:?}", selection
            );
        }
    }
}

/// The same on the 18 benchmarks as built, dead gates included, and after
/// the paper's two rewriting algorithms (the graphs the Table I columns
/// schedule). Where both algorithms give the same graph it is checked
/// once.
#[test]
fn schedule_matches_the_reference_scan_on_rewritten_benchmarks() {
    let mismatches = parallel_map(Benchmark::all().to_vec(), 2, |bench| {
        let source = bench.build();
        let alg1 = rewrite(&source, Algorithm::PlimCompiler, 5);
        let alg2 = rewrite(&source, Algorithm::EnduranceAware, 5);
        let mut graphs = vec![("raw", &source), ("Alg. 1", &alg1)];
        if alg2 != alg1 {
            graphs.push(("Alg. 2", &alg2));
        }
        let mut mismatches = Vec::new();
        for (algorithm, mig) in graphs {
            for selection in POLICIES {
                if schedule_pass(mig, selection) != reference_schedule(mig, selection) {
                    mismatches.push(format!("{} {algorithm} {selection:?}", bench.name()));
                }
            }
        }
        mismatches
    });
    let mismatches: Vec<String> = mismatches.into_iter().flatten().collect();
    assert!(mismatches.is_empty(), "schedule differs: {mismatches:?}");
}

/// Counts the heap traffic of the threads that ask for it.
struct CountingAllocator;

#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    /// Allocations and reallocations.
    allocations: usize,
    /// Bytes held now, relative to when counting started.
    held: isize,
    /// The largest `held` seen.
    peak: isize,
}

thread_local! {
    static LEDGER: Cell<Option<Ledger>> = const { Cell::new(None) };
}

impl CountingAllocator {
    fn note(grown: isize, allocation: bool) {
        // `try_with` fails only while the thread is torn down; nothing is
        // counted then.
        let _ = LEDGER.try_with(|ledger| {
            if let Some(mut l) = ledger.get() {
                l.allocations += usize::from(allocation);
                l.held += grown;
                l.peak = l.peak.max(l.held);
                ledger.set(Some(l));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size() as isize, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(-(layout.size() as isize), false);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size as isize - layout.size() as isize, true);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the heap traffic it caused on
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Ledger) {
    LEDGER.with(|ledger| ledger.set(Some(Ledger::default())));
    let out = f();
    let ledger = LEDGER
        .with(|ledger| ledger.take())
        .expect("counting was on");
    (out, ledger)
}

/// A deep forward chain of AND gates (one gate per level) schedules in
/// index order under both keyed policies. The endurance-aware queue keeps
/// one list head per level, so its memory stays linear in gates and it
/// allocates the same few buffers at any depth: none per level.
#[test]
fn deep_and_chain_schedules_in_index_order_in_linear_memory() {
    let gates = if cfg!(debug_assertions) {
        20_000
    } else {
        200_000
    };
    let mut mig = Mig::new(16);
    let mut acc = mig.input(0);
    for i in 0..gates {
        let x = mig.input(1 + i % 15);
        acc = mig.and(acc, x);
    }
    mig.add_output(acc);
    assert_eq!(mig.num_gates(), gates);
    let index_order: Vec<NodeId> = mig.gates().collect();
    for selection in [Selection::EnduranceAware, Selection::AreaAware] {
        let (schedule, ledger) = counted(|| Schedule::of(&mig, selection));
        assert!(
            schedule.order == index_order,
            "{selection:?} left index order"
        );
        assert!(ledger.allocations <= 32, "{selection:?}: {ledger:?}");
        let per_node = ledger.peak / mig.num_nodes() as isize;
        assert!(per_node <= 64, "{selection:?}: {per_node} bytes per node");
    }
}

/// The holder index as it was before it became intrusive lists: per
/// value, the cells noted with it, pruned of dead candidates on each note
/// and confirmed against the tracker on each query.
#[derive(Default)]
struct RetainAndPush {
    map: HashMap<ValueId, Vec<CellId>>,
}

impl RetainAndPush {
    fn note(&mut self, value: ValueId, cell: CellId, values: &Values) {
        let list = self.map.entry(value).or_default();
        list.retain(|&h| h != cell && values.get(h) == Some(value));
        list.push(cell);
    }

    fn confirmed(&self, value: ValueId, values: &Values) -> Vec<CellId> {
        self.map
            .get(&value)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&h| values.get(h) == Some(value))
            .collect()
    }

    fn find(
        &self,
        value: ValueId,
        values: &Values,
        keep: impl Fn(CellId) -> bool,
    ) -> Option<CellId> {
        self.confirmed(value, values).into_iter().find(|&h| keep(h))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replays random writes — re-writes of a few shared values (their
    /// complements and the constants included) and overwrites with brand
    /// new values — into both indexes. After every write, each value's
    /// holders match the reference's confirmed candidates in order, and
    /// so does the first holder a random `keep` filter accepts.
    #[test]
    fn holders_match_the_retain_and_push_model(
        num_cells in 1usize..16,
        writes in proptest::collection::vec((0usize..16, 0usize..10, any::<u64>()), 0..200),
    ) {
        let mut values = Values::new(num_cells);
        let shared: Vec<ValueId> = {
            let (a, b) = (values.fresh(), values.fresh());
            vec![FALSE, TRUE, a, a ^ 1, b, b ^ 1]
        };
        let mut fresh = Vec::new();
        let (mut holders, mut model) = (Holders::new(), RetainAndPush::default());
        for (cell, choice, mask) in writes {
            let cell = CellId::new((cell % num_cells) as u32);
            let value = match shared.get(choice) {
                Some(&v) => v,
                None => {
                    let v = values.fresh();
                    fresh.push(v);
                    v
                }
            };
            values.set(cell, value);
            model.note(value, cell, &values);
            holders.note(value, cell);

            let keep = |h: CellId| mask >> (h.index() % 64) & 1 == 1;
            for &v in shared.iter().chain(&fresh) {
                prop_assert_eq!(
                    holders.cells(v).collect::<Vec<_>>(),
                    model.confirmed(v, &values),
                    "holders of {}", v
                );
                prop_assert_eq!(holders.cells(v).find(|&h| keep(h)), model.find(v, &values, keep));
            }
        }
    }
}
