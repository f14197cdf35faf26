//! The compile core's dense structures against brute-force references:
//! the schedule pass's packed-key queue against a scan of every ready
//! node, and the copy-reuse holder index against the retain-and-push
//! candidate lists it replaced.

use std::collections::HashMap;

use proptest::prelude::*;
use rlim::benchmarks::Benchmark;
use rlim::compiler::values::{Holders, ValueId, Values, FALSE, TRUE};
use rlim::compiler::{Candidate, CompileOptions, Pass, PipelineState, SchedulePass, Selection};
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::mig::rewrite::{rewrite, Algorithm};
use rlim::mig::{Mig, NodeId, StructuralView};
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

fn schedule_pass(mig: &Mig, selection: Selection) -> Vec<NodeId> {
    let options = CompileOptions {
        selection,
        ..CompileOptions::naive()
    };
    let mut state = PipelineState::new(mig, &options);
    SchedulePass.run(&mut state);
    let schedule = state.schedule.expect("the schedule pass emits a schedule");
    schedule.into_owned().order
}

/// The schedule by definition: until every live gate is computed, score
/// every ready, uncomputed live gate afresh and compute the one with the
/// best `(key, index)`, then consume one pending use per child.
fn reference_schedule(mig: &Mig, selection: Selection) -> Vec<NodeId> {
    const CONSTANT: usize = usize::MAX;
    let view = StructuralView::of(mig);
    let live: Vec<NodeId> = mig.gates().filter(|&g| view.is_live(g)).collect();
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
    let fanout_level: Vec<u32> = mig
        .node_ids()
        .map(|n| {
            view.parents_of(n)
                .iter()
                .filter(|&&p| view.is_live(p))
                .map(|&p| view.level(p))
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
    while !ready.is_empty() {
        let mut best = (0, u128::MIN, NodeId::new(u32::MAX));
        for (at, &g) in ready.iter().enumerate() {
            let mut releasing = 0;
            for &k in &kids[g.index()] {
                if k != CONSTANT && pending[k] == 1 {
                    releasing += 1;
                }
            }
            let key = selection.key(Candidate {
                releasing,
                fanout_level: fanout_level[g.index()],
                index: g.index() as u32,
            });
            if at == 0 || key > best.1 || (key == best.1 && g < best.2) {
                best = (at, key, g);
            }
        }
        let n = ready.swap_remove(best.0);
        order.push(n);
        for &k in &kids[n.index()] {
            if k != CONSTANT {
                pending[k] -= 1;
            }
        }
        for &p in view.parents_of(n) {
            if view.is_live(p) {
                deps[p.index()] -= 1;
                if deps[p.index()] == 0 {
                    ready.push(p);
                }
            }
        }
    }
    assert_eq!(order.len(), live.len(), "every live gate is scheduled");
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random graphs, the schedule pass picks exactly the node a scan
    /// of every ready node picks, under each selection policy.
    #[test]
    fn schedule_matches_the_reference_scan_on_random_graphs(mig in mig_strategy()) {
        for selection in POLICIES {
            prop_assert_eq!(
                schedule_pass(&mig, selection),
                reference_schedule(&mig, selection),
                "{:?}", selection
            );
        }
    }
}

/// The same on the 18 benchmarks after the paper's two rewriting
/// algorithms (the graphs the Table I columns schedule). Where both
/// algorithms give the same graph it is checked once.
#[test]
fn schedule_matches_the_reference_scan_on_rewritten_benchmarks() {
    let mismatches = parallel_map(Benchmark::all().to_vec(), 2, |bench| {
        let source = bench.build();
        let mut graphs = vec![("Alg. 1", rewrite(&source, Algorithm::PlimCompiler, 5))];
        let alg2 = rewrite(&source, Algorithm::EnduranceAware, 5);
        if alg2 != graphs[0].1 {
            graphs.push(("Alg. 2", alg2));
        }
        let mut mismatches = Vec::new();
        for (algorithm, mig) in &graphs {
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
