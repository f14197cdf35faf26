//! The compilation pass pipeline: a small pass manager driving explicit
//! stages over a shared [`PipelineState`].
//!
//! The standard RM3 pipeline is
//!
//! 1. **rewrite** ([`RewritePass`]) — apply the configured MIG rewriting
//!    algorithm (paper Algorithm 1 or 2) to the source graph;
//!    optionally followed by **esat** ([`EsatPass`]) — equality
//!    saturation over the same Ω rules with weighted-cost extraction;
//! 2. **schedule** ([`SchedulePass`]) — fix the node translation order
//!    under the configured selection policy (topological / area-aware /
//!    endurance-aware, paper Algorithm 3);
//! 3. **translate** ([`crate::translate::TranslatePass`]) — allocate cells
//!    and emit RM3 instructions in schedule order (allocation policies:
//!    LIFO / minimum-write / maximum-write);
//! 4. **peephole** ([`crate::peephole::PeepholePass`], optional) — elide
//!    provably redundant destination writes from the emitted program;
//! 5. **finalize** ([`FinalizePass`]) — debug-validate the program.
//!
//! Every paper technique plugs into exactly one pass, so baselines are
//! pipelines with passes swapped or dropped rather than separate
//! compilers.
//!
//! Rewrite and schedule read only the graph, the rewriting algorithm,
//! its effort and the selection policy. [`crate::compile`] therefore
//! runs them once per [`crate::FrontEnd`] and translates from the
//! front end's [`Schedule`], which the translate pass borrows.

use std::borrow::Cow;
use std::sync::Arc;

use rlim_mig::rewrite::rewrite;
use rlim_mig::{Mig, NodeId};
use rlim_plim::Program;

use crate::compiler::CompileResult;
use crate::frontend::WearSummary;
use crate::options::{CompileOptions, Selection};
use crate::select::schedule;

/// A node translation order under one selection policy, with the
/// initial pending-use counts translation starts from (live
/// gate-children edges plus PO references per node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The order translation computes the live gates in.
    pub order: Vec<NodeId>,
    /// Initial pending-use counts per node, indexed by node.
    pub fanout: Vec<u32>,
}

impl Schedule {
    /// Schedules `graph` under `selection`: the [`SchedulePass`] body.
    ///
    /// The scheduler replays exactly the interleaving the translator will
    /// perform: after a node is picked, each non-constant child loses one
    /// pending use (refreshing the releasing counts of candidates) before
    /// the node's parents are unlocked.
    pub fn of(graph: &Mig, selection: Selection) -> Self {
        let (order, fanout) = schedule(graph, selection);
        Schedule { order, fanout }
    }

    /// Bytes the schedule holds on the heap, allocated capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.order.capacity() * std::mem::size_of::<NodeId>()
            + self.fanout.capacity() * std::mem::size_of::<u32>()
    }
}

/// Shared state the passes read and write: the blackboard of the pipeline.
#[derive(Debug)]
pub struct PipelineState<'a> {
    /// The source graph, untouched.
    pub source: &'a Mig,
    /// The options driving every pass.
    pub options: &'a CompileOptions,
    /// The (possibly rewritten) graph the later passes compile. `None`
    /// until the rewrite pass ran; [`PipelineState::graph`] falls back to
    /// the source.
    pub mig: Option<Mig>,
    /// The schedule translation reads: computed by the schedule pass, or
    /// borrowed from a [`crate::FrontEnd`] that already holds it.
    pub schedule: Option<Cow<'a, Schedule>>,
    /// The emitted program.
    pub program: Option<Program>,
}

impl<'a> PipelineState<'a> {
    /// Fresh state for one compilation.
    pub fn new(source: &'a Mig, options: &'a CompileOptions) -> Self {
        PipelineState {
            source,
            options,
            mig: None,
            schedule: None,
            program: None,
        }
    }

    /// The graph the downstream passes operate on: the rewritten graph if
    /// the rewrite pass ran, the source otherwise.
    pub fn graph(&self) -> &Mig {
        self.mig.as_ref().unwrap_or(self.source)
    }
}

/// One pipeline stage.
///
/// Passes are deterministic functions of the [`PipelineState`]; the order
/// they run in is fixed by the [`PassManager`] that holds them.
pub trait Pass {
    /// Short stage name, used in pipeline listings and diagnostics.
    fn name(&self) -> &'static str;

    /// Executes the stage, reading and writing the shared state.
    fn run(&self, state: &mut PipelineState<'_>);
}

/// An ordered list of passes: the compiler is `PassManager::standard`
/// applied to a graph.
///
/// # Examples
///
/// ```
/// use rlim_compiler::{CompileOptions, PassManager};
/// use rlim_mig::Mig;
///
/// // The naive baseline skips rewriting; the peephole is opt-in.
/// let naive = PassManager::standard(&CompileOptions::naive());
/// assert_eq!(naive.pass_names(), ["schedule", "translate", "finalize"]);
///
/// let full = PassManager::standard(
///     &CompileOptions::endurance_aware().with_peephole(true),
/// );
/// assert_eq!(
///     full.pass_names(),
///     ["rewrite", "schedule", "translate", "peephole", "finalize"],
/// );
///
/// // Running the pipeline compiles the graph.
/// let mut mig = Mig::new(2);
/// let (a, b) = (mig.input(0), mig.input(1));
/// let g = mig.and(a, b);
/// mig.add_output(g);
/// let options = CompileOptions::naive();
/// let result = PassManager::standard(&options).run(&mig, &options);
/// assert_eq!(result.num_instructions(), 1);
/// ```
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline (build your own with [`PassManager::push`]).
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The standard pipeline for `options`: rewrite (when configured) →
    /// schedule → translate → peephole (when enabled) → finalize.
    pub fn standard(options: &CompileOptions) -> Self {
        let mut manager = PassManager::new();
        if options.rewriting.is_some() {
            manager.push(Box::new(RewritePass));
        }
        if options.esat {
            manager.push(Box::new(EsatPass));
        }
        manager.push(Box::new(SchedulePass));
        manager.push(Box::new(crate::translate::TranslatePass));
        if options.peephole {
            manager.push(Box::new(crate::peephole::PeepholePass));
        }
        manager.push(Box::new(FinalizePass));
        manager
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// The stage names in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass over a fresh state and packages the result.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline contains no pass that emits a program.
    pub fn run(&self, mig: &Mig, options: &CompileOptions) -> CompileResult {
        let mut state = PipelineState::new(mig, options);
        for pass in &self.passes {
            pass.run(&mut state);
        }
        let program = state
            .program
            .take()
            .expect("pipeline must contain a translate pass");
        let graph = match state.mig.take() {
            Some(rewritten) => rewritten,
            None => mig.clone(),
        };
        CompileResult {
            program,
            mig: Arc::new(graph),
            options: *options,
        }
    }
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::standard(&CompileOptions::default())
    }
}

/// Applies the configured MIG rewriting algorithm (paper Algorithm 1/2).
#[derive(Debug, Clone, Copy, Default)]
pub struct RewritePass;

impl Pass for RewritePass {
    fn name(&self) -> &'static str {
        "rewrite"
    }

    fn run(&self, state: &mut PipelineState<'_>) {
        if let Some(algorithm) = state.options.rewriting {
            state.mig = Some(rewrite(state.source, algorithm, state.options.effort));
        }
    }
}

/// Equality saturation over the Ω rules with weighted-cost extraction.
///
/// Runs up to [`ESAT_ROUNDS`] saturate → extract → polish rounds.
/// Each round loads the current graph into an e-graph, saturates the
/// shared Ω rule descriptions within the configured node/iteration
/// budgets, and extracts the cheapest realization anchored at the
/// input ([`rlim_egraph::extract_around`]). The cost weights follow
/// the configuration's allocation policy: minimum-write columns
/// optimize the endurance weights (RM3 write estimate dominates,
/// complemented edges break ties), LIFO columns the area weights
/// (gates dominate). The extracted graph is polished by the configured
/// greedy rewriting algorithm — saturation proposes a new basin, the
/// greedy fixed point descends to its bottom — and the polished graph
/// seeds the next round, so the search alternates between the
/// e-graph's exact-accounting moves and the greedy depth-aware ones.
///
/// The extraction cost model is an RM3 estimate; the real objective is
/// what the back end produces. So every round's extracted graph (the
/// round's one candidate: the polished graph only seeds the next round)
/// is judged by the actual baseline pipeline (schedule → translate →
/// finalize under the same options) and the pass keeps the
/// pointwise-best graph on the paper's metrics — `#I`, max per-cell
/// writes, write-count standard deviation — with ties keeping the
/// earlier graph. [`crate::compile`] additionally guards the final
/// result with the same best-of against the unsaturated pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct EsatPass;

/// Saturate → extract → polish rounds per [`EsatPass`] invocation.
/// Rounds past the first matter when polishing moves the graph into a
/// basin whose saturation exposes new sharing; the pass exits early at
/// a fixed point.
pub const ESAT_ROUNDS: usize = 3;

impl Pass for EsatPass {
    fn name(&self) -> &'static str {
        "esat"
    }

    fn run(&self, state: &mut PipelineState<'_>) {
        let arms = [*state.options];
        let graph = state.graph();
        let mut peak = 0;
        let schedule = Schedule::of(graph, arms[0].selection);
        let start = translate_arms(graph, &schedule, &arms, &mut peak);
        let best = esat_search(graph, state.options, &arms, start, &mut peak)
            .pop()
            .expect("one best per arm");
        let graph = match best.graph {
            Some(found) => Arc::unwrap_or_clone(found),
            None => state.graph().clone(),
        };
        state.mig = Some(graph);
    }
}

/// The best graph an [`esat_search`] found for one translate arm.
pub(crate) struct ArmBest {
    /// `None` while the search's start graph is still the best.
    pub(crate) graph: Option<Arc<Mig>>,
    /// The baseline pipeline's program for the graph under the arm.
    pub(crate) program: Program,
    score: WearSummary,
}

/// The [`EsatPass`] rounds from `start`, with every candidate scored
/// under each of the translate `arms` (options that differ only in what
/// translation reads). Returns the best graph per arm; `start_programs`
/// are `start`'s programs under the arms, in order. `peak` is raised to
/// every candidate translation's peak, as [`translate_arms`] does.
///
/// The sequence of candidates does not depend on the scores, so each
/// arm ends with exactly the graph a search scored under that arm alone
/// would keep.
///
/// A candidate equal to a graph already scored in this search (the
/// start graph included) is skipped: its programs, and so its scores,
/// are the ones already seen. A best only moves to a score that
/// dominates it, and dominance is transitive, so a score that did not
/// dominate an arm's best then cannot dominate it now.
pub(crate) fn esat_search(
    start: &Mig,
    options: &CompileOptions,
    arms: &[CompileOptions],
    start_programs: Vec<Program>,
    peak: &mut u64,
) -> Vec<ArmBest> {
    use rlim_egraph::{extract_around, saturate as egraph_saturate, Budget, CostWeights, EGraph};

    let budget = Budget {
        max_nodes: options.esat_nodes as usize,
        max_iters: options.esat_iters as usize,
    };
    let rules = rlim_mig::rewrite::rules::omega_rules();
    let weights = match options.allocation {
        crate::options::Allocation::MinWrite => CostWeights::endurance(),
        crate::options::Allocation::Lifo => CostWeights::area(),
    };
    let mut best: Vec<ArmBest> = start_programs
        .into_iter()
        .map(|program| ArmBest {
            graph: None,
            score: WearSummary::of(&program),
            program,
        })
        .collect();
    // Every graph scored so far besides `start`, shared with the bests
    // that keep one.
    let mut scored: Vec<Arc<Mig>> = Vec::new();
    // The round's input graph; `None` is `start`.
    let mut cur: Option<Arc<Mig>> = None;
    for _ in 0..ESAT_ROUNDS {
        let graph = cur.as_deref().unwrap_or(start);
        let before = graph.fingerprint();
        let (mut eg, outputs, classes) = EGraph::from_mig_with_classes(graph);
        egraph_saturate(&mut eg, &rules, &budget);
        let cand = Arc::new(extract_around(&eg, &outputs, &weights, graph, &classes));
        if *cand != *start && !scored.contains(&cand) {
            scored.push(Arc::clone(&cand));
            let schedule = Schedule::of(&cand, arms[0].selection);
            for (arm, program) in best
                .iter_mut()
                .zip(translate_arms(&cand, &schedule, arms, peak))
            {
                let score = WearSummary::of(&program);
                if score.dominates(&arm.score) {
                    *arm = ArmBest {
                        graph: Some(Arc::clone(&cand)),
                        program,
                        score,
                    };
                }
            }
        }
        // Only the extraction is scored; its greedy polish seeds the next
        // round.
        let next = match options.rewriting {
            Some(algorithm) => Arc::new(rewrite(&cand, algorithm, options.effort)),
            None => cand,
        };
        let fixed_point = next.fingerprint() == before;
        cur = Some(next);
        if fixed_point {
            break;
        }
    }
    best
}

/// The baseline pipeline (translate → finalize) of `graph` under each
/// translate arm, in order, all from one borrowed `schedule`: the arms
/// share `selection`, the only option scheduling reads. `peak` is raised
/// to the largest write count any cell took in these translations, before
/// any peephole.
pub(crate) fn translate_arms(
    graph: &Mig,
    schedule: &Schedule,
    arms: &[CompileOptions],
    peak: &mut u64,
) -> Vec<Program> {
    arms.iter()
        .map(|options| {
            let (program, translated) = crate::translate::translate(graph, options, schedule);
            debug_assert_eq!(program.validate(), Ok(()));
            *peak = (*peak).max(translated);
            program
        })
        .collect()
}

/// Fixes the node translation order under the configured selection
/// policy ([`Schedule::of`]), so the schedule is identical to the one
/// the old monolithic compile loop produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(&self, state: &mut PipelineState<'_>) {
        let scheduled = Schedule::of(state.graph(), state.options.selection);
        state.schedule = Some(Cow::Owned(scheduled));
    }
}

/// Debug-validates the emitted program (structural well-formedness).
#[derive(Debug, Clone, Copy, Default)]
pub struct FinalizePass;

impl Pass for FinalizePass {
    fn name(&self) -> &'static str {
        "finalize"
    }

    fn run(&self, state: &mut PipelineState<'_>) {
        let program = state.program.as_ref().expect("finalize needs a program");
        debug_assert_eq!(program.validate(), Ok(()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn adder() -> Mig {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let (sum, carry) = mig.full_adder(a, b, c);
        mig.add_output(sum);
        mig.add_output(carry);
        mig
    }

    #[test]
    fn standard_pipeline_orders_passes() {
        assert_eq!(
            PassManager::standard(&CompileOptions::naive()).pass_names(),
            ["schedule", "translate", "finalize"]
        );
        assert_eq!(
            PassManager::standard(&CompileOptions::endurance_aware()).pass_names(),
            ["rewrite", "schedule", "translate", "finalize"]
        );
        assert_eq!(
            PassManager::standard(&CompileOptions::endurance_aware().with_peephole(true))
                .pass_names(),
            ["rewrite", "schedule", "translate", "peephole", "finalize"]
        );
        assert_eq!(
            PassManager::standard(&CompileOptions::endurance_aware().with_esat(true)).pass_names(),
            ["rewrite", "esat", "schedule", "translate", "finalize"]
        );
    }

    #[test]
    fn pipeline_matches_compile_entry_point() {
        let mig = adder();
        for options in [
            CompileOptions::naive(),
            CompileOptions::endurance_aware(),
            CompileOptions::endurance_aware().with_max_writes(5),
        ] {
            let direct = compile(&mig, &options);
            let piped = PassManager::standard(&options).run(&mig, &options);
            assert_eq!(direct.program, piped.program, "{options:?}");
        }
    }

    #[test]
    fn schedule_pass_emits_every_live_gate_once() {
        let mig = adder();
        let options = CompileOptions::endurance_aware();
        let mut state = PipelineState::new(&mig, &options);
        SchedulePass.run(&mut state);
        let schedule = state.schedule.expect("schedule produced");
        assert_eq!(schedule.order.len(), mig.num_live_gates());
        let mut seen = std::collections::HashSet::new();
        for n in &schedule.order {
            assert!(seen.insert(*n), "{n} scheduled twice");
        }
        assert_eq!(
            schedule.fanout.len(),
            mig.num_nodes(),
            "fanout shared with translation"
        );
    }

    #[test]
    fn graph_falls_back_to_source() {
        let mig = adder();
        let options = CompileOptions::naive();
        let state = PipelineState::new(&mig, &options);
        assert_eq!(state.graph().num_gates(), mig.num_gates());
    }
}
