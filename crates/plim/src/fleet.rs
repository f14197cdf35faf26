//! A fleet of PLiM crossbars with endurance-aware dispatch.
//!
//! The DATE 2017 paper balances write traffic *inside* one crossbar; this
//! module lifts the same two allocation ideas to **array granularity** so
//! a multi-crossbar system can serve a stream of compiled programs:
//!
//! * [`DispatchPolicy::LeastWorn`] mirrors the paper's *minimum write
//!   count strategy*: each job goes to the live array with the fewest
//!   accumulated writes, so heterogeneous programs cannot concentrate
//!   wear on one array.
//! * [`FleetConfig::with_write_budget`] mirrors the *maximum write count
//!   strategy*: arrays whose remaining budget cannot fit a job are
//!   skipped for it (never stranding budget a cheaper later job could
//!   still use), and an array whose budget is fully consumed — it cannot
//!   fit even a single write, exactly the paper's cell-retirement rule —
//!   is **retired**: it never executes another write, and the remaining
//!   arrays take over.
//! * [`DispatchPolicy::RoundRobin`] is the oblivious baseline the
//!   evaluation compares against.
//! * [`FleetConfig::with_faults`] injects a deterministic per-cell
//!   [`FaultModel`] (sampled endurance, seeded stuck-at faults) into
//!   every array, and [`FleetConfig::with_recovery`] turns detected
//!   faults into spare-cell remaps, retries and watchdog retirements
//!   instead of batch failures — see [`RecoveryConfig`],
//!   [`patch_program`] and [`Fleet::fault_log`] for the building blocks
//!   and the event log.
//!
//! ## Determinism
//!
//! Every batch runs through one plan → execute → collect loop. Dispatch is
//! planned serially before anything executes: a PLiM program's write cost
//! is static (every execution writes the same cells the same number of
//! times), so the plan depends only on the job sequence and the fleet's
//! accumulated wear — never on thread scheduling. Each array's job list
//! then runs in plan order through one executor, arrays in parallel on
//! the workspace pool [`crate::parallel`] (`threads == 0` means one
//! worker per core, `1` forces serial). Arrays are disjoint and their
//! results merge in job order, so serial and parallel runs are
//! byte-identical.
//!
//! ## Executors
//!
//! The fleet picks the executor itself, from its configuration and the
//! programs it runs:
//!
//! * with [`FleetConfig::with_recovery`], scalar runs with
//!   remap-and-retry;
//! * with [`FleetConfig::with_faults`] or [`FleetConfig::with_endurance`],
//!   one scalar [`Machine`] run per job: a word write has no per-lane
//!   readback, and a failing word write would fail its whole lane group
//!   at once;
//! * otherwise, jobs sharing a program run as one word-level
//!   [`WideMachine`] pass of up to 64 lanes, charging one logical write
//!   per lane — unless some program on the array reads a cell it has not
//!   written ([`Program::first_undefined_read`]), since its lanes would
//!   see the group's snapshot instead of the previous job's leftover
//!   values; that array's list then runs scalar, as does a list in which
//!   no two jobs share a program.
//!
//! Lanes give the outputs, per-cell write counts and final cell values of
//! one scalar run per job in dispatch order. Only the arrays' per-cell
//! *switch* counters ([`Crossbar::switches`]) differ: a word store cannot
//! observe per-lane flips, so they do not advance for jobs run in lanes.
//!
//! ## Example
//!
//! ```
//! use rlim_plim::{DispatchPolicy, Fleet, FleetConfig, Instruction, Job, Operand, Program};
//! use rlim_rram::CellId;
//!
//! // set1 r0 — a one-instruction program costing one write per run.
//! let program = Program {
//!     instructions: vec![Instruction {
//!         p: Operand::Const(true),
//!         q: Operand::Const(false),
//!         z: CellId::new(0),
//!     }],
//!     num_cells: 1,
//!     input_cells: vec![],
//!     output_cells: vec![CellId::new(0)],
//! };
//! let mut fleet = Fleet::new(
//!     FleetConfig::new(2).with_policy(DispatchPolicy::LeastWorn),
//! );
//! let jobs = vec![Job::new(&program, &[]); 4];
//! let outputs = fleet.run_batch(&jobs, 1).unwrap();
//! assert_eq!(outputs.len(), 4);
//! // Four one-write jobs over two arrays: perfectly balanced.
//! assert_eq!(fleet.total_writes(0), 2);
//! assert_eq!(fleet.total_writes(1), 2);
//! ```

use std::collections::HashMap;
use std::fmt;

use rlim_rram::{CellId, Crossbar, FaultModel, FleetWriteStats, WideCrossbar, WriteFault};

use crate::isa::Program;
use crate::machine::Machine;
use crate::parallel::parallel_map;
use crate::recovery::{
    patch_program, remap_target, FaultEvent, FaultKind, FaultRecorder, RecoveryAction,
    RecoveryConfig, FAULT_LOG_CAPACITY,
};
use crate::wide::WideMachine;

/// How the dispatcher chooses an array for the next job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatchPolicy {
    /// Rotate through live arrays regardless of wear — the oblivious
    /// baseline. Arrays that cannot fit the job are skipped.
    RoundRobin,
    /// The paper's minimum write count strategy at array granularity:
    /// send the job to the live, fitting array with the fewest total
    /// writes (ties broken by lowest array index).
    #[default]
    LeastWorn,
}

impl DispatchPolicy {
    /// Short label used in tables and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastWorn => "least-worn",
        }
    }
}

impl std::str::FromStr for DispatchPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "round-robin" | "rr" => Ok(DispatchPolicy::RoundRobin),
            "least-worn" | "lw" => Ok(DispatchPolicy::LeastWorn),
            other => Err(format!(
                "unknown dispatch policy `{other}` (round-robin | least-worn)"
            )),
        }
    }
}

/// Configuration of a [`Fleet`].
///
/// # Examples
///
/// ```
/// use rlim_plim::{DispatchPolicy, FleetConfig};
///
/// let config = FleetConfig::new(4)
///     .with_policy(DispatchPolicy::RoundRobin)
///     .with_write_budget(10_000);
/// assert_eq!(config.arrays, 4);
/// assert_eq!(config.write_budget, Some(10_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of crossbar arrays.
    pub arrays: usize,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Per-array total-write budget `W`: arrays that cannot fit a job
    /// within `W` total writes are skipped for it, and an array whose
    /// budget is fully consumed is retired — the maximum write count
    /// strategy lifted to arrays.
    pub write_budget: Option<u64>,
    /// Physical per-cell endurance limit of every array (writes fail with
    /// [`rlim_rram::EnduranceError`] beyond it), as in
    /// [`Machine::with_endurance`].
    pub endurance: Option<u64>,
    /// Device-faithful fault injection: every array runs on a
    /// [`Crossbar::with_faults`] crossbar seeded per array via
    /// [`FaultModel::for_array`], with write-verify readback enabled.
    /// Per-cell sampled endurance limits override the uniform
    /// `endurance` limit.
    pub faults: Option<FaultModel>,
    /// Online recovery policy. `None` leaves the fleet naive: the first
    /// detected fault aborts the batch and retires the array, exactly as
    /// a plain endurance failure does.
    pub recovery: Option<RecoveryConfig>,
}

impl FleetConfig {
    /// A fleet of `arrays` crossbars with least-worn dispatch, no write
    /// budget and no physical endurance limit.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is zero.
    pub fn new(arrays: usize) -> Self {
        assert!(arrays > 0, "a fleet needs at least one array");
        FleetConfig {
            arrays,
            policy: DispatchPolicy::default(),
            write_budget: None,
            endurance: None,
            faults: None,
            recovery: None,
        }
    }

    /// Sets the dispatch policy.
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-array total-write budget `W`.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn with_write_budget(mut self, budget: u64) -> Self {
        assert!(budget > 0, "write budget must be positive");
        self.write_budget = Some(budget);
        self
    }

    /// Sets the physical per-cell endurance limit.
    pub fn with_endurance(mut self, limit: u64) -> Self {
        self.endurance = Some(limit);
        self
    }

    /// Enables fault injection: array `i` runs under
    /// `model.for_array(i)`, so per-cell endurance is sampled (not
    /// uniform) and seeded stuck-at faults can appear mid-job, detected
    /// by write-verify readback.
    pub fn with_faults(mut self, model: FaultModel) -> Self {
        self.faults = Some(model);
        self
    }

    /// Enables online recovery: detected faults are remapped to spare
    /// cells and the job retried; the watchdog retires arrays that
    /// exceed `recovery`'s budgets and their work re-dispatches to the
    /// survivors.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }
}

/// One unit of fleet work: a compiled program plus its input vector.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The compiled PLiM program to execute.
    pub program: &'a Program,
    /// Primary-input values, in the program's PI order.
    pub inputs: &'a [bool],
}

impl<'a> Job<'a> {
    /// Bundles a program with its inputs.
    pub fn new(program: &'a Program, inputs: &'a [bool]) -> Self {
        Job { program, inputs }
    }

    /// The job's static write cost: one write per RM3 instruction.
    pub fn cost(&self) -> u64 {
        self.program.total_writes()
    }

    /// The standard heterogeneous evaluation stream: `count` jobs
    /// alternating `heavy` and `light` (heavy first), all sharing one
    /// input vector. Periodic traffic like this is what separates
    /// wear-aware dispatch from oblivious striping. The test suites use
    /// it directly; the service's fleet rider (behind `rlim fleet` and
    /// the `fleet` eval tables) and the `chaos` eval table build the
    /// same alternation, with per-job random inputs when seeded.
    pub fn alternating(
        heavy: &'a Program,
        light: &'a Program,
        inputs: &'a [bool],
        count: usize,
    ) -> Vec<Job<'a>> {
        (0..count)
            .map(|i| Job::new(if i % 2 == 0 { heavy } else { light }, inputs))
            .collect()
    }
}

/// A fleet batch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// No live array could absorb job `job` within its write budget; wear
    /// from jobs before `job` in the batch was **not** applied (dispatch
    /// is planned before anything executes).
    Exhausted {
        /// Index of the unplaceable job in the batch.
        job: usize,
        /// The job's static write cost that no array could fit.
        cost: u64,
        /// Live (unretired) arrays at the failed placement — `0` means
        /// the whole fleet is dead, not merely out of budget headroom.
        live_arrays: usize,
    },
    /// A device fault — an exhausted cell or a write-verify mismatch —
    /// failed job `job` at run time. Writes performed before the failure
    /// (on this and other arrays) persist, and the failed array is
    /// retired.
    Fault {
        /// Index of the failing job in the batch.
        job: usize,
        /// The array the job was dispatched to.
        array: usize,
        /// The underlying cell failure, naming the exact cell.
        fault: WriteFault,
    },
}

impl FleetError {
    /// The batch index of the failing job.
    pub fn job(&self) -> usize {
        match self {
            FleetError::Exhausted { job, .. } | FleetError::Fault { job, .. } => *job,
        }
    }

    /// The failing array, for run-time faults.
    pub fn array(&self) -> Option<usize> {
        match self {
            FleetError::Exhausted { .. } => None,
            FleetError::Fault { array, .. } => Some(*array),
        }
    }

    /// The failing cell, for run-time faults.
    pub fn cell(&self) -> Option<CellId> {
        match self {
            FleetError::Exhausted { .. } => None,
            FleetError::Fault { fault, .. } => Some(fault.cell()),
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Exhausted {
                job,
                cost,
                live_arrays,
            } => {
                write!(
                    f,
                    "fleet exhausted: none of {live_arrays} live arrays can absorb \
                     job {job} ({cost} writes)"
                )
            }
            FleetError::Fault { job, array, fault } => {
                write!(f, "job {job} on array {array}: {fault}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Exhausted { .. } => None,
            FleetError::Fault { fault, .. } => Some(fault),
        }
    }
}

/// One crossbar of the fleet plus its dispatch bookkeeping.
#[derive(Debug, Clone)]
struct Slot {
    machine: Machine,
    /// Total writes accumulated (plan-time mirror of the machine's wear;
    /// reconciled to executed wear whenever recovery retries jobs).
    total: u64,
    /// Jobs ever dispatched to this array.
    jobs: u64,
    retired: bool,
    /// Physical cells confirmed broken, in detection order.
    broken: Vec<CellId>,
    /// Faults detected on this array (the watchdog's counter).
    faults: u64,
}

/// One array's dispatch bookkeeping, as reported by
/// [`Fleet::array_stats`]: the per-array rows behind the pooled
/// [`FleetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayStats {
    /// Jobs ever dispatched to this array.
    pub jobs: u64,
    /// Total writes executed on this array.
    pub writes: u64,
    /// Whether the array has been retired (budget spent or endurance
    /// failure).
    pub retired: bool,
}

/// Fleet-level wear summary returned by [`Fleet::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Write-traffic distributions per array and pooled per cell.
    pub wear: FleetWriteStats,
    /// Number of retired arrays.
    pub retired: usize,
    /// Jobs dispatched since construction.
    pub jobs: u64,
}

/// A fleet of independent PLiM crossbars behind one dispatcher.
///
/// Construct with [`Fleet::new`], feed batches of [`Job`]s through
/// [`Fleet::run_batch`], and read wear back with [`Fleet::stats`]. Arrays
/// persist across batches, so wear (and retirement) accumulates exactly as
/// in the single-machine lifetime experiments.
#[derive(Debug, Clone)]
pub struct Fleet {
    slots: Vec<Slot>,
    policy: DispatchPolicy,
    write_budget: Option<u64>,
    executor: Executor,
    recorder: FaultRecorder,
    /// Round-robin scan position.
    cursor: usize,
    jobs_run: u64,
}

impl Fleet {
    /// Builds the fleet: `config.arrays` empty crossbars with zero wear.
    pub fn new(config: FleetConfig) -> Self {
        let slots = (0..config.arrays)
            .map(|i| Slot {
                machine: Machine::with_array(match (config.faults, config.endurance) {
                    (Some(model), _) => Crossbar::with_faults(model.for_array(i)),
                    (None, Some(limit)) => Crossbar::with_endurance(limit),
                    (None, None) => Crossbar::new(),
                }),
                total: 0,
                jobs: 0,
                retired: false,
                broken: Vec::new(),
                faults: 0,
            })
            .collect();
        let executor = match (config.recovery, config.faults, config.endurance) {
            (Some(recovery), ..) => Executor::Recovering(recovery),
            (None, None, None) => Executor::Wide,
            (None, ..) => Executor::Scalar,
        };
        Fleet {
            slots,
            policy: config.policy,
            write_budget: config.write_budget,
            executor,
            recorder: FaultRecorder::new(FAULT_LOG_CAPACITY),
            cursor: 0,
            jobs_run: 0,
        }
    }

    /// The dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The per-array write budget, if any.
    pub fn write_budget(&self) -> Option<u64> {
        self.write_budget
    }

    /// The fleet-wide fault log: every detected fault and what recovery
    /// did about it, in deterministic job order.
    pub fn fault_log(&self) -> &FaultRecorder {
        &self.recorder
    }

    /// Physical cells of array `index` confirmed broken and remapped
    /// around, in detection order.
    pub fn broken_cells(&self, index: usize) -> &[CellId] {
        &self.slots[index].broken
    }

    /// Whether array `index` has been retired — by exhausting its write
    /// budget or by a physical endurance failure. A retired array never
    /// executes another write.
    pub fn is_retired(&self, index: usize) -> bool {
        self.slots[index].retired
    }

    /// The crossbar of array `index` (wear counters, stored values).
    pub fn array(&self, index: usize) -> &Crossbar {
        self.slots[index].machine.array()
    }

    /// Total writes executed on array `index`.
    pub fn total_writes(&self, index: usize) -> u64 {
        self.slots[index].total
    }

    /// Jobs dispatched to array `index` since construction (a job whose
    /// array failed mid-batch still counts as dispatched).
    pub fn jobs_on(&self, index: usize) -> u64 {
        self.slots[index].jobs
    }

    /// Jobs dispatched fleet-wide since construction.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// Per-array dispatch bookkeeping in array order: jobs, total writes
    /// and retirement, the rows a service report renders per array.
    pub fn array_stats(&self) -> Vec<ArrayStats> {
        self.slots
            .iter()
            .map(|s| ArrayStats {
                jobs: s.jobs,
                writes: s.total,
                retired: s.retired,
            })
            .collect()
    }

    /// Fleet-level wear statistics: per-array totals/peaks and the pooled
    /// per-cell distribution, plus retirement progress.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            wear: FleetWriteStats::from_arrays(
                self.slots.iter().map(|s| s.machine.array().write_counts()),
            ),
            retired: self.slots.iter().filter(|s| s.retired).count(),
            jobs: self.jobs_run,
        }
    }

    /// How many more jobs of write cost `cost` the fleet can absorb before
    /// every array is exhausted: `Σᵢ ⌊remainingᵢ / cost⌋` over live
    /// arrays, saturating at `u64::MAX`. `None` when no write budget is
    /// configured (unbounded); `Some(u64::MAX)` for write-free jobs
    /// (`cost == 0`) while any array is live, since such jobs consume no
    /// budget.
    pub fn remaining_jobs(&self, cost: u64) -> Option<u64> {
        let budget = self.write_budget?;
        if cost == 0 {
            let any_live = self.slots.iter().any(|s| !s.retired);
            return Some(if any_live { u64::MAX } else { 0 });
        }
        Some(
            self.slots
                .iter()
                .filter(|s| !s.retired)
                .map(|s| budget.saturating_sub(s.total) / cost)
                .fold(0, u64::saturating_add),
        )
    }

    /// The first-retirement horizon: jobs of write cost `cost` the
    /// most-worn live array can still absorb — the earliest point at which
    /// the fleet can lose an array. `None` when no write budget is
    /// configured; `Some(0)` when every array is retired;
    /// `Some(u64::MAX)` for write-free jobs on a live fleet.
    pub fn first_retirement_horizon(&self, cost: u64) -> Option<u64> {
        let budget = self.write_budget?;
        if cost == 0 {
            let any_live = self.slots.iter().any(|s| !s.retired);
            return Some(if any_live { u64::MAX } else { 0 });
        }
        Some(
            self.slots
                .iter()
                .filter(|s| !s.retired)
                .map(|s| budget.saturating_sub(s.total) / cost)
                .min()
                .unwrap_or(0),
        )
    }

    /// Dispatches and executes a batch of jobs, returning each job's
    /// primary outputs in batch order.
    ///
    /// Dispatch is planned serially first (see the module docs), then each
    /// array executes its assigned jobs in plan order on the executor the
    /// fleet picks (see the module docs), arrays in parallel over
    /// `threads` workers of [`crate::parallel`] (`0` = one per available
    /// core, `1` = forced serial). Serial and parallel runs produce
    /// identical outputs and identical wear.
    ///
    /// # Errors
    ///
    /// * [`FleetError::Exhausted`] if some job cannot be placed within the
    ///   write budget — detected at plan time, before any write executes.
    /// * [`FleetError::Fault`] if a device fault (worn-out cell, or a
    ///   stuck-at cell caught by write-verify readback) fails a write at
    ///   run time **and recovery is off**. Earlier writes persist, the
    ///   failed array is **retired** (later batches go to the survivors),
    ///   and its wear bookkeeping is reconciled to the writes that
    ///   actually executed. Outputs of jobs that did complete in the
    ///   failed batch are not returned, so callers operating close to an
    ///   endurance limit should prefer small batches (the lifetime
    ///   experiments submit one job at a time) to avoid re-executing —
    ///   and re-wearing — work.
    ///
    /// With [`FleetConfig::with_recovery`], a detected fault does not
    /// fail the batch: the broken cell is remapped to a spare via
    /// [`patch_program`] and the job retried on the same array; when the
    /// watchdog retires an array instead, its unfinished jobs re-dispatch
    /// to the survivors in follow-up planning rounds. The batch then only
    /// fails with [`FleetError::Exhausted`], once no live array remains
    /// for some job. Completed outputs equal a fault-free run's byte for
    /// byte: a write that slips through verification stored the intended
    /// value by definition, and remapping never changes the instruction
    /// sequence. Patched programs are cached for one batch only.
    ///
    /// Each round plans the pending jobs, runs each array's list on the
    /// worker pool, and merges the per-array results in job order —
    /// outputs, fault events, the earliest run-time fault and the wear
    /// reconciliation. Only a recovering round can end with jobs
    /// unfinished and no error (the watchdog retired their array); they
    /// re-plan onto the survivors in the next round. Each such round
    /// retires at least one array, so a batch runs at most `arrays + 1`
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics if a job's input vector does not match its program's
    /// interface.
    pub fn run_batch(
        &mut self,
        jobs: &[Job<'_>],
        threads: usize,
    ) -> Result<Vec<Vec<bool>>, FleetError> {
        let executor = self.executor;
        let mut outputs: Vec<Option<Vec<bool>>> = vec![None; jobs.len()];
        let mut pending: Vec<usize> = (0..jobs.len()).collect();
        while !pending.is_empty() {
            let per_array = self.prepare_batch(jobs, &pending)?;
            let tasks: Vec<(usize, &mut Slot, Vec<usize>)> = self
                .slots
                .iter_mut()
                .zip(per_array)
                .enumerate()
                .filter(|(_, (_, list))| !list.is_empty())
                .map(|(array, (slot, list))| (array, slot, list))
                .collect();
            let runs = parallel_map(tasks, threads, |(array, slot, list)| {
                executor.run(array, slot, jobs, &list)
            });
            let mut events = Vec::new();
            let mut faults = Vec::new();
            for run in runs {
                for (j, out) in run.outputs {
                    outputs[j] = Some(out);
                }
                events.extend(run.events);
                let slot = &mut self.slots[run.array];
                // Retries and failed writes make executed wear differ from
                // the plan; a dead cell is permanent, so a fault retires
                // the array and later batches go to the survivors.
                if run.fault.is_some() || matches!(executor, Executor::Recovering(_)) {
                    slot.total = slot.machine.array().write_counts().iter().sum();
                }
                if let Some((job, fault)) = run.fault {
                    slot.retired = true;
                    faults.push(FleetError::Fault {
                        job,
                        array: run.array,
                        fault,
                    });
                }
            }
            // Each job runs on one array per round, so a stable sort by
            // job keeps every job's retry order.
            events.sort_by_key(|e| e.job);
            for event in events {
                self.recorder.record(event);
            }
            if let Some(error) = faults.into_iter().min_by_key(FleetError::job) {
                return Err(error);
            }
            pending.retain(|&j| outputs[j].is_none());
        }
        Ok(outputs
            .into_iter()
            .map(|o| o.expect("every job completed or the loop errored"))
            .collect())
    }

    /// An alias of [`Fleet::run_batch`], which picks word-level lanes
    /// itself.
    ///
    /// # Errors
    ///
    /// As [`Fleet::run_batch`].
    pub fn run_batch_simd(
        &mut self,
        jobs: &[Job<'_>],
        threads: usize,
    ) -> Result<Vec<Vec<bool>>, FleetError> {
        self.run_batch(jobs, threads)
    }

    /// Plans the `pending` jobs of a batch and commits the plan: wear
    /// totals, job counts, retirement and the round-robin cursor. Returns
    /// each array's list of batch indices (in dispatch order), with every
    /// involved crossbar grown to its largest program.
    ///
    /// Planning is serial, deterministic and transactional — a batch that
    /// exhausts the fleet leaves all bookkeeping untouched.
    fn prepare_batch(
        &mut self,
        jobs: &[Job<'_>],
        pending: &[usize],
    ) -> Result<Vec<Vec<usize>>, FleetError> {
        let mut plan = Planner {
            totals: self.slots.iter().map(|s| s.total).collect(),
            job_counts: self.slots.iter().map(|s| s.jobs).collect(),
            retired: self.slots.iter().map(|s| s.retired).collect(),
            cursor: self.cursor,
            policy: self.policy,
            write_budget: self.write_budget,
        };
        plan.retire_spent();
        let mut per_array: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for &j in pending {
            let cost = jobs[j].cost();
            let slot = plan.place(cost).ok_or_else(|| FleetError::Exhausted {
                job: j,
                cost,
                live_arrays: plan.retired.iter().filter(|r| !**r).count(),
            })?;
            plan.totals[slot] += cost;
            plan.job_counts[slot] += 1;
            per_array[slot].push(j);
            plan.retire_spent();
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.total = plan.totals[i];
            slot.jobs = plan.job_counts[i];
            slot.retired = plan.retired[i];
        }
        self.cursor = plan.cursor;
        self.jobs_run += pending.len() as u64;

        for (slot, list) in self.slots.iter_mut().zip(&per_array) {
            let cells = list.iter().map(|&j| jobs[j].program.num_cells).max();
            if let Some(cells) = cells {
                slot.machine.ensure_cells(cells);
            }
        }
        Ok(per_array)
    }
}

/// How one array runs its planned job list — the only part of a batch
/// that differs between the scalar, lane and recovering paths. The fleet
/// picks one in [`Fleet::new`] (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Executor {
    /// One scalar [`Machine`] run per job; the first fault stops the array.
    Scalar,
    /// Jobs sharing a program run as one [`WideMachine`] pass per lane
    /// group ([`lane_groups`]), on arrays without an endurance limit or
    /// fault model, so no word write can fail. An array whose list holds
    /// a program with an undefined read, or no group of two jobs, runs
    /// [`Executor::Scalar`].
    Wide,
    /// Scalar runs with remap-and-retry ([`run_with_recovery`]); the
    /// watchdog stops the array by retiring it, and its unfinished jobs
    /// wait for the next round.
    Recovering(RecoveryConfig),
}

/// What one array's executor hands back to the batch loop.
struct ArrayRun {
    array: usize,
    /// Outputs of the jobs that completed, by batch index.
    outputs: Vec<(usize, Vec<bool>)>,
    /// The run-time fault that stopped a non-recovering array, with the
    /// batch index it is reported for.
    fault: Option<(usize, WriteFault)>,
    /// Recovery events, in this array's execution order.
    events: Vec<FaultEvent>,
}

impl Executor {
    /// Runs `list` (batch indices into `jobs`, in dispatch order) on array
    /// `array`.
    fn run(self, array: usize, slot: &mut Slot, jobs: &[Job<'_>], list: &[usize]) -> ArrayRun {
        let mut run = ArrayRun {
            array,
            outputs: Vec::with_capacity(list.len()),
            fault: None,
            events: Vec::new(),
        };
        match self {
            Executor::Scalar => {
                for &j in list {
                    match slot.machine.run(jobs[j].program, jobs[j].inputs) {
                        Ok(out) => run.outputs.push((j, out)),
                        Err(fault) => {
                            run.fault = Some((j, fault));
                            break;
                        }
                    }
                }
            }
            Executor::Wide => {
                let groups = lane_groups(jobs, list);
                let program = |group: &[usize]| jobs[group[0]].program;
                // One-job groups gain nothing from lanes, and each program
                // is checked once, not once per group of its jobs.
                let mut programs: Vec<&Program> = groups.iter().map(|g| program(g)).collect();
                programs.sort_by_key(|p| std::ptr::from_ref(*p));
                programs.dedup_by_key(|p| std::ptr::from_ref(*p));
                if groups.len() == list.len()
                    || programs.iter().any(|p| p.first_undefined_read().is_some())
                {
                    return Executor::Scalar.run(array, slot, jobs, list);
                }
                for group in groups {
                    let lanes = group.len();
                    let lane_inputs: Vec<&[bool]> = group.iter().map(|&j| jobs[j].inputs).collect();
                    let overlay = WideCrossbar::from_scalar(slot.machine.array());
                    let mut wide = WideMachine::with_array(overlay, lanes);
                    let lane_outputs = wide
                        .run(program(&group), &lane_inputs)
                        .expect("lane arrays have no endurance limit");
                    wide.array()
                        .commit_into(slot.machine.array_mut(), lanes - 1);
                    run.outputs.extend(group.iter().copied().zip(lane_outputs));
                }
            }
            Executor::Recovering(recovery) => {
                // Patched programs keyed by program address. The batch's
                // borrows keep every program alive for this call, so an
                // address names one program only while the cache lives here.
                let mut patches = HashMap::new();
                for &j in list {
                    match run_with_recovery(slot, j, jobs[j], recovery, &mut patches, &mut run) {
                        Some(out) => run.outputs.push((j, out)),
                        None => break,
                    }
                }
            }
        }
        run
    }
}

/// Runs one job on one array with remap-and-retry recovery. Returns the
/// job's outputs, or `None` when the watchdog retired the array instead
/// (the fault budget or the spare budget is spent).
///
/// Every detected fault appends a [`FaultEvent`] to `run.events` under
/// the job's batch index `job_index`; the batch loop merges the per-array
/// logs deterministically after the parallel phase. `patches` caches each
/// program's binding to the spares for the current broken-cell list.
fn run_with_recovery(
    slot: &mut Slot,
    job_index: usize,
    job: Job<'_>,
    recovery: RecoveryConfig,
    patches: &mut HashMap<usize, Program>,
    run: &mut ArrayRun,
) -> Option<Vec<bool>> {
    let key = std::ptr::from_ref(job.program) as usize;
    loop {
        if !slot.broken.is_empty() && !patches.contains_key(&key) {
            patches.insert(key, patch_program(job.program, &slot.broken));
        }
        let program = patches.get(&key).unwrap_or(job.program);
        slot.machine.ensure_cells(program.num_cells);
        let fault = match slot.machine.run(program, job.inputs) {
            Ok(out) => return Some(out),
            Err(fault) => fault,
        };
        slot.faults += 1;
        let cell = fault.cell();
        let retire = slot.faults > recovery.max_faults || slot.broken.len() >= recovery.spares;
        let action = if retire {
            slot.retired = true;
            RecoveryAction::Retired
        } else {
            slot.broken.push(cell);
            // Every cached binding is stale now; rebuild on demand.
            patches.clear();
            RecoveryAction::Remapped {
                spare: remap_target(&slot.broken, cell),
            }
        };
        run.events.push(FaultEvent {
            job: job_index,
            array: run.array,
            cell,
            kind: FaultKind::of(&fault),
            action,
        });
        if retire {
            return None;
        }
    }
}

/// Packs one array's planned job list into lane groups: jobs sharing a
/// program (by reference identity), up to [`WideCrossbar::LANES`] per
/// group, in dispatch order within each group.
///
/// Groups are returned ordered by their *last* member's batch index, so
/// that the group committing last on any cell contains the serial last
/// writer of that cell: a program always writes (or preloads) the same
/// cell set, and a cell a group's program never touches commits as a
/// no-op (it still holds the snapshot of the previous commit).
fn lane_groups(jobs: &[Job<'_>], list: &[usize]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for &j in list {
        let key = std::ptr::from_ref(jobs[j].program) as usize;
        // Only the newest group of a program can be open (earlier ones
        // were closed at 64 lanes), so scanning from the back finds it.
        match groups
            .iter_mut()
            .rev()
            .find(|(k, g)| *k == key && g.len() < WideCrossbar::LANES)
        {
            Some((_, group)) => group.push(j),
            None => groups.push((key, vec![j])),
        }
    }
    groups.sort_by_key(|(_, g)| *g.last().expect("groups are non-empty"));
    groups.into_iter().map(|(_, g)| g).collect()
}

/// Scratch dispatch state: a copy of the fleet's wear bookkeeping that a
/// batch plan mutates, committed back only when every job places.
struct Planner {
    totals: Vec<u64>,
    job_counts: Vec<u64>,
    retired: Vec<bool>,
    cursor: usize,
    policy: DispatchPolicy,
    write_budget: Option<u64>,
}

impl Planner {
    /// Whether array `slot` can absorb `cost` more writes.
    fn fits(&self, slot: usize, cost: u64) -> bool {
        match self.write_budget {
            None => true,
            Some(w) => self.totals[slot] + cost <= w,
        }
    }

    /// Chooses a live, fitting array for a job of write cost `cost`, or
    /// `None` when the fleet is exhausted for this cost.
    fn place(&mut self, cost: u64) -> Option<usize> {
        let n = self.totals.len();
        match self.policy {
            DispatchPolicy::RoundRobin => {
                for step in 0..n {
                    let i = (self.cursor + step) % n;
                    if !self.retired[i] && self.fits(i, cost) {
                        self.cursor = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            DispatchPolicy::LeastWorn => (0..n)
                .filter(|&i| !self.retired[i] && self.fits(i, cost))
                .min_by_key(|&i| (self.totals[i], i)),
        }
    }

    /// Retires every live array whose budget is fully consumed (it cannot
    /// fit even a single write) — the array-level analogue of dropping
    /// at-limit cells from the compile-time free pool. Arrays with budget
    /// left are never retired here, only skipped by [`Planner::place`]
    /// for jobs they cannot fit, so remaining capacity stays reachable
    /// for cheaper later jobs.
    fn retire_spent(&mut self) {
        let Some(budget) = self.write_budget else {
            return;
        };
        for (i, retired) in self.retired.iter_mut().enumerate() {
            if !*retired && self.totals[i] >= budget {
                *retired = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instruction, Operand};
    use rlim_rram::CellId;

    /// A program of `writes` set1 instructions on distinct cells.
    fn burn(writes: usize) -> Program {
        Program {
            instructions: (0..writes)
                .map(|i| Instruction {
                    p: Operand::Const(true),
                    q: Operand::Const(false),
                    z: CellId::new(i as u32),
                })
                .collect(),
            num_cells: writes.max(1),
            input_cells: vec![],
            output_cells: vec![CellId::new(0)],
        }
    }

    #[test]
    fn round_robin_rotates() {
        let heavy = burn(4);
        let mut fleet = Fleet::new(FleetConfig::new(3).with_policy(DispatchPolicy::RoundRobin));
        let jobs = vec![Job::new(&heavy, &[]); 5];
        fleet.run_batch(&jobs, 1).unwrap();
        assert_eq!(
            (0..3).map(|i| fleet.jobs_on(i)).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
    }

    #[test]
    fn least_worn_balances_heterogeneous_costs() {
        let heavy = burn(10);
        let light = burn(1);
        let mut fleet = Fleet::new(FleetConfig::new(2).with_policy(DispatchPolicy::LeastWorn));
        // heavy → array 0; the next ten light jobs must all avoid it.
        let mut jobs = vec![Job::new(&heavy, &[])];
        jobs.extend(std::iter::repeat_n(Job::new(&light, &[]), 10));
        fleet.run_batch(&jobs, 1).unwrap();
        assert_eq!(fleet.total_writes(0), 10);
        assert_eq!(fleet.total_writes(1), 10);
    }

    #[test]
    fn plan_totals_match_executed_wear() {
        let a = burn(3);
        let b = burn(7);
        let mut fleet = Fleet::new(FleetConfig::new(3));
        let jobs = [
            Job::new(&a, &[]),
            Job::new(&b, &[]),
            Job::new(&a, &[]),
            Job::new(&b, &[]),
        ];
        fleet.run_batch(&jobs, 0).unwrap();
        for i in 0..3 {
            let executed: u64 = fleet.array(i).write_counts().iter().sum();
            assert_eq!(fleet.total_writes(i), executed, "array {i}");
        }
        assert_eq!(fleet.jobs_run(), 4);
    }

    #[test]
    fn serial_and_parallel_identical() {
        let a = burn(2);
        let b = burn(5);
        let jobs: Vec<Job<'_>> = (0..20)
            .map(|i| Job::new(if i % 3 == 0 { &b } else { &a }, &[]))
            .collect();
        let mut serial = Fleet::new(FleetConfig::new(4));
        let out_serial = serial.run_batch(&jobs, 1).unwrap();
        let mut parallel = Fleet::new(FleetConfig::new(4));
        let out_parallel = parallel.run_batch(&jobs, 0).unwrap();
        assert_eq!(out_serial, out_parallel);
        for i in 0..4 {
            assert_eq!(
                serial.array(i).write_counts(),
                parallel.array(i).write_counts(),
                "array {i}"
            );
        }
    }

    #[test]
    fn budget_exhausts_without_stranding_capacity() {
        let job = burn(4);
        // W = 10: each array absorbs 2 cost-4 jobs (8 writes); remaining
        // budget 2 cannot fit another cost-4 job…
        let mut fleet = Fleet::new(FleetConfig::new(2).with_write_budget(10));
        let jobs = vec![Job::new(&job, &[]); 4];
        fleet.run_batch(&jobs, 1).unwrap();
        assert_eq!(fleet.remaining_jobs(4), Some(0));
        assert_eq!(fleet.first_retirement_horizon(4), Some(0));
        let err = fleet.run_batch(&[Job::new(&job, &[])], 1).unwrap_err();
        assert_eq!(
            err,
            FleetError::Exhausted {
                job: 0,
                cost: 4,
                live_arrays: 2
            }
        );
        // The failed batch executed nothing.
        assert_eq!(fleet.total_writes(0), 8);
        assert_eq!(fleet.total_writes(1), 8);
        // …but the 2 remaining writes are NOT stranded: arrays with
        // budget left stay live and serve cheaper jobs, retiring only
        // once fully spent.
        assert!(!fleet.is_retired(0) && !fleet.is_retired(1));
        assert_eq!(fleet.remaining_jobs(2), Some(2));
        let cheap = burn(2);
        fleet.run_batch(&[Job::new(&cheap, &[]); 2], 1).unwrap();
        assert_eq!(fleet.total_writes(0), 10);
        assert_eq!(fleet.total_writes(1), 10);
        assert!(fleet.is_retired(0) && fleet.is_retired(1));
        assert_eq!(fleet.remaining_jobs(1), Some(0));
    }

    #[test]
    fn zero_cost_jobs_have_unbounded_horizons() {
        let mut fleet = Fleet::new(FleetConfig::new(1).with_write_budget(4));
        assert_eq!(fleet.remaining_jobs(0), Some(u64::MAX));
        assert_eq!(fleet.first_retirement_horizon(0), Some(u64::MAX));
        // Spend the budget: the fleet retires and even write-free
        // capacity reads as zero.
        let job = burn(4);
        fleet.run_batch(&[Job::new(&job, &[])], 1).unwrap();
        assert!(fleet.is_retired(0));
        assert_eq!(fleet.remaining_jobs(0), Some(0));
        assert_eq!(fleet.first_retirement_horizon(0), Some(0));
    }

    #[test]
    fn retired_array_never_written_again() {
        let heavy = burn(6);
        let light = burn(1);
        let mut fleet = Fleet::new(FleetConfig::new(2).with_write_budget(6));
        // Array 0 takes the heavy job and is exactly at budget → retired.
        fleet.run_batch(&[Job::new(&heavy, &[])], 1).unwrap();
        assert!(fleet.is_retired(0));
        let frozen = fleet.array(0).write_counts();
        for _ in 0..6 {
            fleet.run_batch(&[Job::new(&light, &[])], 1).unwrap();
        }
        assert_eq!(fleet.array(0).write_counts(), frozen);
        assert_eq!(fleet.total_writes(1), 6);
    }

    #[test]
    fn exhausted_error_reports_job_index() {
        let job = burn(5);
        let mut fleet = Fleet::new(FleetConfig::new(1).with_write_budget(12));
        let jobs = vec![Job::new(&job, &[]); 3];
        let err = fleet.run_batch(&jobs, 1).unwrap_err();
        // Two jobs fit (10 ≤ 12); the third does not.
        assert_eq!(
            err,
            FleetError::Exhausted {
                job: 2,
                cost: 5,
                live_arrays: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "fleet exhausted: none of 1 live arrays can absorb job 2 (5 writes)"
        );
        assert_eq!(err.job(), 2);
        assert_eq!(err.array(), None);
        assert_eq!(err.cell(), None);
    }

    #[test]
    fn physical_endurance_surfaces_with_job_context() {
        let job = burn(1); // one write on cell r0 per run
        let mut fleet = Fleet::new(FleetConfig::new(1).with_endurance(2));
        fleet.run_batch(&[Job::new(&job, &[]); 2], 1).unwrap();
        let err = fleet.run_batch(&[Job::new(&job, &[])], 1).unwrap_err();
        assert_eq!(err.array(), Some(0));
        assert_eq!(err.cell(), Some(CellId::new(0)));
        assert!(
            err.to_string().contains("array 0") && err.to_string().contains("r0"),
            "a fleet failure names the array and the cell: {err}"
        );
        match err {
            FleetError::Fault {
                job,
                array,
                fault: WriteFault::Worn(error),
            } => {
                assert_eq!(job, 0);
                assert_eq!(array, 0);
                assert_eq!(error.limit, 2);
            }
            other => panic!("expected endurance failure, got {other:?}"),
        }
    }

    #[test]
    fn endurance_failure_retires_array_and_reconciles_wear() {
        let job = burn(1); // one write on cell r0 per run
                           // Two arrays, each cell endures 2 writes. Least-worn alternates,
                           // so jobs 4 and 5 (the third run on each array) both fail; the
                           // merge reports the earliest at any worker count.
        for threads in [1, 0] {
            let mut fleet = Fleet::new(FleetConfig::new(2).with_endurance(2));
            let err = fleet
                .run_batch(&[Job::new(&job, &[]); 6], threads)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    FleetError::Fault {
                        job: 4,
                        array: 0,
                        ..
                    }
                ),
                "threads={threads}: {err:?}"
            );
            for i in 0..2 {
                assert!(fleet.is_retired(i), "dead array {i} must retire");
                // Planned totals (3 per array) reconciled to executed wear (2).
                assert_eq!(fleet.total_writes(i), 2, "array {i}");
            }
            // A fully-dead fleet rejects further work at plan time.
            let err = fleet
                .run_batch(&[Job::new(&job, &[])], threads)
                .unwrap_err();
            assert_eq!(
                err,
                FleetError::Exhausted {
                    job: 0,
                    cost: 1,
                    live_arrays: 0
                }
            );
        }
    }

    #[test]
    fn endurance_failure_shrinks_fleet_to_survivors() {
        /// `writes` set1 instructions, all on cell `cell`.
        fn burn_at(cell: u32, writes: usize) -> Program {
            Program {
                instructions: vec![
                    Instruction {
                        p: Operand::Const(true),
                        q: Operand::Const(false),
                        z: CellId::new(cell),
                    };
                    writes
                ],
                num_cells: cell as usize + 1,
                input_cells: vec![],
                output_cells: vec![CellId::new(cell)],
            }
        }
        let heavy = burn_at(0, 2); // wears r0 at 2 writes/run
        let light = burn_at(1, 1); // wears r1 at 1 write/run
                                   // Round-robin over 2 arrays: array 0 serves every heavy job,
                                   // array 1 every light job. Endurance 4 → r0 on array 0 dies on
                                   // the third heavy run; r1 on array 1 survives four light runs.
        for threads in [1, 0] {
            let mut fleet = Fleet::new(
                FleetConfig::new(2)
                    .with_policy(DispatchPolicy::RoundRobin)
                    .with_endurance(4),
            );
            let jobs = Job::alternating(&heavy, &light, &[], 4);
            fleet.run_batch(&jobs, threads).unwrap(); // a0: r0=4, a1: r1=2
            let err = fleet.run_batch(&jobs, threads).unwrap_err();
            assert!(
                matches!(
                    err,
                    FleetError::Fault {
                        job: 0,
                        array: 0,
                        ..
                    }
                ),
                "threads={threads}: {err:?}"
            );
            assert!(fleet.is_retired(0));
            assert!(!fleet.is_retired(1));
            // The dead array's wear is reconciled to what executed (the
            // failing write never lands: 4, not the planned 8); the
            // survivor ran its whole list as planned.
            assert_eq!(
                (fleet.total_writes(0), fleet.total_writes(1)),
                (4, 4),
                "threads={threads}"
            );
            // The fleet keeps serving on the survivor instead of failing
            // forever on the dead array.
            let probe = burn_at(2, 1); // fresh cell: no wear conflict
            let survivors_serve = Job::alternating(&probe, &probe, &[], 2);
            fleet.run_batch(&survivors_serve, threads).unwrap();
            assert_eq!(fleet.jobs_on(1), 2 + 2 + 2);
        }
    }

    #[test]
    fn stats_and_horizons() {
        let job = burn(2);
        let mut fleet = Fleet::new(
            FleetConfig::new(2)
                .with_policy(DispatchPolicy::LeastWorn)
                .with_write_budget(10),
        );
        fleet.run_batch(&[Job::new(&job, &[]); 3], 1).unwrap();
        let stats = fleet.stats();
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.retired, 0);
        assert_eq!(stats.wear.arrays, 2);
        assert_eq!(stats.wear.array_totals.max, 4);
        assert_eq!(stats.wear.array_totals.min, 2);
        // Remaining capacity: (10-4)/2 + (10-2)/2 = 3 + 4 = 7 jobs.
        assert_eq!(fleet.remaining_jobs(2), Some(7));
        assert_eq!(fleet.first_retirement_horizon(2), Some(3));
        // Unbudgeted fleets have unbounded horizons.
        let free = Fleet::new(FleetConfig::new(2));
        assert_eq!(free.remaining_jobs(2), None);
        assert_eq!(free.first_retirement_horizon(2), None);
    }

    #[test]
    fn remaining_jobs_saturates_instead_of_overflowing() {
        // Four untouched arrays with a maximal budget each absorb
        // `u64::MAX` unit-cost jobs; the sum caps rather than wrapping.
        let fleet = Fleet::new(FleetConfig::new(4).with_write_budget(u64::MAX));
        assert_eq!(fleet.remaining_jobs(1), Some(u64::MAX));
    }

    /// A one-instruction program storing `value` into cell r0.
    fn set_prog(value: bool) -> Program {
        Program {
            instructions: vec![Instruction {
                p: Operand::Const(value),
                q: Operand::Const(!value),
                z: CellId::new(0),
            }],
            num_cells: 1,
            input_cells: vec![],
            output_cells: vec![CellId::new(0)],
        }
    }

    /// Replays `jobs` on bare scalar machines the way a fresh round-robin
    /// fleet of `arrays` arrays dispatches them (job `i` on array `i %
    /// arrays`), and checks the fleet's outputs, per-cell write counts and
    /// final cell values against the replay.
    fn assert_matches_replay(fleet: &Fleet, outputs: &[Vec<bool>], jobs: &[Job<'_>]) {
        let arrays = fleet.slots.len();
        let mut machines = vec![Machine::with_array(Crossbar::new()); arrays];
        for (i, job) in jobs.iter().enumerate() {
            let machine = &mut machines[i % arrays];
            machine.ensure_cells(job.program.num_cells);
            let out = machine.run(job.program, job.inputs).unwrap();
            assert_eq!(outputs[i], out, "job {i} outputs");
        }
        for (i, machine) in machines.iter().enumerate() {
            let array = fleet.array(i);
            assert_eq!(
                array.write_counts(),
                machine.array().write_counts(),
                "array {i} wear"
            );
            assert_eq!(array.values(), machine.array().values(), "array {i} values");
        }
    }

    #[test]
    fn lane_batches_match_a_bare_machine_replay() {
        let a = burn(2);
        let b = burn(5);
        let jobs: Vec<Job<'_>> = (0..70)
            .map(|i| Job::new(if i % 3 == 0 { &b } else { &a }, &[]))
            .collect();
        for threads in [1, 0] {
            let mut fleet = Fleet::new(FleetConfig::new(3).with_policy(DispatchPolicy::RoundRobin));
            let outputs = fleet.run_batch(&jobs, threads).unwrap();
            assert_matches_replay(&fleet, &outputs, &jobs);
        }
    }

    #[test]
    fn lane_groups_cap_at_64_lanes() {
        let job = burn(1);
        let jobs = vec![Job::new(&job, &[]); 130];
        // 130 jobs = 64 + 64 + 2 lanes, all wear on cell r0.
        assert_eq!(lane_groups(&jobs, &(0..130).collect::<Vec<_>>()).len(), 3);
        let mut fleet = Fleet::new(FleetConfig::new(1));
        let out = fleet.run_batch(&jobs, 1).unwrap();
        assert_eq!(out.len(), 130);
        assert_eq!(fleet.total_writes(0), 130);
        assert_eq!(fleet.array(0).write_counts()[0], 130);
    }

    #[test]
    fn lane_commits_preserve_the_serial_last_writer() {
        let ones = set_prog(true);
        let zeros = set_prog(false);
        // Jobs [1, 0, 1] group as ones{0, 2} and zeros{1}; ordering groups
        // by last member commits ones last, as the serial run ends.
        for jobs in [
            vec![Job::new(&ones, &[]), Job::new(&zeros, &[])],
            vec![
                Job::new(&ones, &[]),
                Job::new(&zeros, &[]),
                Job::new(&ones, &[]),
            ],
        ] {
            let mut fleet = Fleet::new(FleetConfig::new(1));
            let outputs = fleet.run_batch(&jobs, 1).unwrap();
            assert_matches_replay(&fleet, &outputs, &jobs);
        }
    }

    #[test]
    fn undefined_reads_run_the_whole_list_scalar() {
        // `peek` reads r0 without writing it, in its one instruction and
        // as its output: each run sees what the previous job left there.
        let peek = Program {
            instructions: vec![Instruction {
                p: Operand::Cell(CellId::new(0)),
                q: Operand::Const(false),
                z: CellId::new(1),
            }],
            num_cells: 2,
            input_cells: vec![],
            output_cells: vec![CellId::new(0), CellId::new(1)],
        };
        assert_eq!(peek.first_undefined_read(), Some((0, CellId::new(0))));
        let ones = set_prog(true);
        let zeros = set_prog(false);
        // In lanes, both peeks would group together and see one snapshot.
        let jobs = [
            Job::new(&ones, &[]),
            Job::new(&peek, &[]),
            Job::new(&zeros, &[]),
            Job::new(&peek, &[]),
        ];
        let mut fleet = Fleet::new(FleetConfig::new(1));
        let outputs = fleet.run_batch(&jobs, 1).unwrap();
        assert_eq!(outputs[1], vec![true, true]);
        assert_eq!(outputs[3], vec![false, true]);
        assert_matches_replay(&fleet, &outputs, &jobs);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut fleet = Fleet::new(FleetConfig::new(2));
        assert_eq!(fleet.run_batch(&[], 0).unwrap(), Vec::<Vec<bool>>::new());
        assert_eq!(fleet.jobs_run(), 0);
    }

    #[test]
    fn policy_parsing_and_labels() {
        assert_eq!(
            "round-robin".parse::<DispatchPolicy>().unwrap(),
            DispatchPolicy::RoundRobin
        );
        assert_eq!(
            "lw".parse::<DispatchPolicy>().unwrap(),
            DispatchPolicy::LeastWorn
        );
        assert!("fifo".parse::<DispatchPolicy>().is_err());
        assert_eq!(DispatchPolicy::LeastWorn.label(), "least-worn");
    }

    #[test]
    #[should_panic(expected = "at least one array")]
    fn zero_array_fleet_rejected() {
        let _ = FleetConfig::new(0);
    }

    use rlim_rram::variability::EnduranceModel;

    /// A deterministic wear-only fault model: every cell endures exactly
    /// `limit` writes, no stuck-at faults.
    fn wear_only(limit: f64) -> FaultModel {
        FaultModel::new(EnduranceModel::new(limit, 0.0), 0.0, 11)
    }

    #[test]
    fn recovery_remaps_and_completes_where_naive_fleet_aborts() {
        let job = burn(1); // one write on r0 per run
        let jobs = vec![Job::new(&job, &[]); 10];
        let model = wear_only(4.0);

        let mut naive = Fleet::new(FleetConfig::new(1).with_faults(model));
        let err = naive.run_batch(&jobs, 1).unwrap_err();
        assert!(matches!(
            err,
            FleetError::Fault {
                job: 4,
                array: 0,
                fault: WriteFault::Worn(_)
            }
        ));

        let mut healing = Fleet::new(
            FleetConfig::new(1)
                .with_faults(model)
                .with_recovery(RecoveryConfig::new().with_spares(4)),
        );
        let out = healing.run_batch(&jobs, 1).unwrap();
        // Outputs are byte-identical to a fault-free fleet's.
        let mut clean = Fleet::new(FleetConfig::new(1));
        assert_eq!(out, clean.run_batch(&jobs, 1).unwrap());
        // r0 wore out after 4 writes (job 4 remapped to r1), r1 after 4
        // more (job 8 remapped to r2); the array stays in service.
        assert!(!healing.is_retired(0));
        assert_eq!(healing.broken_cells(0), &[CellId::new(0), CellId::new(1)]);
        let log = healing.fault_log();
        assert_eq!(log.worn(), 2);
        assert_eq!(log.remaps(), 2);
        assert_eq!(log.retirements(), 0);
        let events: Vec<String> = log.events().map(|e| e.to_string()).collect();
        assert_eq!(
            events,
            vec![
                "job 4 on array 0: cell r0 worn, remapped to r1",
                "job 8 on array 0: cell r1 worn, remapped to r2",
            ]
        );
        // Wear totals reflect the retries that actually executed.
        let executed: u64 = healing.array(0).write_counts().iter().sum();
        assert_eq!(healing.total_writes(0), executed);
    }

    #[test]
    fn watchdog_retires_arrays_and_redispatches_to_survivors() {
        let job = burn(1);
        let model = wear_only(2.0);
        // spares = 1: each array survives one remap (2 + 2 writes), then
        // the second fault retires it.
        let config = FleetConfig::new(2)
            .with_faults(model)
            .with_recovery(RecoveryConfig::new().with_spares(1));
        let mut fleet = Fleet::new(config.clone());
        // Fleet capacity is exactly 8 jobs (2 cells × 2 writes × 2 arrays).
        let out = fleet.run_batch(&[Job::new(&job, &[]); 8], 1).unwrap();
        assert_eq!(out.len(), 8);
        assert!(!fleet.is_retired(0) && !fleet.is_retired(1));
        // The next jobs fault both arrays past their spare budget: the
        // watchdog retires them and the re-dispatch finds no survivor.
        let err = fleet.run_batch(&[Job::new(&job, &[]); 2], 1).unwrap_err();
        assert_eq!(
            err,
            FleetError::Exhausted {
                job: 0,
                cost: 1,
                live_arrays: 0
            }
        );
        assert!(fleet.is_retired(0) && fleet.is_retired(1));
        assert_eq!(fleet.fault_log().retirements(), 2);
    }

    #[test]
    fn retired_arrays_jobs_redispatch_to_survivors() {
        /// `writes` set1 instructions, all on cell `cell`.
        fn burn_at(cell: u32, writes: usize) -> Program {
            Program {
                instructions: vec![
                    Instruction {
                        p: Operand::Const(true),
                        q: Operand::Const(false),
                        z: CellId::new(cell),
                    };
                    writes
                ],
                num_cells: cell as usize + 1,
                input_cells: vec![],
                output_cells: vec![CellId::new(cell)],
            }
        }
        // Round-robin sends every heavy job (2 writes on r0) to array 0
        // and every light job (1 write on r1) to array 1. With a 4-write
        // cell limit and zero spares, array 0's third heavy job trips the
        // watchdog mid-batch — and must then complete on array 1, whose
        // own r0 is untouched.
        let heavy = burn_at(0, 2);
        let light = burn_at(1, 1);
        let mut fleet = Fleet::new(
            FleetConfig::new(2)
                .with_policy(DispatchPolicy::RoundRobin)
                .with_faults(wear_only(4.0))
                .with_recovery(RecoveryConfig::new().with_spares(0)),
        );
        let jobs = Job::alternating(&heavy, &light, &[], 6);
        let out = fleet.run_batch(&jobs, 1).unwrap();
        assert_eq!(out.len(), 6);
        assert!(fleet.is_retired(0));
        assert!(!fleet.is_retired(1));
        let log = fleet.fault_log();
        assert_eq!(log.retirements(), 1);
        let event = log.events().next().expect("one event");
        assert_eq!(
            (event.job, event.array, event.cell, event.action),
            (4, 0, CellId::new(0), RecoveryAction::Retired)
        );
        // The survivor served its three light jobs plus the re-dispatch.
        assert_eq!(fleet.jobs_on(1), 4);
        // Outputs still match a fault-free fleet's, byte for byte.
        let mut clean = Fleet::new(FleetConfig::new(2).with_policy(DispatchPolicy::RoundRobin));
        assert_eq!(out, clean.run_batch(&jobs, 1).unwrap());
    }

    #[test]
    fn stuck_faults_are_detected_remapped_and_outputs_stay_correct() {
        // Alternating set1/set0 traffic on cells that all go stuck at
        // some write within their (ample) 64-write endurance: the onset
        // is sampled in `1..=limit`, the values alternate, so
        // write-verify catches the first disagreeing store; recovery
        // remaps, and the outputs still match a clean fleet.
        let ones = set_prog(true);
        let zeros = set_prog(false);
        let model = FaultModel::new(EnduranceModel::new(64.0, 0.0), 1.0, 5);
        let jobs: Vec<Job<'_>> = (0..48)
            .map(|i| Job::new(if i % 2 == 0 { &ones } else { &zeros }, &[]))
            .collect();
        let mut healing = Fleet::new(
            FleetConfig::new(1)
                .with_faults(model)
                .with_recovery(RecoveryConfig::new()),
        );
        let out = healing.run_batch(&jobs, 1).unwrap();
        let mut clean = Fleet::new(FleetConfig::new(1));
        assert_eq!(out, clean.run_batch(&jobs, 1).unwrap());
        let log = healing.fault_log();
        assert!(log.stuck() >= 1, "stuck-at faults must surface: {log:?}");
        assert_eq!(log.worn(), 0, "endurance is ample here");
        assert_eq!(log.remaps(), log.total_faults());
    }

    #[test]
    fn chaos_recovery_is_deterministic_serial_vs_parallel() {
        let heavy = burn(3);
        let light = burn(1);
        let model = FaultModel::new(EnduranceModel::new(16.0, 0.4), 0.05, 7);
        let config = || {
            FleetConfig::new(4)
                .with_faults(model)
                .with_recovery(RecoveryConfig::new())
        };
        let jobs = Job::alternating(&heavy, &light, &[], 40);
        let mut serial = Fleet::new(config());
        let out_serial = serial.run_batch(&jobs, 1).unwrap();
        let mut parallel = Fleet::new(config());
        let out_parallel = parallel.run_batch(&jobs, 0).unwrap();
        assert_eq!(out_serial, out_parallel);
        for i in 0..4 {
            assert_eq!(
                serial.array(i).write_counts(),
                parallel.array(i).write_counts(),
                "array {i} wear"
            );
            assert_eq!(
                serial.broken_cells(i),
                parallel.broken_cells(i),
                "array {i}"
            );
        }
        assert_eq!(serial.fault_log(), parallel.fault_log());
        assert!(
            serial.fault_log().total_faults() > 0,
            "the scenario must actually exercise recovery"
        );
    }

    #[test]
    fn recovery_patches_do_not_outlive_their_batch() {
        // r0 wears out on the third set1 run and is remapped. The program
        // variable is then reassigned in place, so the set0 program lives
        // at the address the set1 program had: a patch cached across
        // batches by that address would run set1 again.
        let mut program = set_prog(true);
        let mut fleet = Fleet::new(
            FleetConfig::new(1)
                .with_faults(FaultModel::new(EnduranceModel::new(2.0, 0.0), 0.0, 11))
                .with_recovery(RecoveryConfig::new().with_spares(4)),
        );
        fleet.run_batch(&[Job::new(&program, &[]); 3], 1).unwrap();
        assert_eq!(fleet.broken_cells(0), &[CellId::new(0)]);
        program = set_prog(false);
        let out = fleet.run_batch(&[Job::new(&program, &[])], 1).unwrap();
        let mut clean = Fleet::new(FleetConfig::new(1));
        let expected = clean.run_batch(&[Job::new(&program, &[])], 1).unwrap();
        assert_eq!(expected, vec![vec![false]]);
        assert_eq!(out, expected);
    }
}
