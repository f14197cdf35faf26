//! The allocate-and-translate pass: MIG nodes → RM3 instructions.
//!
//! ## Node translation
//!
//! A majority gate `n = ⟨s_a, s_b, s_c⟩` is computed by one main RM3
//! instruction whose three roles must be filled from the child signals:
//!
//! * `P` is read as stored — free for constants and uncomplemented children;
//!   a complemented child needs its inverse materialised (2 instructions,
//!   1 cell).
//! * `Q` is inverted by the operation — free for constants and *complemented*
//!   children (this is why a node with exactly one complemented edge is
//!   ideal); an uncomplemented child needs its inverse materialised.
//! * `Z` must be a cell currently holding the third operand's value, and is
//!   overwritten. An uncomplemented child at its **last pending use** (and,
//!   under the maximum write count strategy, with budget left) is consumed
//!   in place for free; otherwise the value is copied into an allocated cell
//!   (2 instructions, 1 cell).
//!
//! The translator tries all six role assignments and emits the cheapest.
//!
//! ## Micro-op recipes (cost in instructions)
//!
//! | recipe | sequence | writes on target |
//! |---|---|---|
//! | `set0(c)` | `RM3(0, 1, c)` | 1 |
//! | `set1(c)` | `RM3(1, 0, c)` | 1 |
//! | `copy(c ← s)` | `set0(c); RM3(s, 0, c)` | 2 |
//! | `copy_inv(c ← s)` | `set1(c); RM3(0, s, c)` | 2 |
//!
//! The translation order is an input: [`TranslatePass`] consumes the
//! schedule produced by [`crate::pipeline::SchedulePass`] and is otherwise
//! oblivious to the selection policy.
//!
//! ## Copy discovery and spilling (`CompileOptions::copy_reuse`)
//!
//! With copy-reuse enabled the translator additionally runs the
//! [`crate::values`] abstract-value analysis *while emitting* and treats
//! the crossbar like a register file (see ARCHITECTURE.md, "Allocation as
//! register allocation"):
//!
//! * **copy discovery** — a role that would re-materialise a value
//!   already cached in some cell (typically a parked `copy_inv` temp of a
//!   multi-fanout complemented edge) reads that cell instead, eliding the
//!   whole 2-instruction chain;
//! * **constant mapping** — a destination that would allocate-and-set a
//!   constant (or re-copy a value) takes a *free* cell already holding it,
//!   chosen least-worn-first, eliding the setup writes;
//! * **spilling** — pool allocations skip free cells whose cached value a
//!   still-live node may want again, falling back to a fresh zero-wear
//!   cell (a cold spare row) instead of clobbering the cache. A skipped
//!   cell is parked out of the pool until no live node wants its value,
//!   so each allocation pays only for the cells it can actually use.
//!
//! All reuse decisions are re-validated against the tracker at emission
//! time, and cells start as opaque unknowns — a copy-discovery read can
//! never be satisfied by residue a previous job left in the array. With
//! the flag off (the default) this machinery is fully bypassed and the
//! emitted programs are byte-identical to the baseline translator's.

use rlim_mig::{Mig, NodeId, Signal};
use rlim_plim::{Instruction, Operand, Program};
use rlim_rram::CellId;

use crate::cells::CellManager;
use crate::options::CompileOptions;
use crate::pipeline::{Pass, PipelineState, Schedule};
use crate::values::{value_index, Holders, ValueId, Values, FALSE, TRUE};

/// Translates the scheduled nodes into an RM3 [`Program`], allocating
/// cells as it goes (the *allocate + translate* pipeline stage).
#[derive(Debug, Clone, Copy, Default)]
pub struct TranslatePass;

impl Pass for TranslatePass {
    fn name(&self) -> &'static str {
        "translate"
    }

    fn run(&self, state: &mut PipelineState<'_>) {
        let schedule = state
            .schedule
            .as_deref()
            .expect("translate pass needs a schedule");
        state.program = Some(translate(state.graph(), state.options, schedule).0);
    }
}

/// The [`TranslatePass`] body: `graph` translated in `schedule`'s order
/// under `options`, with the largest write count any one cell took.
pub(crate) fn translate(
    graph: &Mig,
    options: &CompileOptions,
    schedule: &Schedule,
) -> (Program, u64) {
    // The schedule carries the initial pending-use counts, so the
    // structural view is computed once per schedule; translation
    // consumes its own copy of the counts.
    Translator::new(graph, options, schedule.fanout.clone()).run(&schedule.order)
}

/// Role-assignment cost: `(extra instructions, extra cells)`; the main RM3
/// itself is not included (it is always 1 instruction).
type Cost = (u32, u32);

/// How each role will be realised, decided before any emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadPlan {
    /// Pass a constant operand.
    Const(bool),
    /// Read the child's cell directly.
    Direct(NodeId),
    /// Copy discovery: read a cell that already caches the needed value.
    Reuse(CellId),
    /// Materialise the complement of the child's value in a temp cell.
    MaterialiseInverse(NodeId),
}

/// How an allocated destination is initialised before the main RM3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DestInit {
    /// Set the cell to a constant (1 instruction).
    Const(bool),
    /// Copy the child's value into the cell (2 instructions).
    Copy(NodeId),
    /// Copy the child's complement into the cell (2 instructions).
    CopyInverse(NodeId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DestPlan {
    /// Overwrite the cell of this child (its last pending use).
    InPlace(NodeId),
    /// Allocate a cell and initialise it.
    Alloc(DestInit),
    /// Copy discovery: take a free cell that already caches the required
    /// initial value; the init doubles as the fallback if the cell is
    /// pinned by a read of the same gate at realisation time.
    TakeCached(CellId, DestInit),
}

/// The copy-reuse bookkeeping, present only when
/// `CompileOptions::copy_reuse` is on.
struct ReuseState {
    values: Values,
    holders: Holders,
    /// Abstract (uncomplemented) value per computed node.
    node_value: Vec<Option<ValueId>>,
    /// How many live nodes want each *stored inverse*, indexed by value
    /// id: the complement of each live node's value counts once per node
    /// (constants are never counted). Drives the spilling heuristic: a
    /// free cell caching a wanted inverse is worth protecting from
    /// recycling, because a future complemented read can then elide a
    /// whole materialisation chain. The allocator parks such cells; they
    /// return to the pool when the count drops to zero, found through
    /// `holders` (a parked cell is never written, so it still holds the
    /// value it was parked for).
    live_need: Vec<u32>,
}

impl ReuseState {
    fn new(num_nodes: usize) -> Self {
        ReuseState {
            values: Values::empty(),
            holders: Holders::new(),
            node_value: vec![None; num_nodes],
            live_need: Vec::new(),
        }
    }

    /// Tracks one emitted instruction: the destination's new abstract
    /// value, and the holder index entry it creates.
    fn record(&mut self, inst: &Instruction) {
        if let Operand::Cell(c) = inst.p {
            self.values.ensure_cell(c);
        }
        if let Operand::Cell(c) = inst.q {
            self.values.ensure_cell(c);
        }
        self.values.ensure_cell(inst.z);
        let v = self.values.rm3_result(inst);
        self.values.set(inst.z, v);
        self.holders.note(v, inst.z);
    }

    /// Seeds a primary input: the machine preloads `cell` externally, so
    /// the cell holds the input's (opaque) value without a program write.
    fn preload_input(&mut self, node: NodeId, cell: CellId, live: bool) {
        self.values.ensure_cell(cell);
        let v = self.values.fresh();
        self.values.set(cell, v);
        self.holders.note(v, cell);
        self.node_value[node.index()] = Some(v);
        if live {
            self.add_live(v);
        }
    }

    /// The abstract value of a signal, if its node has been computed.
    fn sig_value(&self, s: Signal) -> Option<ValueId> {
        if let Some(bit) = s.constant_value() {
            return Some(if bit { TRUE } else { FALSE });
        }
        self.node_value[s.node().index()].map(|v| if s.is_complement() { v ^ 1 } else { v })
    }

    fn add_live(&mut self, v: ValueId) {
        if v >= 2 {
            let inverse = value_index(v ^ 1);
            if inverse >= self.live_need.len() {
                self.live_need.resize(inverse + 1, 0);
            }
            self.live_need[inverse] += 1;
        }
    }

    /// Drops one live use of `v`. When nothing wants its inverse any
    /// more, the cells parked for caching that inverse go back to the
    /// pool — the only way a parked cell stops being useful, since its
    /// value changes only through a write, which has to take it first.
    fn remove_live(&mut self, v: ValueId, cells: &mut CellManager) {
        if v < 2 {
            return;
        }
        let inverse = v ^ 1;
        if let Some(n) = self
            .live_need
            .get_mut(value_index(inverse))
            .filter(|n| **n > 0)
        {
            *n -= 1;
            if *n == 0 {
                // Unparking is a no-op for holders that are not parked.
                for cell in self.holders.cells(inverse) {
                    cells.unpark(cell);
                }
            }
        }
    }

    /// Whether recycling `cell` would clobber a cached inverse some live
    /// node may still want (the spill predicate).
    fn is_wanted(&self, cell: CellId) -> bool {
        self.values
            .get(cell)
            .is_some_and(|v| v >= 2 && self.live_need.get(value_index(v)).is_some_and(|&n| n > 0))
    }
}

struct Translator<'a> {
    mig: &'a Mig,
    cells: CellManager,
    instructions: Vec<Instruction>,
    /// Cell currently holding each node's (uncomplemented) value.
    node_cell: Vec<Option<CellId>>,
    /// Pending uses per node: live gate-children edges + PO references.
    /// PO references are never consumed, pinning PO cells forever.
    fanout_remaining: Vec<u32>,
    input_cells: Vec<CellId>,
    /// Copy-discovery + spilling state (`None` when the option is off; the
    /// baseline code paths are then taken verbatim).
    reuse: Option<ReuseState>,
}

impl<'a> Translator<'a> {
    fn new(mig: &'a Mig, options: &CompileOptions, fanout_remaining: Vec<u32>) -> Self {
        Translator {
            mig,
            cells: CellManager::new(options.allocation, options.max_writes),
            instructions: Vec::new(),
            node_cell: vec![None; mig.num_nodes()],
            fanout_remaining,
            input_cells: Vec::new(),
            reuse: options.copy_reuse.then(|| ReuseState::new(mig.num_nodes())),
        }
    }

    fn run(mut self, schedule: &[NodeId]) -> (Program, u64) {
        // Primary inputs are preloaded into the first cells (wear-free).
        for i in 0..self.mig.num_inputs() {
            let cell = self.cells.alloc_fresh();
            let node = self.mig.input(i).node();
            self.node_cell[node.index()] = Some(cell);
            self.input_cells.push(cell);
            let live = self.fanout_remaining[node.index()] > 0;
            if let Some(r) = &mut self.reuse {
                r.preload_input(node, cell, live);
            }
            // Inputs nothing ever reads can be recycled immediately.
            if !live {
                self.node_cell[node.index()] = None;
                self.cells.release(cell);
            }
        }

        // Translate nodes in schedule order.
        for &n in schedule {
            self.translate(n);
        }

        // Resolve primary outputs; complemented or constant outputs need a
        // materialisation cell (shared per distinct signal) — unless copy
        // discovery finds a cell already holding the output value.
        let mut po_cache: std::collections::HashMap<Signal, CellId> =
            std::collections::HashMap::new();
        let outputs: Vec<Signal> = self.mig.outputs().to_vec();
        let mut output_cells = Vec::with_capacity(outputs.len());
        for s in outputs {
            let cell = if let Some(&c) = po_cache.get(&s) {
                c
            } else {
                let c = match s.constant_value() {
                    Some(bit) => {
                        let v = if bit { TRUE } else { FALSE };
                        if let Some(h) = self.claim_output_holder(v) {
                            h
                        } else {
                            let c = self.alloc_spill_aware(1);
                            self.set_const(c, bit);
                            c
                        }
                    }
                    None if !s.is_complement() => self.node_cell[s.node().index()]
                        .expect("primary output node must have been computed"),
                    None => {
                        let v = self.reuse.as_ref().and_then(|r| r.sig_value(s));
                        if let Some(h) = v.and_then(|v| self.claim_output_holder(v)) {
                            h
                        } else {
                            let src = self.node_cell[s.node().index()]
                                .expect("primary output node must have been computed");
                            let c = self.alloc_spill_aware(2);
                            self.copy_inv(c, src);
                            c
                        }
                    }
                };
                po_cache.insert(s, c);
                c
            };
            output_cells.push(cell);
        }

        let program = Program {
            instructions: self.instructions,
            num_cells: self.cells.num_cells(),
            input_cells: self.input_cells,
            output_cells,
        };
        (program, self.cells.peak_writes())
    }

    // ---- Emission primitives ------------------------------------------

    fn emit(&mut self, inst: Instruction) {
        if let Some(r) = &mut self.reuse {
            r.record(&inst);
        }
        self.cells.record_write(inst.z);
        self.instructions.push(inst);
    }

    /// `c ← bit` (1 instruction).
    fn set_const(&mut self, c: CellId, bit: bool) {
        self.emit(Instruction::set_const(c, bit));
    }

    /// `c ← value(src)` (2 instructions).
    fn copy(&mut self, c: CellId, src: CellId) {
        self.set_const(c, false);
        self.emit(Instruction::load(src, c));
    }

    /// `c ← !value(src)` (2 instructions).
    fn copy_inv(&mut self, c: CellId, src: CellId) {
        self.set_const(c, true);
        self.emit(Instruction::load_inv(src, c));
    }

    // ---- Copy-discovery queries ---------------------------------------

    /// A *free* cell caching `v` with budget for the main write, chosen
    /// least-worn-first (wear tie-break on the cell index) — the
    /// constant-mapping / destination flavour of copy discovery.
    fn find_cached_dest(&self, v: ValueId) -> Option<CellId> {
        let r = self.reuse.as_ref()?;
        let mut best: Option<CellId> = None;
        for h in r.holders.cells(v) {
            if !self.cells.is_free(h) || !self.cells.fits_budget(h, 1) {
                continue;
            }
            let better = best.is_none_or(|b| {
                (self.cells.writes_of(h), h.index()) < (self.cells.writes_of(b), b.index())
            });
            if better {
                best = Some(h);
            }
        }
        best
    }

    /// Claims a holder of `v` as a primary-output cell: free holders are
    /// taken out of the pool for good (nothing may recycle an output
    /// cell); live or retired holders are referenced as-is.
    fn claim_output_holder(&mut self, v: ValueId) -> Option<CellId> {
        let h = {
            let r = self.reuse.as_ref()?;
            r.holders.cells(v).next()?
        };
        if self.cells.is_free(h) {
            self.cells.take(h);
        }
        Some(h)
    }

    /// Pool allocation for destinations and temps. With copy-reuse on,
    /// free cells still caching a wanted value are spilled past: the
    /// request falls through to a fresh zero-wear cell (a cold spare row,
    /// least-worn by definition) instead of clobbering the cache.
    fn alloc_spill_aware(&mut self, budget: u64) -> CellId {
        match &mut self.reuse {
            None => self.cells.alloc(budget),
            Some(r) => match self.cells.try_alloc_avoiding(budget, |c| r.is_wanted(c)) {
                Some(c) => c,
                None => self.cells.alloc_fresh(),
            },
        }
    }

    // ---- Node translation ---------------------------------------------

    /// Cost and plan of using `s` as the P operand.
    fn plan_p(&self, s: Signal) -> (Cost, ReadPlan) {
        match s.constant_value() {
            Some(bit) => ((0, 0), ReadPlan::Const(bit)),
            None if !s.is_complement() => ((0, 0), ReadPlan::Direct(s.node())),
            None => self.plan_inverse_read(s.node()),
        }
    }

    /// Cost and plan of using `s` as the Q operand (RM3 inverts Q, so the
    /// stored value must be the complement of the desired signal).
    fn plan_q(&self, s: Signal) -> (Cost, ReadPlan) {
        match s.constant_value() {
            // Need Q̄ = bit ⇒ Q = !bit.
            Some(bit) => ((0, 0), ReadPlan::Const(!bit)),
            // Complemented child: the stored value *is* the inverse. Free.
            None if s.is_complement() => ((0, 0), ReadPlan::Direct(s.node())),
            // Uncomplemented: the stored inverse must come from somewhere.
            None => self.plan_inverse_read(s.node()),
        }
    }

    /// Both read misfits need the stored *inverse* of `node`'s value:
    /// reuse a cell that already caches it (for free), else materialise
    /// it into a temp (2 instructions, 1 cell).
    fn plan_inverse_read(&self, node: NodeId) -> (Cost, ReadPlan) {
        if let Some(r) = &self.reuse {
            if let Some(v) = r.node_value[node.index()] {
                if let Some(h) = r.holders.cells(v ^ 1).next() {
                    return ((0, 0), ReadPlan::Reuse(h));
                }
            }
        }
        ((2, 1), ReadPlan::MaterialiseInverse(node))
    }

    /// Cost and plan of using `s` as the destination Z.
    fn plan_z(&self, s: Signal) -> (Cost, DestPlan) {
        match s.constant_value() {
            Some(bit) => {
                let v = if bit { TRUE } else { FALSE };
                self.plan_dest_init((1, 1), DestInit::Const(bit), Some(v))
            }
            None if s.is_complement() => {
                let node = s.node();
                let v = self
                    .reuse
                    .as_ref()
                    .and_then(|r| r.node_value[node.index()])
                    .map(|v| v ^ 1);
                self.plan_dest_init((2, 1), DestInit::CopyInverse(node), v)
            }
            None => {
                let node = s.node();
                let consumable = self.fanout_remaining[node.index()] == 1
                    && self.node_cell[node.index()].is_some_and(|c| self.cells.fits_budget(c, 1));
                if consumable {
                    ((0, 0), DestPlan::InPlace(node))
                } else {
                    let v = self.reuse.as_ref().and_then(|r| r.node_value[node.index()]);
                    self.plan_dest_init((2, 1), DestInit::Copy(node), v)
                }
            }
        }
    }

    /// Upgrades an allocate-and-initialise destination to a cached free
    /// holder when copy discovery finds one.
    fn plan_dest_init(
        &self,
        base: Cost,
        init: DestInit,
        value: Option<ValueId>,
    ) -> (Cost, DestPlan) {
        if let Some(h) = value.and_then(|v| self.find_cached_dest(v)) {
            return ((0, 0), DestPlan::TakeCached(h, init));
        }
        (base, DestPlan::Alloc(init))
    }

    /// Translates one majority gate into RM3 instructions.
    fn translate(&mut self, n: NodeId) {
        let ch = self.mig.children(n);

        // Enumerate all six role assignments; keep the cheapest.
        const PERMS: [(usize, usize, usize); 6] = [
            (0, 1, 2),
            (0, 2, 1),
            (1, 0, 2),
            (1, 2, 0),
            (2, 0, 1),
            (2, 1, 0),
        ];
        // Planning only reads translator state, so each child is planned
        // once per role and the plans are shared by the permutations.
        let p = [self.plan_p(ch[0]), self.plan_p(ch[1]), self.plan_p(ch[2])];
        let q = [self.plan_q(ch[0]), self.plan_q(ch[1]), self.plan_q(ch[2])];
        let z = [self.plan_z(ch[0]), self.plan_z(ch[1]), self.plan_z(ch[2])];
        let mut best: Option<(Cost, ReadPlan, ReadPlan, DestPlan)> = None;
        for (pi, qi, zi) in PERMS {
            let ((ip, cp), p_plan) = p[pi];
            let ((iq, cq), q_plan) = q[qi];
            let ((iz, cz), z_plan) = z[zi];
            let cost = (ip + iq + iz, cp + cq + cz);
            if best.is_none_or(|(c, _, _, _)| cost < c) {
                best = Some((cost, p_plan, q_plan, z_plan));
            }
        }
        let (_, p_plan, q_plan, mut z_plan) = best.expect("six permutations evaluated");

        // Pin reused holders that sit in the free pool *before* any
        // allocation below, so temp/destination requests cannot recycle
        // them between here and the main op that reads them.
        let mut reserved: Vec<CellId> = Vec::new();
        for plan in [p_plan, q_plan] {
            if let ReadPlan::Reuse(h) = plan {
                if self.cells.is_free(h) {
                    self.cells.take(h);
                    reserved.push(h);
                }
            }
        }
        if let DestPlan::TakeCached(cell, init) = z_plan {
            if self.cells.is_free(cell) {
                self.cells.take(cell);
            } else {
                // The holder doubles as a read of this gate (now pinned):
                // fall back to materialising the destination normally.
                z_plan = DestPlan::Alloc(init);
            }
        }

        // Materialise read operands first (their recipes must not disturb
        // the destination).
        let mut temps: Vec<CellId> = Vec::new();
        let p_op = self.realise_read(p_plan, &mut temps);
        let q_op = self.realise_read(q_plan, &mut temps);

        // Prepare the destination.
        let (dest, in_place_child) = match z_plan {
            DestPlan::InPlace(child) => {
                let cell = self.node_cell[child.index()].expect("in-place child has a cell");
                (cell, Some(child))
            }
            DestPlan::TakeCached(cell, _) => (cell, None),
            DestPlan::Alloc(init) => (self.realise_alloc_dest(init), None),
        };

        // The main RM3 operation.
        self.emit(Instruction {
            p: p_op,
            q: q_op,
            z: dest,
        });
        self.node_cell[n.index()] = Some(dest);
        let live = self.fanout_remaining[n.index()] > 0;
        if let Some(r) = &mut self.reuse {
            let v = r.values.get(dest).expect("emitted destination is tracked");
            r.node_value[n.index()] = Some(v);
            if live {
                r.add_live(v);
            }
        }

        // Temps die immediately after the main op, and pinned read
        // holders go back to the pool unchanged (reads are wear-free).
        for t in temps {
            self.cells.release(t);
        }
        for h in reserved {
            self.cells.release(h);
        }

        // Consume one pending use per child; release cells that reached
        // their last use (the in-place child's cell now belongs to `n`).
        for s in ch {
            if s.is_constant() {
                continue;
            }
            let child = s.node();
            self.fanout_remaining[child.index()] -= 1;
            if self.fanout_remaining[child.index()] == 0 {
                if let Some(r) = &mut self.reuse {
                    if let Some(v) = r.node_value[child.index()] {
                        r.remove_live(v, &mut self.cells);
                    }
                }
                if in_place_child == Some(child) {
                    self.node_cell[child.index()] = None;
                } else if let Some(cell) = self.node_cell[child.index()].take() {
                    self.cells.release(cell);
                }
            }
        }
    }

    fn realise_read(&mut self, plan: ReadPlan, temps: &mut Vec<CellId>) -> Operand {
        match plan {
            ReadPlan::Const(bit) => Operand::Const(bit),
            ReadPlan::Direct(node) => {
                Operand::Cell(self.node_cell[node.index()].expect("computed child has a cell"))
            }
            ReadPlan::Reuse(cell) => Operand::Cell(cell),
            ReadPlan::MaterialiseInverse(node) => {
                let src = self.node_cell[node.index()].expect("computed child has a cell");
                let temp = self.alloc_spill_aware(2);
                self.copy_inv(temp, src);
                temps.push(temp);
                Operand::Cell(temp)
            }
        }
    }

    fn realise_alloc_dest(&mut self, init: DestInit) -> CellId {
        match init {
            DestInit::Const(bit) => {
                let cell = self.alloc_spill_aware(2); // set + main write
                self.set_const(cell, bit);
                cell
            }
            DestInit::Copy(node) => {
                let src = self.node_cell[node.index()].expect("computed child has a cell");
                let cell = self.alloc_spill_aware(3); // set + load + main write
                self.copy(cell, src);
                cell
            }
            DestInit::CopyInverse(node) => {
                let src = self.node_cell[node.index()].expect("computed child has a cell");
                let cell = self.alloc_spill_aware(3);
                self.copy_inv(cell, src);
                cell
            }
        }
    }
}
