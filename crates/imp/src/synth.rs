//! NAND-based IMPLY synthesis from a Majority-Inverter Graph.
//!
//! This is the baseline in-memory computing style the paper's §II surveys:
//! every logic gate becomes a short IMPLY sequence whose writes all land on
//! the gate's *work cell* (the IMP operation is not commutative — `p IMP q`
//! can only rewrite `q`). A `k`-input NAND is
//!
//! ```text
//! FALSE s;  x₁ IMP s;  …;  x_k IMP s        (s = x̄₁ ∨ … ∨ x̄_k)
//! ```
//!
//! and a majority gate ⟨a b c⟩ maps to three pairwise NANDs plus a 3-input
//! NAND (`ab ∨ ac ∨ bc = NAND(NAND(a,b), NAND(a,c), NAND(b,c))`), with
//! complemented edges materialised through memoised `NOT`s (a 1-input
//! NAND).
//!
//! The synthesiser supports the same two allocation policies as the PLiM
//! compiler — LIFO (baseline) and minimum-write (the paper's technique 1)
//! — so IMP and RM3 write traffic can be compared like for like.
//!
//! # Allocation cost and tie-break
//!
//! Freed cells sit in one free list in release order, and a pick removes
//! its cell with `swap_remove`, so the list's last cell moves into the
//! hole. LIFO pops the list's end in O(1). Minimum-write picks the
//! **first** cell, in the free list's current order, among those with the
//! fewest writes: the cell a front-to-back scan keeping the first minimum
//! returns. An index finds it without the scan: a tournament tree over
//! the free-list positions, keyed by write count and then position, whose
//! root is the pick. Free cells are never written, so a position's key
//! changes only when a cell moves into or out of it: a pick re-keys the
//! hole and the vacated last position, a release the new last position.
//! Each costs O(log n) against O(n) for the scan, and the tree holds no
//! stale entry that could outlive its cell's move.

use rlim_mig::{BitSet, Mig, NodeId, Signal, StructuralView};
use rlim_rram::{Allocation, CellId};

use crate::isa::{ImpOp, ImpProgram};

/// Configuration for [`synthesize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImpSynthOptions {
    /// Cell allocation policy, the one the RM3 compiler uses too.
    pub allocation: Allocation,
}

impl ImpSynthOptions {
    /// LIFO baseline.
    pub fn lifo() -> Self {
        ImpSynthOptions {
            allocation: Allocation::Lifo,
        }
    }

    /// Minimum-write allocation.
    pub fn min_write() -> Self {
        ImpSynthOptions {
            allocation: Allocation::MinWrite,
        }
    }
}

/// Compiles `mig` into an IMPLY program.
///
/// # Examples
///
/// ```
/// use rlim_imp::{synthesize, ImpMachine, ImpSynthOptions};
/// use rlim_mig::Mig;
///
/// let mut mig = Mig::new(2);
/// let (a, b) = (mig.input(0), mig.input(1));
/// let g = mig.and(a, b);
/// mig.add_output(g);
///
/// let program = synthesize(&mig, &ImpSynthOptions::lifo());
/// let mut machine = ImpMachine::for_program(&program);
/// assert_eq!(machine.run(&program, &[true, true]).unwrap(), vec![true]);
/// ```
pub fn synthesize(mig: &Mig, options: &ImpSynthOptions) -> ImpProgram {
    Synthesiser::<FreeCells>::new(mig, *options).run()
}

/// The cells available for reuse, handed out under one allocation
/// policy. `writes` is the synthesiser's per-cell write count.
trait Pool {
    fn new(allocation: Allocation) -> Self;
    /// The next free cell to reuse, if any.
    fn take(&mut self, writes: &[u64]) -> Option<CellId>;
    /// Returns `cell` to the pool.
    fn put(&mut self, cell: CellId, writes: &[u64]);
}

/// The free list in release order, with an exact min-write index (see
/// the module docs).
struct FreeCells {
    allocation: Allocation,
    free: Vec<CellId>,
    /// Min-write only: a tournament tree over free-list positions, root
    /// at 1. Leaf `leaves + i` holds position `i`'s key, or `VACANT`
    /// past the list's end; an inner node holds the smaller key of its
    /// two children.
    tree: Vec<u64>,
    leaves: usize,
    /// Min-write picks so far, which choose the ones a debug build
    /// checks against a scan ([`CHECK_EVERY`]).
    picks: u64,
}

/// The key of a leaf with no free cell; above every real key.
const VACANT: u64 = u64::MAX;

/// A debug build checks every min-write pick from a free list of at
/// most this many cells against a scan, and every this-many-th pick from
/// a longer one: on a long list the checks cost one scan per this many
/// picks, not one per pick.
const CHECK_EVERY: u64 = 64;

impl FreeCells {
    /// Position `i`'s key: its cell's write count, then `i`, so the
    /// smallest key is the first least-written cell.
    fn key(&self, i: usize, writes: &[u64]) -> u64 {
        let count = writes[self.free[i].index()];
        assert!(
            count < u64::from(u32::MAX),
            "a cell's write count fits in 32 bits"
        );
        count << 32 | i as u64
    }

    /// Sets leaf `i` to `key` and re-plays the matches above it, up to
    /// the first one whose winner stays the same.
    fn set(&mut self, i: usize, key: u64) {
        let mut node = self.leaves + i;
        self.tree[node] = key;
        while node > 1 {
            node /= 2;
            let winner = self.tree[2 * node].min(self.tree[2 * node + 1]);
            if self.tree[node] == winner {
                break;
            }
            self.tree[node] = winner;
        }
    }

    /// Doubles the leaves, re-keying every position.
    fn grow(&mut self, writes: &[u64]) {
        self.leaves = (2 * self.leaves).max(16);
        self.tree = vec![VACANT; 2 * self.leaves];
        for i in 0..self.free.len() {
            self.tree[self.leaves + i] = self.key(i, writes);
        }
        for node in (1..self.leaves).rev() {
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }
}

impl Pool for FreeCells {
    fn new(allocation: Allocation) -> Self {
        FreeCells {
            allocation,
            free: Vec::new(),
            tree: Vec::new(),
            leaves: 0,
            picks: 0,
        }
    }

    fn take(&mut self, writes: &[u64]) -> Option<CellId> {
        if self.allocation == Allocation::Lifo || self.free.is_empty() {
            return self.free.pop();
        }
        let position = (self.tree[1] & u64::from(u32::MAX)) as usize;
        self.picks += 1;
        let sampled =
            self.free.len() as u64 <= CHECK_EVERY || self.picks.is_multiple_of(CHECK_EVERY);
        debug_assert!(
            !sampled || Some(position) == first_least_written(&self.free, writes),
            "the index picks what a scan of the free list picks"
        );
        let cell = self.free.swap_remove(position);
        let last = self.free.len();
        if position < last {
            // The last cell moved into the hole.
            let moved = self.key(position, writes);
            self.set(position, moved);
        }
        self.set(last, VACANT);
        Some(cell)
    }

    fn put(&mut self, cell: CellId, writes: &[u64]) {
        self.free.push(cell);
        if self.allocation == Allocation::MinWrite {
            let i = self.free.len() - 1;
            if i == self.leaves {
                self.grow(writes);
            } else {
                let key = self.key(i, writes);
                self.set(i, key);
            }
        }
    }
}

/// Position of the first cell of `free` with the fewest writes: the
/// min-write pick as a linear scan, which the index must agree with.
fn first_least_written(free: &[CellId], writes: &[u64]) -> Option<usize> {
    free.iter()
        .enumerate()
        .min_by_key(|(_, &c)| writes[c.index()])
        .map(|(i, _)| i)
}

struct Synthesiser<'a, P> {
    mig: &'a Mig,
    ops: Vec<ImpOp>,
    write_counts: Vec<u64>,
    pool: P,
    node_cell: Vec<Option<CellId>>,
    inv_cell: Vec<Option<CellId>>,
    fanout_remaining: Vec<u32>,
    live: BitSet,
    const_cell: [Option<CellId>; 2],
    input_cells: Vec<CellId>,
}

impl<'a, P: Pool> Synthesiser<'a, P> {
    fn new(mig: &'a Mig, options: ImpSynthOptions) -> Self {
        // Only liveness is read, so the view skips levels and parents, and
        // only its live set is kept past set-up.
        let mut view = StructuralView::new();
        view.compute_structure(mig);
        Synthesiser {
            mig,
            ops: Vec::new(),
            write_counts: Vec::new(),
            pool: P::new(options.allocation),
            node_cell: vec![None; mig.num_nodes()],
            inv_cell: vec![None; mig.num_nodes()],
            fanout_remaining: view.pending_uses(mig),
            live: view.live_set().clone(),
            const_cell: [None, None],
            input_cells: Vec::new(),
        }
    }

    fn run(mut self) -> ImpProgram {
        // Preload inputs (wear-free), recycling unused ones immediately.
        for i in 0..self.mig.num_inputs() {
            let cell = self.alloc_fresh();
            let node = self.mig.input(i).node();
            self.node_cell[node.index()] = Some(cell);
            self.input_cells.push(cell);
            if self.fanout_remaining[node.index()] == 0 {
                self.node_cell[node.index()] = None;
                self.release(cell);
            }
        }

        // Gates are stored children-before-parents, so index order is a
        // valid topological schedule.
        let mig = self.mig;
        for n in mig.gates() {
            if self.live.get(n.index()) {
                self.translate(n);
            }
        }

        // Resolve primary outputs (resolution memoises, so shared or
        // complemented outputs reuse one cell).
        let output_cells = mig.outputs().iter().map(|&s| self.resolve(s)).collect();

        ImpProgram {
            instructions: self.ops,
            num_cells: self.write_counts.len(),
            input_cells: self.input_cells,
            output_cells,
        }
    }

    // ---- Cell management ------------------------------------------------

    fn alloc_fresh(&mut self) -> CellId {
        let cell = CellId::new(self.write_counts.len() as u32);
        self.write_counts.push(0);
        cell
    }

    fn alloc(&mut self) -> CellId {
        match self.pool.take(&self.write_counts) {
            Some(cell) => cell,
            None => self.alloc_fresh(),
        }
    }

    fn release(&mut self, cell: CellId) {
        self.pool.put(cell, &self.write_counts);
    }

    // ---- Emission ---------------------------------------------------------

    fn emit(&mut self, op: ImpOp) {
        self.write_counts[op.destination().index()] += 1;
        self.ops.push(op);
    }

    /// `k`-input NAND into a freshly allocated cell.
    fn nand_into(&mut self, operands: &[CellId]) -> CellId {
        let s = self.alloc();
        self.emit(ImpOp::False(s));
        for &p in operands {
            self.emit(ImpOp::Imply { p, q: s });
        }
        s
    }

    /// Cell holding the given constant, materialised on first use.
    fn constant(&mut self, value: bool) -> CellId {
        if let Some(cell) = self.const_cell[value as usize] {
            return cell;
        }
        let cell = self.alloc_fresh(); // pinned forever: never released
        self.emit(ImpOp::False(cell));
        if value {
            // 0 IMP 0 = 1: imply the cell into itself.
            self.emit(ImpOp::Imply { p: cell, q: cell });
        }
        self.const_cell[value as usize] = Some(cell);
        cell
    }

    /// Cell holding the value of `s` (materialising a memoised `NOT` for
    /// complemented signals).
    fn resolve(&mut self, s: Signal) -> CellId {
        if let Some(bit) = s.constant_value() {
            return self.constant(bit);
        }
        let node = s.node();
        if !s.is_complement() {
            return self.node_cell[node.index()].expect("node computed before use");
        }
        if let Some(cell) = self.inv_cell[node.index()] {
            return cell;
        }
        let source = self.node_cell[node.index()].expect("node computed before use");
        let cell = self.nand_into(&[source]);
        self.inv_cell[node.index()] = Some(cell);
        cell
    }

    // ---- Gate translation -------------------------------------------------

    fn translate(&mut self, n: NodeId) {
        let ch = self.mig.children(n);
        let constant_child = ch.iter().find_map(|s| s.constant_value());

        // Operand cells, resolved in child order.
        let mut cells = [CellId::new(0); 3];
        let mut k = 0;
        let result = match constant_child {
            // ⟨a b 1⟩ = a ∨ b = NAND(ā, b̄)
            Some(true) => {
                for &s in ch.iter().filter(|s| !s.is_constant()) {
                    cells[k] = self.resolve(!s);
                    k += 1;
                }
                self.nand_into(&cells[..k])
            }
            // ⟨a b 0⟩ = a ∧ b = NOT(NAND(a, b))
            Some(false) => {
                for &s in ch.iter().filter(|s| !s.is_constant()) {
                    cells[k] = self.resolve(s);
                    k += 1;
                }
                let t = self.nand_into(&cells[..k]);
                let result = self.nand_into(&[t]);
                self.release(t);
                result
            }
            // Full majority: NAND of the three pairwise NANDs.
            None => {
                for (cell, &s) in cells.iter_mut().zip(&ch) {
                    *cell = self.resolve(s);
                }
                let n1 = self.nand_into(&[cells[0], cells[1]]);
                let n2 = self.nand_into(&[cells[0], cells[2]]);
                let n3 = self.nand_into(&[cells[1], cells[2]]);
                let result = self.nand_into(&[n1, n2, n3]);
                self.release(n1);
                self.release(n2);
                self.release(n3);
                result
            }
        };
        self.node_cell[n.index()] = Some(result);

        // Consume one pending use per child edge; free dead children.
        for s in ch {
            if s.is_constant() {
                continue;
            }
            let child = s.node();
            self.fanout_remaining[child.index()] -= 1;
            if self.fanout_remaining[child.index()] == 0 {
                if let Some(cell) = self.node_cell[child.index()].take() {
                    self.release(cell);
                }
                if let Some(cell) = self.inv_cell[child.index()].take() {
                    self.release(cell);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ImpMachine;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rlim_mig::random::{generate, RandomMigConfig};

    /// The reference pool: the free list picked by a linear scan, the
    /// allocator as it was before the index.
    struct ScanCells {
        allocation: Allocation,
        free: Vec<CellId>,
    }

    impl Pool for ScanCells {
        fn new(allocation: Allocation) -> Self {
            ScanCells {
                allocation,
                free: Vec::new(),
            }
        }

        fn take(&mut self, writes: &[u64]) -> Option<CellId> {
            match self.allocation {
                Allocation::Lifo => self.free.pop(),
                Allocation::MinWrite => {
                    first_least_written(&self.free, writes).map(|i| self.free.swap_remove(i))
                }
            }
        }

        fn put(&mut self, cell: CellId, _writes: &[u64]) {
            self.free.push(cell);
        }
    }

    fn assert_matches_scan(mig: &Mig, context: &str) {
        for options in [ImpSynthOptions::lifo(), ImpSynthOptions::min_write()] {
            let reference = Synthesiser::<ScanCells>::new(mig, options).run();
            assert_eq!(
                synthesize(mig, &options),
                reference,
                "{context} {:?}",
                options.allocation
            );
        }
    }

    #[test]
    fn a_cell_freed_back_into_its_old_position_is_rekeyed() {
        let cell = CellId::new;
        // Write counts: a = 2, b = 0, x = 1, d = 9.
        let mut writes = vec![2, 0, 1, 9];
        let mut pool = FreeCells::new(Allocation::MinWrite);
        for c in 0..3 {
            pool.put(cell(c), &writes);
        }
        // [a b x]: b goes and x moves from position 2 to 1.
        assert_eq!(pool.take(&writes), Some(cell(1)));
        pool.put(cell(3), &writes);
        // [a x d]: x goes, d moves into position 1.
        assert_eq!(pool.take(&writes), Some(cell(2)));
        writes[2] += 3;
        pool.put(cell(2), &writes);
        // [a d x]: x is back in position 2 with 4 writes, so its key
        // there from before (1 write) must not pick it ahead of a.
        assert_eq!(pool.free, [cell(0), cell(3), cell(2)]);
        assert_eq!(pool.take(&writes), Some(cell(0)));
        assert_eq!(pool.take(&writes), Some(cell(2)));
        assert_eq!(pool.take(&writes), Some(cell(3)));
        assert_eq!(pool.take(&writes), None);
    }

    #[test]
    fn index_picks_what_the_scan_picks() {
        for seed in 0..200u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut writes: Vec<u64> = Vec::new();
            let mut busy: Vec<CellId> = Vec::new();
            let mut pool = FreeCells::new(Allocation::MinWrite);
            let mut scan = ScanCells::new(Allocation::MinWrite);
            for step in 0..300 {
                match rng.gen_range(0..3) {
                    // A new cell, freed with a few writes (inputs free
                    // with none).
                    0 => {
                        let c = CellId::new(writes.len() as u32);
                        writes.push(rng.gen_range(0..4u64));
                        pool.put(c, &writes);
                        scan.put(c, &writes);
                    }
                    1 => {
                        let got = pool.take(&writes);
                        assert_eq!(got, scan.take(&writes), "seed {seed} step {step}");
                        if let Some(c) = got {
                            writes[c.index()] += rng.gen_range(1..5u64);
                            busy.push(c);
                        }
                    }
                    _ => {
                        if !busy.is_empty() {
                            let c = busy.swap_remove(rng.gen_range(0..busy.len()));
                            pool.put(c, &writes);
                            scan.put(c, &writes);
                        }
                    }
                }
                assert_eq!(pool.free, scan.free, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn programs_match_the_scan_on_random_graphs() {
        for seed in 0..24 {
            let cfg = RandomMigConfig {
                inputs: 4 + seed as usize % 9,
                outputs: 1 + seed as usize % 6,
                gates: 40 + 25 * seed as usize,
                complement_prob: 0.1 * (seed % 5) as f64,
                ..Default::default()
            };
            assert_matches_scan(&generate(&cfg, seed), &format!("seed {seed}"));
        }
    }

    #[test]
    fn programs_match_the_scan_on_the_serve_pool() {
        use rlim_benchmarks::Benchmark;
        use rlim_mig::rewrite::{rewrite, Algorithm};
        // The circuits the repository benchmark's serve workload compiles,
        // as they reach synthesis under endurance-aware rewriting.
        for b in [
            Benchmark::Cavlc,
            Benchmark::Ctrl,
            Benchmark::Dec,
            Benchmark::Int2float,
            Benchmark::Priority,
            Benchmark::Router,
            Benchmark::I2c,
            Benchmark::Sin,
            Benchmark::Max,
            Benchmark::Bar,
            Benchmark::Adder,
            Benchmark::Voter,
        ] {
            let mig = b.build();
            assert_matches_scan(&mig, b.name());
            assert_matches_scan(&rewrite(&mig, Algorithm::EnduranceAware, 5), b.name());
        }
    }

    fn assert_functional(mig: &Mig, options: &ImpSynthOptions, seed: u64) {
        let program = synthesize(mig, options);
        program.validate().expect("well-formed program");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..12 {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
            let mut machine = ImpMachine::for_program(&program);
            let got = machine.run(&program, &inputs).expect("no endurance limit");
            assert_eq!(got, mig.evaluate(&inputs), "inputs {inputs:?}");
        }
    }

    #[test]
    fn and_or_not_gates() {
        let mut mig = Mig::new(2);
        let (a, b) = (mig.input(0), mig.input(1));
        let and = mig.and(a, b);
        let or = mig.or(a, b);
        mig.add_output(and);
        mig.add_output(or);
        mig.add_output(!and);
        assert_functional(&mig, &ImpSynthOptions::lifo(), 1);
        assert_functional(&mig, &ImpSynthOptions::min_write(), 1);
    }

    #[test]
    fn full_majority_gate() {
        let mut mig = Mig::new(3);
        let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
        let m = mig.add_maj(a, b, c);
        mig.add_output(m);
        let program = synthesize(&mig, &ImpSynthOptions::lifo());
        // 3 pairwise NANDs (3 ops each) + final 3-input NAND (4 ops).
        assert_eq!(program.num_instructions(), 13);
        assert_functional(&mig, &ImpSynthOptions::lifo(), 2);
    }

    #[test]
    fn complemented_edges_and_outputs() {
        let mut mig = Mig::new(3);
        let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
        let m = mig.add_maj(!a, b, !c);
        mig.add_output(!m);
        mig.add_output(m);
        assert_functional(&mig, &ImpSynthOptions::lifo(), 3);
    }

    #[test]
    fn constant_outputs() {
        let mut mig = Mig::new(1);
        mig.add_output(Signal::TRUE);
        mig.add_output(Signal::FALSE);
        mig.add_output(mig.input(0));
        let program = synthesize(&mig, &ImpSynthOptions::lifo());
        let mut machine = ImpMachine::for_program(&program);
        assert_eq!(
            machine.run(&program, &[true]).unwrap(),
            vec![true, false, true]
        );
    }

    #[test]
    fn shared_inverse_is_memoised() {
        let mut mig = Mig::new(3);
        let (a, b, c) = (mig.input(0), mig.input(1), mig.input(2));
        // !a used by two gates: one NOT cell, not two.
        let g1 = mig.and(!a, b);
        let g2 = mig.and(!a, c);
        mig.add_output(g1);
        mig.add_output(g2);
        let program = synthesize(&mig, &ImpSynthOptions::lifo());
        // NOT a (2 ops) + 2 × AND (5 ops each) = 12; a second NOT would
        // make it 14.
        assert_eq!(program.num_instructions(), 12);
        assert_functional(&mig, &ImpSynthOptions::lifo(), 4);
    }

    #[test]
    fn random_graphs_functional_under_both_policies() {
        let cfg = RandomMigConfig {
            inputs: 7,
            outputs: 5,
            gates: 80,
            ..Default::default()
        };
        for seed in 0..4 {
            let mig = generate(&cfg, seed);
            assert_functional(&mig, &ImpSynthOptions::lifo(), seed);
            assert_functional(&mig, &ImpSynthOptions::min_write(), seed);
        }
    }

    #[test]
    fn min_write_balances_better_than_lifo() {
        use rlim_rram::WriteStats;
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 300,
            ..Default::default()
        };
        let mut improved = 0;
        for seed in 0..5 {
            let mig = generate(&cfg, seed);
            let lifo = synthesize(&mig, &ImpSynthOptions::lifo());
            let minw = synthesize(&mig, &ImpSynthOptions::min_write());
            let sl = WriteStats::from_counts(lifo.write_counts());
            let sm = WriteStats::from_counts(minw.write_counts());
            assert_eq!(
                lifo.num_instructions(),
                minw.num_instructions(),
                "allocation is cost-neutral"
            );
            if sm.stdev <= sl.stdev {
                improved += 1;
            }
        }
        assert!(improved >= 4, "min-write should usually balance better");
    }

    #[test]
    fn input_cells_are_never_written() {
        let cfg = RandomMigConfig {
            inputs: 6,
            outputs: 4,
            gates: 60,
            ..Default::default()
        };
        let mig = generate(&cfg, 9);
        let program = synthesize(&mig, &ImpSynthOptions::lifo());
        let counts = program.write_counts();
        // Inputs still holding their value at program end were never
        // recycled; such cells must show zero writes unless reused.
        let total: u64 = counts.iter().sum();
        assert_eq!(
            total as usize,
            program.num_instructions(),
            "one write per op"
        );
    }
}
