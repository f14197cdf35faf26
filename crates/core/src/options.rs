//! Compilation configuration: the paper's technique matrix.

use rlim_mig::rewrite::Algorithm;
pub use rlim_rram::Allocation;

/// Which computable MIG node is translated next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Selection {
    /// Creation order (children before parents) — the naive baseline.
    #[default]
    Topological,
    /// The DAC'16 PLiM-compiler priority: maximise the number of RRAMs
    /// released by the computation, tie-break on the smaller fanout level
    /// index.
    AreaAware,
    /// The paper's Algorithm 3: minimise the fanout level index (shortest
    /// storage duration first), tie-break on more releasing RRAMs.
    EnduranceAware,
}

impl Selection {
    /// The stable name used in reports and on the daemon's wire.
    pub fn name(self) -> &'static str {
        match self {
            Selection::Topological => "topological",
            Selection::AreaAware => "area-aware",
            Selection::EnduranceAware => "endurance-aware",
        }
    }
}

impl std::str::FromStr for Selection {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "topological" => Ok(Selection::Topological),
            "area-aware" => Ok(Selection::AreaAware),
            "endurance-aware" => Ok(Selection::EnduranceAware),
            other => Err(format!(
                "unknown selection policy `{other}` (topological | area-aware | endurance-aware)"
            )),
        }
    }
}

/// Full compiler configuration.
///
/// The constructors mirror the columns of the paper's Table I (the
/// mapping is in ARCHITECTURE.md, "Where the paper's algorithms live").
///
/// # Examples
///
/// ```
/// use rlim_compiler::{Allocation, CompileOptions, Selection};
///
/// let opts = CompileOptions::endurance_aware().with_max_writes(20);
/// assert_eq!(opts.allocation, Allocation::MinWrite);
/// assert_eq!(opts.selection, Selection::EnduranceAware);
/// assert_eq!(opts.max_writes, Some(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// MIG rewriting to apply before translation; `None` compiles the graph
    /// as given (the naive baseline).
    pub rewriting: Option<Algorithm>,
    /// Rewriting effort cycles (the paper uses 5).
    pub effort: usize,
    /// Node-selection policy.
    pub selection: Selection,
    /// Cell-allocation policy.
    pub allocation: Allocation,
    /// The *maximum write count strategy*: when set, no cell ever receives
    /// more than this many writes; cells at the limit are retired and fresh
    /// cells allocated instead. Must be ≥ 3 so that the copy recipes
    /// (initialise + load + destination write) fit in one cell's budget.
    pub max_writes: Option<u64>,
    /// Run the peephole write-elision pass over the emitted program,
    /// deleting provably redundant destination writes. Off by default so
    /// the emitted programs stay bit-for-bit comparable with the paper's
    /// configuration columns; turning it on can only shrink `#I` and
    /// per-cell write counts, never grow them.
    pub peephole: bool,
    /// Register-allocation-style copy discovery in the translator: track
    /// which cells already hold which value (constants, copies,
    /// complements), read operands from existing holders instead of
    /// re-materialising them, reuse free cached cells as destinations
    /// least-worn-first, and spill still-useful cells to cold spare rows
    /// instead of recycling them under write pressure. Off by default so
    /// the emitted programs stay bit-for-bit comparable with the paper's
    /// configuration columns.
    pub copy_reuse: bool,
    /// Equality saturation: after the greedy rewriting fixed point, load
    /// the graph into an e-graph, saturate the Ω rules within the
    /// budgets below, and extract the cheapest realization under the
    /// preset's cost weights (`rlim-egraph`). The compiler keeps the
    /// extracted graph only when its compiled wear profile is pointwise
    /// no worse than without saturation, so the option can only improve
    /// the paper's metrics. Off by default so the emitted programs stay
    /// bit-for-bit comparable with the paper's configuration columns.
    pub esat: bool,
    /// Saturation node budget: stop applying rules once the e-graph
    /// holds this many live e-nodes (see `rlim_egraph::Budget`).
    pub esat_nodes: u32,
    /// Saturation iteration budget: maximum match/apply/rebuild rounds.
    pub esat_iters: u32,
}

/// Default saturation node budget (see [`CompileOptions::esat_nodes`]).
pub const DEFAULT_ESAT_NODES: u32 = 50_000;

/// Default saturation iteration budget (see
/// [`CompileOptions::esat_iters`]).
pub const DEFAULT_ESAT_ITERS: u32 = 4;

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::endurance_aware()
    }
}

impl CompileOptions {
    /// The naive baseline: no rewriting, topological order, LIFO pool
    /// (Table I column "naive").
    pub fn naive() -> Self {
        CompileOptions {
            rewriting: None,
            effort: 0,
            selection: Selection::Topological,
            allocation: Allocation::Lifo,
            max_writes: None,
            peephole: false,
            copy_reuse: false,
            esat: false,
            esat_nodes: DEFAULT_ESAT_NODES,
            esat_iters: DEFAULT_ESAT_ITERS,
        }
    }

    /// The DAC'16 PLiM compiler (Table I column "PLiM compiler \[21\]"):
    /// Algorithm 1 rewriting + area-aware selection.
    pub fn plim_compiler() -> Self {
        CompileOptions {
            rewriting: Some(Algorithm::PlimCompiler),
            effort: 5,
            selection: Selection::AreaAware,
            allocation: Allocation::Lifo,
            max_writes: None,
            peephole: false,
            copy_reuse: false,
            esat: false,
            esat_nodes: DEFAULT_ESAT_NODES,
            esat_iters: DEFAULT_ESAT_ITERS,
        }
    }

    /// [`CompileOptions::plim_compiler`] plus the minimum write count
    /// strategy (Table I column "Minimum write strategy").
    pub fn min_write() -> Self {
        CompileOptions {
            allocation: Allocation::MinWrite,
            ..CompileOptions::plim_compiler()
        }
    }

    /// [`CompileOptions::min_write`] with the endurance-aware rewriting of
    /// Algorithm 2 (Table I column "+ endurance-aware MIG rewriting").
    pub fn endurance_rewriting() -> Self {
        CompileOptions {
            rewriting: Some(Algorithm::EnduranceAware),
            ..CompileOptions::min_write()
        }
    }

    /// The full endurance-aware compilation without a write bound
    /// (Table I column "+ endurance-aware MIG rewriting and compilation"):
    /// Algorithm 2 rewriting, Algorithm 3 node selection, minimum-write
    /// allocation.
    pub fn endurance_aware() -> Self {
        CompileOptions {
            selection: Selection::EnduranceAware,
            ..CompileOptions::endurance_rewriting()
        }
    }

    /// Adds the maximum write count strategy (Table III).
    ///
    /// # Panics
    ///
    /// Panics if `limit < 3`: a fresh destination cell needs up to three
    /// writes (initialise, load, destination write) for one node.
    pub fn with_max_writes(mut self, limit: u64) -> Self {
        assert!(limit >= 3, "max_writes must be at least 3, got {limit}");
        self.max_writes = Some(limit);
        self
    }

    /// Sets the rewriting effort.
    pub fn with_effort(mut self, effort: usize) -> Self {
        self.effort = effort;
        self
    }

    /// Enables or disables the peephole write-elision pass.
    pub fn with_peephole(mut self, peephole: bool) -> Self {
        self.peephole = peephole;
        self
    }

    /// Enables or disables copy discovery + spilling-aware allocation in
    /// the translator (see [`CompileOptions::copy_reuse`]).
    pub fn with_copy_reuse(mut self, copy_reuse: bool) -> Self {
        self.copy_reuse = copy_reuse;
        self
    }

    /// Enables or disables equality saturation (see
    /// [`CompileOptions::esat`]).
    pub fn with_esat(mut self, esat: bool) -> Self {
        self.esat = esat;
        self
    }

    /// Sets the saturation node budget.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is 0: a zero budget would forbid even loading
    /// the graph.
    pub fn with_esat_nodes(mut self, nodes: u32) -> Self {
        assert!(nodes > 0, "esat node budget must be positive");
        self.esat_nodes = nodes;
        self
    }

    /// Sets the saturation iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `iters` is 0: a zero budget would make `--esat` a
    /// silent no-op.
    pub fn with_esat_iters(mut self, iters: u32) -> Self {
        assert!(iters > 0, "esat iteration budget must be positive");
        self.esat_iters = iters;
        self
    }

    /// The canonical preset names, in the paper's Table I column order.
    /// These are the strings accepted by [`CompileOptions::preset`] and
    /// produced by [`CompileOptions::preset_name`], and the vocabulary the
    /// CLI's `--policy` flag speaks.
    pub fn preset_names() -> &'static [&'static str] {
        &[
            "naive",
            "plim21",
            "min-write",
            "ea-rewriting",
            "endurance-aware",
        ]
    }

    /// Looks up a preset by its canonical name (see
    /// [`CompileOptions::preset_names`]); `None` for unknown names.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlim_compiler::CompileOptions;
    ///
    /// assert_eq!(
    ///     CompileOptions::preset("endurance-aware"),
    ///     Some(CompileOptions::endurance_aware())
    /// );
    /// assert_eq!(CompileOptions::preset("yolo"), None);
    /// ```
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "naive" => Some(CompileOptions::naive()),
            "plim21" => Some(CompileOptions::plim_compiler()),
            "min-write" => Some(CompileOptions::min_write()),
            "ea-rewriting" => Some(CompileOptions::endurance_rewriting()),
            "endurance-aware" => Some(CompileOptions::endurance_aware()),
            _ => None,
        }
    }

    /// The canonical name of the preset this configuration is based on,
    /// judged by the technique triple (rewriting algorithm, selection,
    /// allocation) — the knobs that define the paper's columns. Effort,
    /// write budget, the peephole pass, copy-reuse, equality saturation
    /// and its two budgets are per-run modifiers and do not affect the
    /// answer. Returns `None` for hand-rolled combinations that match no
    /// column.
    pub fn preset_name(&self) -> Option<&'static str> {
        Self::preset_names().iter().copied().find(|name| {
            let p = Self::preset(name).expect("every canonical name resolves");
            (self.rewriting, self.selection, self.allocation)
                == (p.rewriting, p.selection, p.allocation)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_column_mapping() {
        let naive = CompileOptions::naive();
        assert_eq!(naive.rewriting, None);
        assert_eq!(naive.selection, Selection::Topological);
        assert_eq!(naive.allocation, Allocation::Lifo);

        let plim = CompileOptions::plim_compiler();
        assert_eq!(plim.rewriting, Some(Algorithm::PlimCompiler));
        assert_eq!(plim.selection, Selection::AreaAware);
        assert_eq!(plim.allocation, Allocation::Lifo);

        let minw = CompileOptions::min_write();
        assert_eq!(minw.rewriting, Some(Algorithm::PlimCompiler));
        assert_eq!(minw.allocation, Allocation::MinWrite);
        assert_eq!(minw.selection, Selection::AreaAware);

        let ear = CompileOptions::endurance_rewriting();
        assert_eq!(ear.rewriting, Some(Algorithm::EnduranceAware));
        assert_eq!(ear.selection, Selection::AreaAware);

        let full = CompileOptions::endurance_aware();
        assert_eq!(full.rewriting, Some(Algorithm::EnduranceAware));
        assert_eq!(full.selection, Selection::EnduranceAware);
        assert_eq!(full.allocation, Allocation::MinWrite);
        assert_eq!(full.max_writes, None);
        assert_eq!(full.effort, 5);
    }

    #[test]
    fn default_is_endurance_aware() {
        assert_eq!(CompileOptions::default(), CompileOptions::endurance_aware());
    }

    #[test]
    fn with_max_writes_accepts_paper_values() {
        for w in [10, 20, 50, 100] {
            let o = CompileOptions::endurance_aware().with_max_writes(w);
            assert_eq!(o.max_writes, Some(w));
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_write_budget_rejected() {
        let _ = CompileOptions::endurance_aware().with_max_writes(2);
    }

    #[test]
    fn with_effort() {
        let o = CompileOptions::plim_compiler().with_effort(2);
        assert_eq!(o.effort, 2);
    }

    #[test]
    fn preset_roundtrips_through_its_name() {
        for &name in CompileOptions::preset_names() {
            let preset = CompileOptions::preset(name).unwrap();
            assert_eq!(preset.preset_name(), Some(name), "{name}");
            // Per-run modifiers keep the preset identity.
            assert_eq!(preset.with_effort(9).preset_name(), Some(name));
            assert_eq!(preset.with_peephole(true).preset_name(), Some(name));
            assert_eq!(preset.with_copy_reuse(true).preset_name(), Some(name));
            assert_eq!(preset.with_esat(true).preset_name(), Some(name));
            assert_eq!(preset.with_max_writes(20).preset_name(), Some(name));
        }
        assert_eq!(CompileOptions::preset("nonesuch"), None);
    }

    #[test]
    fn hand_rolled_options_have_no_preset_name() {
        // The sweep's effort-0 point: endurance-aware techniques without
        // rewriting matches no Table I column.
        let o = CompileOptions {
            rewriting: None,
            ..CompileOptions::endurance_aware()
        };
        assert_eq!(o.preset_name(), None);
    }

    #[test]
    fn peephole_defaults_off_in_every_preset() {
        for preset in [
            CompileOptions::naive(),
            CompileOptions::plim_compiler(),
            CompileOptions::min_write(),
            CompileOptions::endurance_rewriting(),
            CompileOptions::endurance_aware(),
        ] {
            assert!(!preset.peephole, "paper columns exclude the peephole");
            assert!(!preset.copy_reuse, "paper columns exclude copy reuse");
            assert!(!preset.esat, "paper columns exclude equality saturation");
            assert_eq!(preset.esat_nodes, DEFAULT_ESAT_NODES);
            assert_eq!(preset.esat_iters, DEFAULT_ESAT_ITERS);
        }
        let on = CompileOptions::endurance_aware().with_peephole(true);
        assert!(on.peephole);
        let reuse = CompileOptions::endurance_aware().with_copy_reuse(true);
        assert!(reuse.copy_reuse);
    }

    #[test]
    fn esat_builders_set_the_flag_and_budgets() {
        let o = CompileOptions::endurance_aware()
            .with_esat(true)
            .with_esat_nodes(10_000)
            .with_esat_iters(2);
        assert!(o.esat);
        assert_eq!(o.esat_nodes, 10_000);
        assert_eq!(o.esat_iters, 2);
    }

    #[test]
    #[should_panic(expected = "node budget must be positive")]
    fn zero_esat_node_budget_rejected() {
        let _ = CompileOptions::endurance_aware().with_esat_nodes(0);
    }

    #[test]
    #[should_panic(expected = "iteration budget must be positive")]
    fn zero_esat_iteration_budget_rejected() {
        let _ = CompileOptions::endurance_aware().with_esat_iters(0);
    }
}
