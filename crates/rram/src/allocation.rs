//! The cell-reuse policy: which freed cell a compiler writes next.
//!
//! Both compilers of the workspace, RM3 for PLiM and NAND synthesis for
//! IMPLY, keep the cells whose values are dead in a free list, and this
//! one policy decides which of them a new value lands on.

/// How freed RRAM cells are handed back out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Allocation {
    /// Most-recently-freed first — the behaviour of the baseline compiler,
    /// which concentrates writes on a few hot cells.
    #[default]
    Lifo,
    /// The paper's *minimum write count strategy*: return the freed cell
    /// with the smallest write count.
    MinWrite,
}

impl Allocation {
    /// The stable name used in reports and on the daemon's wire.
    pub fn name(self) -> &'static str {
        match self {
            Allocation::Lifo => "lifo",
            Allocation::MinWrite => "min-write",
        }
    }
}

impl std::str::FromStr for Allocation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lifo" => Ok(Allocation::Lifo),
            "min-write" => Ok(Allocation::MinWrite),
            other => Err(format!(
                "unknown allocation policy `{other}` (lifo | min-write)"
            )),
        }
    }
}
