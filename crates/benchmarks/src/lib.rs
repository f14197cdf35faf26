//! Benchmark circuits for the DATE 2017 endurance-management evaluation.
//!
//! The paper evaluates on 18 functions from the EPFL combinational
//! benchmark suite — large arithmetic blocks plus random-control logic,
//! spanning up to 1204 primary inputs and 1231 primary outputs. This crate
//! regenerates that suite:
//!
//! * **Exact circuits** (true datapaths, built gate by gate): `adder`,
//!   `bar`, `div`, `max`, `multiplier`, `sqrt`, `square`, `dec`,
//!   `int2float`, `priority`, `voter`.
//! * **Profile-matched synthetic circuits** (seeded layered random MIGs
//!   with the paper's PI/PO interface; see [`synthetic`]):
//!   `log2`, `sin`, `cavlc`, `ctrl`, `i2c`, `mem_ctrl`, `router`.
//!
//! The [`Benchmark`] enum is the main entry point:
//!
//! ```
//! use rlim_benchmarks::Benchmark;
//!
//! let mig = Benchmark::Adder.build();
//! assert_eq!(mig.num_inputs(), 256);
//! assert_eq!(mig.num_outputs(), 129);
//! assert_eq!(Benchmark::all().len(), 18);
//! ```

#![warn(missing_docs)]

pub mod arith;
pub mod misc;
pub mod synthetic;
pub mod words;

use std::fmt;
use std::str::FromStr;

use rlim_mig::Mig;

/// One of the paper's 18 benchmark functions, in Table I row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Benchmark {
    /// 128-bit ripple-carry adder (256 PI / 129 PO).
    Adder,
    /// 128-bit barrel rotator (135 PI / 128 PO).
    Bar,
    /// 64/64 restoring divider (128 PI / 128 PO).
    Div,
    /// Synthetic `log2` stand-in (32 PI / 32 PO).
    Log2,
    /// Four-way 128-bit maximum (512 PI / 130 PO).
    Max,
    /// 64×64 array multiplier (128 PI / 128 PO).
    Multiplier,
    /// Synthetic `sin` stand-in (24 PI / 25 PO).
    Sin,
    /// 128-bit-radicand square root (128 PI / 64 PO).
    Sqrt,
    /// 64-bit squarer (64 PI / 128 PO).
    Square,
    /// Synthetic `cavlc` stand-in (10 PI / 11 PO).
    Cavlc,
    /// Synthetic `ctrl` stand-in (7 PI / 26 PO).
    Ctrl,
    /// 8→256 address decoder (8 PI / 256 PO).
    Dec,
    /// Synthetic `i2c` stand-in (147 PI / 142 PO).
    I2c,
    /// 11-bit integer to 7-bit float converter (11 PI / 7 PO).
    Int2float,
    /// Synthetic `mem_ctrl` stand-in (1204 PI / 1231 PO).
    MemCtrl,
    /// 128-way priority encoder (128 PI / 8 PO).
    Priority,
    /// Synthetic `router` stand-in (60 PI / 30 PO).
    Router,
    /// 1001-input majority voter (1001 PI / 1 PO).
    Voter,
}

impl Benchmark {
    /// All 18 benchmarks in the paper's Table I order (arithmetic block
    /// first, then the random-control block).
    pub fn all() -> &'static [Benchmark] {
        use Benchmark::*;
        &[
            Adder, Bar, Div, Log2, Max, Multiplier, Sin, Sqrt, Square, Cavlc, Ctrl, Dec, I2c,
            Int2float, MemCtrl, Priority, Router, Voter,
        ]
    }

    /// The arithmetic half of the suite (Table I's upper block).
    pub fn arithmetic() -> &'static [Benchmark] {
        use Benchmark::*;
        &[Adder, Bar, Div, Log2, Max, Multiplier, Sin, Sqrt, Square]
    }

    /// The random-control half of the suite (Table I's lower block).
    pub fn control() -> &'static [Benchmark] {
        use Benchmark::*;
        &[
            Cavlc, Ctrl, Dec, I2c, Int2float, MemCtrl, Priority, Router, Voter,
        ]
    }

    /// A small subset that compiles in milliseconds — used by tests and
    /// the table binaries' `--quick` runs that sweep the whole pipeline.
    pub fn small() -> &'static [Benchmark] {
        use Benchmark::*;
        &[Cavlc, Ctrl, Dec, Int2float, Priority, Router]
    }

    /// The benchmark's name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Adder => "adder",
            Benchmark::Bar => "bar",
            Benchmark::Div => "div",
            Benchmark::Log2 => "log2",
            Benchmark::Max => "max",
            Benchmark::Multiplier => "multiplier",
            Benchmark::Sin => "sin",
            Benchmark::Sqrt => "sqrt",
            Benchmark::Square => "square",
            Benchmark::Cavlc => "cavlc",
            Benchmark::Ctrl => "ctrl",
            Benchmark::Dec => "dec",
            Benchmark::I2c => "i2c",
            Benchmark::Int2float => "int2float",
            Benchmark::MemCtrl => "mem_ctrl",
            Benchmark::Priority => "priority",
            Benchmark::Router => "router",
            Benchmark::Voter => "voter",
        }
    }

    /// `(primary inputs, primary outputs)` as listed in the paper.
    pub fn interface(self) -> (usize, usize) {
        match self {
            Benchmark::Adder => (256, 129),
            Benchmark::Bar => (135, 128),
            Benchmark::Div => (128, 128),
            Benchmark::Log2 => (32, 32),
            Benchmark::Max => (512, 130),
            Benchmark::Multiplier => (128, 128),
            Benchmark::Sin => (24, 25),
            Benchmark::Sqrt => (128, 64),
            Benchmark::Square => (64, 128),
            Benchmark::Cavlc => (10, 11),
            Benchmark::Ctrl => (7, 26),
            Benchmark::Dec => (8, 256),
            Benchmark::I2c => (147, 142),
            Benchmark::Int2float => (11, 7),
            Benchmark::MemCtrl => (1204, 1231),
            Benchmark::Priority => (128, 8),
            Benchmark::Router => (60, 30),
            Benchmark::Voter => (1001, 1),
        }
    }

    /// Whether this benchmark is an exact functional circuit (`true`) or a
    /// profile-matched synthetic stand-in (`false`); see [`synthetic`].
    pub fn is_exact(self) -> bool {
        !matches!(
            self,
            Benchmark::Log2
                | Benchmark::Sin
                | Benchmark::Cavlc
                | Benchmark::Ctrl
                | Benchmark::I2c
                | Benchmark::MemCtrl
                | Benchmark::Router
        )
    }

    /// Builds the benchmark's MIG. Deterministic: repeated calls return
    /// structurally identical graphs.
    pub fn build(self) -> Mig {
        match self {
            Benchmark::Adder => arith::adder(),
            Benchmark::Bar => misc::bar(),
            Benchmark::Div => arith::div(),
            Benchmark::Log2 => synthetic::log2(),
            Benchmark::Max => misc::max(),
            Benchmark::Multiplier => arith::multiplier(),
            Benchmark::Sin => synthetic::sin(),
            Benchmark::Sqrt => arith::sqrt(),
            Benchmark::Square => arith::square(),
            Benchmark::Cavlc => synthetic::cavlc(),
            Benchmark::Ctrl => synthetic::ctrl(),
            Benchmark::Dec => misc::dec(),
            Benchmark::I2c => synthetic::i2c(),
            Benchmark::Int2float => misc::int2float(),
            Benchmark::MemCtrl => synthetic::mem_ctrl(),
            Benchmark::Priority => misc::priority(),
            Benchmark::Router => synthetic::router(),
            Benchmark::Voter => misc::voter(),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown benchmark name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError {
    name: String,
}

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark name `{}`", self.name)
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Benchmark::all()
            .iter()
            .copied()
            .find(|b| b.name() == s)
            .ok_or_else(|| ParseBenchmarkError { name: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_benchmarks_partitioned() {
        assert_eq!(Benchmark::all().len(), 18);
        assert_eq!(Benchmark::arithmetic().len(), 9);
        assert_eq!(Benchmark::control().len(), 9);
        let mut joined: Vec<_> = Benchmark::arithmetic()
            .iter()
            .chain(Benchmark::control())
            .copied()
            .collect();
        joined.sort();
        let mut all: Vec<_> = Benchmark::all().to_vec();
        all.sort();
        assert_eq!(joined, all);
    }

    #[test]
    fn small_benchmarks_build_with_paper_interface() {
        for &b in Benchmark::small() {
            let mig = b.build();
            let (pi, po) = b.interface();
            assert_eq!(mig.num_inputs(), pi, "{b} PI");
            assert_eq!(mig.num_outputs(), po, "{b} PO");
        }
    }

    #[test]
    fn names_round_trip() {
        for &b in Benchmark::all() {
            assert_eq!(b.name().parse::<Benchmark>(), Ok(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert!("nonesuch".parse::<Benchmark>().is_err());
    }

    #[test]
    fn exact_flag_matches_module() {
        let exact: Vec<_> = Benchmark::all().iter().filter(|b| b.is_exact()).collect();
        assert_eq!(exact.len(), 11);
        assert!(Benchmark::Adder.is_exact());
        assert!(!Benchmark::MemCtrl.is_exact());
    }
}
