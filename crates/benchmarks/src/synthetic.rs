//! Profile-matched synthetic stand-ins for the EPFL random-control
//! benchmarks: `log2`, `sin`, `cavlc`, `ctrl`, `i2c`, `mem_ctrl`, `router`.
//!
//! The original circuit files are not redistributable offline, so these
//! generators produce seeded layered random MIGs with the **same PI/PO
//! interface** as the paper's Table I and a size profile tuned so the
//! *naive* compiled instruction count lands in the neighbourhood of the
//! paper's Table II column. The paper's endurance claims concern the
//! write-traffic *shape* induced by MIG structure (complemented-edge
//! density, fanout level spread, blocked cells), which is exactly what the
//! layered generator controls; the Boolean function itself is immaterial
//! for those claims.
//!
//! Every generator is deterministic: a fixed per-benchmark seed makes
//! `log2()` always return the same graph, like loading a file from disk.

use rlim_mig::random::{generate, RandomMigConfig};
use rlim_mig::Mig;

/// Shape profile for one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticProfile {
    /// Benchmark name (matches the paper's Table I row).
    pub name: &'static str,
    /// Fixed generation seed — part of the benchmark's identity.
    pub seed: u64,
    /// Generator shape parameters.
    pub config: RandomMigConfig,
}

impl SyntheticProfile {
    /// Instantiates the benchmark MIG for this profile.
    pub fn build(&self) -> Mig {
        generate(&self.config, self.seed)
    }
}

// One argument per `RandomMigConfig` knob; bundling them would only move
// the noise to every call site.
#[allow(clippy::too_many_arguments)]
fn profile(
    name: &'static str,
    seed: u64,
    inputs: usize,
    outputs: usize,
    gates: usize,
    complement_prob: f64,
    long_edge_prob: f64,
    window: usize,
) -> SyntheticProfile {
    SyntheticProfile {
        name,
        seed,
        config: RandomMigConfig {
            inputs,
            outputs,
            gates,
            complement_prob,
            long_edge_prob,
            window,
            constant_prob: 0.22,
        },
    }
}

/// The seven synthetic profiles, in the paper's Table I order.
///
/// Interface counts (PI/PO) are the paper's; `gates` targets are tuned so
/// the naive-compiled instruction counts land near Table II.
pub fn profiles() -> Vec<SyntheticProfile> {
    vec![
        // log2 is the deepest arithmetic block in the suite: narrow window,
        // few long edges → tall graph with long-lived intermediates.
        profile("log2", 0x1092, 32, 32, 30_000, 0.32, 0.05, 40),
        profile("sin", 0x51f, 24, 25, 4_700, 0.32, 0.08, 32),
        // Control logic: wider, flatter, more complemented edges.
        profile("cavlc", 0xca71c, 10, 11, 730, 0.38, 0.2, 24),
        profile("ctrl", 0xc781, 7, 26, 190, 0.38, 0.2, 16),
        profile("i2c", 0x12c, 147, 142, 1_260, 0.36, 0.25, 48),
        // mem_ctrl: the giant — huge interface, wide body, many long edges
        // (the "blocked RRAM" pattern of paper Fig. 2 at scale).
        profile("mem_ctrl", 0x3e3c781, 1204, 1231, 43_000, 0.36, 0.3, 96),
        profile("router", 0x807e4, 60, 30, 190, 0.36, 0.2, 16),
    ]
}

/// Looks up a synthetic profile by name.
pub fn profile_by_name(name: &str) -> Option<SyntheticProfile> {
    profiles().into_iter().find(|p| p.name == name)
}

/// `log2` stand-in: 32 PI / 32 PO.
pub fn log2() -> Mig {
    build("log2")
}

/// `sin` stand-in: 24 PI / 25 PO.
pub fn sin() -> Mig {
    build("sin")
}

/// `cavlc` stand-in: 10 PI / 11 PO.
pub fn cavlc() -> Mig {
    build("cavlc")
}

/// `ctrl` stand-in: 7 PI / 26 PO.
pub fn ctrl() -> Mig {
    build("ctrl")
}

/// `i2c` stand-in: 147 PI / 142 PO.
pub fn i2c() -> Mig {
    build("i2c")
}

/// `mem_ctrl` stand-in: 1204 PI / 1231 PO.
pub fn mem_ctrl() -> Mig {
    build("mem_ctrl")
}

/// `router` stand-in: 60 PI / 30 PO.
pub fn router() -> Mig {
    build("router")
}

fn build(name: &str) -> Mig {
    profile_by_name(name)
        .unwrap_or_else(|| panic!("unknown synthetic profile {name}"))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interfaces_match_paper() {
        let expect = [
            ("log2", 32, 32),
            ("sin", 24, 25),
            ("cavlc", 10, 11),
            ("ctrl", 7, 26),
            ("i2c", 147, 142),
            ("mem_ctrl", 1204, 1231),
            ("router", 60, 30),
        ];
        for (name, pi, po) in expect {
            let p = profile_by_name(name).expect("profile exists");
            // Cheap check on the small ones; the giant ones are covered by
            // the config fields (generate() is tested to respect them).
            assert_eq!(p.config.inputs, pi, "{name} PI");
            assert_eq!(p.config.outputs, po, "{name} PO");
        }
    }

    #[test]
    fn small_profiles_build_deterministically() {
        for name in ["cavlc", "ctrl", "router", "sin"] {
            let a = build(name);
            let b = build(name);
            assert_eq!(a.num_gates(), b.num_gates(), "{name} deterministic");
            assert_eq!(a.outputs(), b.outputs(), "{name} deterministic outputs");
            let p = profile_by_name(name).unwrap();
            assert_eq!(a.num_inputs(), p.config.inputs);
            assert_eq!(a.num_outputs(), p.config.outputs);
            assert!(
                a.num_gates() as f64 >= p.config.gates as f64 * 0.8,
                "{name} reaches ≥80% of its gate target ({} of {})",
                a.num_gates(),
                p.config.gates
            );
        }
    }

    #[test]
    fn profiles_are_distinct() {
        let names: Vec<_> = profiles().iter().map(|p| p.name).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 7);
        assert_eq!(names, dedup);
    }

    #[test]
    fn unknown_profile_is_none() {
        assert!(profile_by_name("adder").is_none());
    }
}
