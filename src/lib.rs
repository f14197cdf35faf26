//! # rlim — Endurance management for resistive logic-in-memory computing
//!
//! Facade crate for the `rlim` workspace, a from-scratch Rust reproduction
//! of *"Endurance Management for Resistive Logic-In-Memory Computing
//! Architectures"* (Shirinzadeh et al., DATE 2017).
//!
//! The workspace re-exported here contains:
//!
//! * [`mig`] — Majority-Inverter Graph substrate plus the paper's rewriting
//!   algorithms (Algorithm 1 = baseline PLiM-compiler schedule, Algorithm 2
//!   = endurance-aware schedule).
//! * [`rram`] — RRAM cell, crossbar array, write-traffic statistics and
//!   lifetime model.
//! * [`isa`] — the generic logic-in-memory ISA abstraction: the `Isa`
//!   trait and the shared `Program<I>` container every backend's write
//!   accounting flows through.
//! * [`plim`] — the Programmable Logic-in-Memory machine: `RM3` instruction
//!   set and executor.
//! * [`compiler`] — the paper's contribution as a pass-pipeline compiler
//!   (rewrite → schedule → translate → peephole → finalize) with its
//!   allocation policies (LIFO / minimum-write / maximum-write),
//!   node-selection policies (topological / area-aware /
//!   endurance-aware), and the generic `Backend` trait unifying the RM3,
//!   hosted-RM3 and IMPLY flows.
//! * [`imp`] — material-implication (IMPLY) logic-in-memory baseline: the
//!   §II comparison point whose writes concentrate on work devices.
//! * [`benchmarks`] — generators for the 18-benchmark evaluation suite.
//! * [`service`] — the typed job/report front end: a [`JobSpec`] built
//!   with a fluent builder goes in, a structured [`Report`] (with a
//!   stable JSON serialization) comes out. The CLI, the daemon and the
//!   evaluation binaries are thin clients of this API.
//! * [`daemon`] — `rlimd`, the concurrent compile-job daemon: a JSON-lines
//!   TCP protocol over the service API with a bounded admission queue, a
//!   worker pool, a structural-hash compile cache and graceful shutdown
//!   (`rlim serve` / `rlim report --remote`).
//!
//! ## Quickstart
//!
//! Describe the job — circuit, backend, policy — and let the service
//! compile it into a structured report:
//!
//! ```
//! use rlim::compiler::CompileOptions;
//! use rlim::mig::Mig;
//! use rlim::{JobSpec, Service};
//!
//! // Build a 2-bit adder.
//! let mut mig = Mig::new(4);
//! let [a0, a1, b0, b1] = [mig.input(0), mig.input(1), mig.input(2), mig.input(3)];
//! let (s0, c0) = mig.half_adder(a0, b0);
//! let (s1, c1) = mig.full_adder(a1, b1, c0);
//! mig.add_output(s0);
//! mig.add_output(s1);
//! mig.add_output(c1);
//!
//! // Submit it with full endurance management.
//! let spec = JobSpec::mig(mig).with_options(CompileOptions::endurance_aware());
//! let report = Service::new().run(&spec)?;
//! assert!(report.writes.max >= 1);
//! assert_eq!(report.writes.cells, report.rrams);
//! assert!(report.lifetime.single_array_runs > 0);
//! # Ok::<(), rlim::Error>(())
//! ```
//!
//! Named benchmarks, BLIF files on disk, backend selection and batches
//! work the same way — see [`service`] for the full surface:
//!
//! ```
//! use rlim::benchmarks::Benchmark;
//! use rlim::{JobSpec, Service};
//!
//! let reports = Service::new().run_batch(&[
//!     JobSpec::benchmark(Benchmark::Int2float),
//!     JobSpec::benchmark(Benchmark::Ctrl),
//! ])?;
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[0].label, "int2float");
//! # Ok::<(), rlim::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rlim_benchmarks as benchmarks;
pub use rlim_compiler as compiler;
pub use rlim_daemon as daemon;
pub use rlim_imp as imp;
pub use rlim_isa as isa;
pub use rlim_mig as mig;
pub use rlim_plim as plim;
pub use rlim_rram as rram;
pub use rlim_service as service;

pub use rlim_service::{BackendKind, Error, FleetSpec, JobSpec, Report, Service};
