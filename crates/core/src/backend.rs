//! The generic backend layer: one compile-and-execute interface for every
//! in-memory computing style.
//!
//! A [`Backend`] turns an MIG into a [`Program`] over its own
//! [`Isa`] and executes such programs against its machine model. Three
//! backends cover the paper's comparison space:
//!
//! * [`Rm3Backend`] — the PLiM/RM3 flow through the standard pass
//!   pipeline, executed on the external `Machine`;
//! * [`HostedRm3Backend`] — the same programs, self-hosted in the
//!   crossbar and driven by the `Controller` FSM (paper §III-A2);
//! * [`WideRm3Backend`] — the same programs again, executed bit-parallel
//!   on the word-level `WideMachine` (one `u64` word per cell, up to 64
//!   input vectors per instruction, wear accounted per logical write);
//! * [`ImpBackend`] — the material-implication NAND-synthesis baseline
//!   (paper §II), executed on the `ImpMachine`.
//!
//! Everything downstream — the differential oracle, the evaluation
//! binaries, the CLI — talks to backends through this trait, so the
//! RM3-vs-IMPLY comparison is a like-for-like run through shared
//! infrastructure.

use rlim_imp::{synthesize, ImpAllocation, ImpMachine, ImpOp, ImpSynthOptions};
use rlim_isa::{Isa, Program};
use rlim_mig::Mig;
use rlim_plim::{Controller, Instruction, Machine, WideMachine};
use rlim_rram::WriteFault;

use crate::frontend::{FrontEnd, FrontKey};
use crate::options::{Allocation, CompileOptions};
use crate::peephole::elide_dead_writes;

/// A complete compile-and-execute backend for one instruction set.
///
/// # Examples
///
/// Every backend computes the same function from the same options:
///
/// ```
/// use rlim_compiler::{Backend, CompileOptions, ImpBackend, Rm3Backend};
/// use rlim_mig::Mig;
///
/// let mut mig = Mig::new(2);
/// let (a, b) = (mig.input(0), mig.input(1));
/// let g = mig.xor(a, b);
/// mig.add_output(g);
///
/// let options = CompileOptions::naive();
/// let rm3 = Rm3Backend.compile(&mig, &options);
/// let imp = ImpBackend.compile(&mig, &options);
/// for inputs in [[false, true], [true, true]] {
///     assert_eq!(
///         Rm3Backend.execute(&rm3, &inputs).unwrap(),
///         ImpBackend.execute(&imp, &inputs).unwrap(),
///     );
/// }
/// ```
pub trait Backend {
    /// The backend's instruction set.
    type Instr: Isa;

    /// Short backend label used in reports and failure messages.
    const NAME: &'static str;

    /// Compiles `mig` into a program under the shared options (each
    /// backend interprets the applicable subset: rewriting and allocation
    /// apply everywhere; selection and the write budget are RM3 pipeline
    /// stages). This is [`Backend::compile_front`] on a fresh
    /// [`FrontEnd`].
    fn compile(&self, mig: &Mig, options: &CompileOptions) -> Program<Self::Instr> {
        self.compile_front(&FrontEnd::build(mig, FrontKey::of(options)), options)
    }

    /// Compiles from an already rewritten front end (see
    /// [`crate::compile_front`]), so configurations that differ only in
    /// back-end options share one rewrite and one schedule per selection
    /// policy.
    fn compile_front(&self, front: &FrontEnd, options: &CompileOptions) -> Program<Self::Instr>;

    /// Executes `program` on this backend's machine model, returning the
    /// primary outputs.
    ///
    /// # Errors
    ///
    /// Returns a [`WriteFault`] if an endurance-limited execution wears
    /// out a cell, or — on a fault-injected crossbar — if write-verify
    /// readback catches a stuck-at cell.
    fn execute(
        &self,
        program: &Program<Self::Instr>,
        inputs: &[bool],
    ) -> Result<Vec<bool>, WriteFault>;
}

/// The PLiM/RM3 flow: the standard pass pipeline plus the external
/// machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rm3Backend;

impl Backend for Rm3Backend {
    type Instr = Instruction;
    const NAME: &'static str = "rm3";

    fn compile_front(&self, front: &FrontEnd, options: &CompileOptions) -> Program<Instruction> {
        crate::compile_front(front, options).program
    }

    fn execute(
        &self,
        program: &Program<Instruction>,
        inputs: &[bool],
    ) -> Result<Vec<bool>, WriteFault> {
        Machine::for_program(program).run(program, inputs)
    }
}

/// The self-hosted PLiM computer: identical programs to [`Rm3Backend`],
/// but encoded into the crossbar and executed by the controller FSM.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostedRm3Backend;

impl Backend for HostedRm3Backend {
    type Instr = Instruction;
    const NAME: &'static str = "hosted-rm3";

    fn compile_front(&self, front: &FrontEnd, options: &CompileOptions) -> Program<Instruction> {
        Rm3Backend.compile_front(front, options)
    }

    fn execute(
        &self,
        program: &Program<Instruction>,
        inputs: &[bool],
    ) -> Result<Vec<bool>, WriteFault> {
        Ok(Controller::host(program)?.run(inputs)?)
    }
}

/// The word-level PLiM flow: identical programs to [`Rm3Backend`],
/// executed bit-parallel on the [`WideMachine`] — the [`Backend`]
/// interface runs one lane per call, and [`WideRm3Backend::execute_many`]
/// packs whole pattern batches 64 to the word.
#[derive(Debug, Clone, Copy, Default)]
pub struct WideRm3Backend;

impl WideRm3Backend {
    /// Executes `program` once per input vector, packed into word-level
    /// passes of up to 64 lanes, returning each vector's primary outputs
    /// in order. One RM3 instruction advances a full chunk, so this is
    /// the high-throughput path the fleet's SIMD dispatch builds on.
    ///
    /// # Panics
    ///
    /// Panics if an input vector does not match the program's interface.
    pub fn execute_many(
        &self,
        program: &Program<Instruction>,
        input_vectors: &[&[bool]],
    ) -> Vec<Vec<bool>> {
        let mut outputs = Vec::with_capacity(input_vectors.len());
        for chunk in input_vectors.chunks(64) {
            outputs.extend(rlim_plim::run_once_wide(program, chunk).0);
        }
        outputs
    }
}

impl Backend for WideRm3Backend {
    type Instr = Instruction;
    const NAME: &'static str = "rm3-wide";

    fn compile_front(&self, front: &FrontEnd, options: &CompileOptions) -> Program<Instruction> {
        Rm3Backend.compile_front(front, options)
    }

    fn execute(
        &self,
        program: &Program<Instruction>,
        inputs: &[bool],
    ) -> Result<Vec<bool>, WriteFault> {
        let mut machine = WideMachine::for_program(program, 1);
        let mut outputs = machine.run(program, &[inputs])?;
        Ok(outputs.swap_remove(0))
    }
}

/// The material-implication baseline: NAND synthesis over the (optionally
/// rewritten) graph, executed on the IMPLY machine.
///
/// Of the [`CompileOptions`], IMPLY synthesis honours:
///
/// * `rewriting` and `effort`: the graph is rewritten first, as for RM3;
/// * `allocation`: LIFO or minimum-write cell reuse;
/// * `peephole`: the ISA-generic dead-write elision.
///
/// It ignores `selection` (gates are synthesised in index order),
/// `max_writes` (no cell is retired, so the report's `max` can exceed
/// the cap), `copy_reuse` and `esat` with its budgets. A report still
/// echoes every option it was given: `rlim report div --backend imp
/// --max-writes 20 --json` shows `"max_writes": 20` beside `"max": 1609`.
/// Such specs are accepted, not rejected, because a client may send one
/// option set to every backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImpBackend;

impl Backend for ImpBackend {
    type Instr = ImpOp;
    const NAME: &'static str = "imp";

    fn compile_front(&self, front: &FrontEnd, options: &CompileOptions) -> Program<ImpOp> {
        assert!(
            front.serves(options),
            "a front end compiles only the rewriting it was built with"
        );
        let allocation = match options.allocation {
            Allocation::Lifo => ImpAllocation::Lifo,
            Allocation::MinWrite => ImpAllocation::MinWrite,
        };
        let mut program = synthesize(front.graph(), &ImpSynthOptions { allocation });
        if options.peephole {
            // IMPLY has no redundant-set recipes to fold, but the generic
            // dead-write elision applies to any ISA.
            elide_dead_writes(&mut program);
        }
        program
    }

    fn execute(&self, program: &Program<ImpOp>, inputs: &[bool]) -> Result<Vec<bool>, WriteFault> {
        Ok(ImpMachine::for_program(program).run(program, inputs)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_mig::random::{generate, RandomMigConfig};

    fn sample_mig(seed: u64) -> Mig {
        generate(
            &RandomMigConfig {
                inputs: 6,
                outputs: 4,
                gates: 60,
                ..Default::default()
            },
            seed,
        )
    }

    /// All three backends agree with the golden MIG evaluation on every
    /// pattern of a few random graphs.
    #[test]
    fn backends_agree_with_the_mig() {
        for seed in 0..3 {
            let mig = sample_mig(seed);
            let options = CompileOptions::naive();
            let rm3 = Rm3Backend.compile(&mig, &options);
            let hosted = HostedRm3Backend.compile(&mig, &options);
            let imp = ImpBackend.compile(&mig, &options);
            assert_eq!(rm3, hosted, "hosted backend compiles the same program");
            for pattern in 0..(1u32 << mig.num_inputs()) {
                let inputs: Vec<bool> = (0..mig.num_inputs())
                    .map(|i| (pattern >> i) & 1 == 1)
                    .collect();
                let expect = mig.evaluate(&inputs);
                assert_eq!(Rm3Backend.execute(&rm3, &inputs).unwrap(), expect);
                assert_eq!(HostedRm3Backend.execute(&hosted, &inputs).unwrap(), expect);
                assert_eq!(ImpBackend.execute(&imp, &inputs).unwrap(), expect);
            }
        }
    }

    /// The wide backend compiles the identical program and agrees with the
    /// scalar machine pattern by pattern, one lane or many.
    #[test]
    fn wide_backend_matches_scalar_lane_by_lane() {
        let mig = sample_mig(11);
        let options = CompileOptions::endurance_aware().with_effort(1);
        let program = WideRm3Backend.compile(&mig, &options);
        assert_eq!(program, Rm3Backend.compile(&mig, &options));
        let patterns: Vec<Vec<bool>> = (0..(1u32 << mig.num_inputs()))
            .map(|pattern| {
                (0..mig.num_inputs())
                    .map(|i| (pattern >> i) & 1 == 1)
                    .collect()
            })
            .collect();
        let vectors: Vec<&[bool]> = patterns.iter().map(Vec::as_slice).collect();
        let packed = WideRm3Backend.execute_many(&program, &vectors);
        assert_eq!(packed.len(), vectors.len());
        for (inputs, wide_out) in vectors.iter().zip(&packed) {
            let expect = Rm3Backend.execute(&program, inputs).unwrap();
            assert_eq!(wide_out, &expect);
            assert_eq!(WideRm3Backend.execute(&program, inputs).unwrap(), expect);
        }
    }

    /// The IMP backend maps the shared options onto its allocation policy
    /// and matches the direct synthesis entry point.
    #[test]
    fn imp_backend_matches_direct_synthesis() {
        let mig = sample_mig(7);
        let via_backend = ImpBackend.compile(&mig, &CompileOptions::naive());
        let direct = synthesize(&mig, &ImpSynthOptions::lifo());
        assert_eq!(via_backend, direct);

        let min_write_options = CompileOptions {
            allocation: Allocation::MinWrite,
            ..CompileOptions::naive()
        };
        let via_backend = ImpBackend.compile(&mig, &min_write_options);
        let direct = synthesize(&mig, &ImpSynthOptions::min_write());
        assert_eq!(via_backend, direct);
    }

    /// Rewriting flows into IMP synthesis through the shared options.
    #[test]
    fn imp_backend_applies_rewriting() {
        let mig = sample_mig(9);
        let rewritten = ImpBackend.compile(&mig, &CompileOptions::endurance_aware());
        let raw = ImpBackend.compile(&mig, &CompileOptions::naive());
        // Same function either way (spot-checked), usually different code.
        let inputs = vec![true; mig.num_inputs()];
        assert_eq!(
            ImpBackend.execute(&rewritten, &inputs).unwrap(),
            ImpBackend.execute(&raw, &inputs).unwrap(),
        );
    }
}
