//! The `.plim` listing writer: byte-equal to the per-operand formatter
//! it replaced, and parsed back to the program it came from, on every
//! benchmark.

use std::fmt::Write as _;

use rlim::benchmarks::Benchmark;
use rlim::compiler::{Backend, CompileOptions, Rm3Backend};
use rlim::plim::parallel::parallel_map;
use rlim::plim::{asm, Operand, Program};

/// The listing as `asm::to_text` wrote it before it wrote straight into
/// one presized buffer: a `writeln!` per instruction and a `String` per
/// operand.
fn to_text_by_writeln(program: &Program) -> String {
    fn operand_text(op: Operand) -> String {
        match op {
            Operand::Const(false) => "0".into(),
            Operand::Const(true) => "1".into(),
            Operand::Cell(c) => format!("r{}", c.index()),
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, ".cells {}", program.num_cells);
    let _ = write!(out, ".inputs");
    for c in &program.input_cells {
        let _ = write!(out, " r{}", c.index());
    }
    out.push('\n');
    let _ = write!(out, ".outputs");
    for c in &program.output_cells {
        let _ = write!(out, " r{}", c.index());
    }
    out.push('\n');
    for inst in &program.instructions {
        let _ = writeln!(
            out,
            "RM3 {} {} r{}",
            operand_text(inst.p),
            operand_text(inst.q),
            inst.z.index()
        );
    }
    out
}

#[test]
fn listing_equals_the_writeln_formatter_and_round_trips() {
    let jobs: Vec<(Benchmark, &str)> = Benchmark::all()
        .iter()
        .flat_map(|&b| ["naive", "endurance-aware"].map(|preset| (b, preset)))
        .collect();
    parallel_map(jobs, 0, |(b, preset)| {
        let options = CompileOptions::preset(preset).expect("canonical preset");
        let program = Rm3Backend.compile(&b.build(), &options);
        let text = asm::to_text(&program);
        assert_eq!(text, to_text_by_writeln(&program), "{} {preset}", b.name());
        assert_eq!(
            asm::parse_text(&text).as_ref(),
            Ok(&program),
            "{} {preset}",
            b.name()
        );
    });
}
