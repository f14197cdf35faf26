//! Textual PLiM assembly: a stable, human-editable serialisation of
//! [`Program`] with a full parse/print round trip.
//!
//! ```text
//! ; anything after a semicolon is a comment
//! .cells 6
//! .inputs r0 r1 r2
//! .outputs r4 r5
//! RM3 r0 1 r4        ; Z ← ⟨P, Q̄, Z⟩ — operands are cells (rN) or 0/1
//! RM3 0 r1 r5
//! ```
//!
//! The format exists so compiled programs can be stored, diffed and fed
//! back to the [`Machine`](crate::Machine) without the compiler — the
//! artefact a real PLiM toolchain would hand to its loader.

use std::str::FromStr;

use rlim_rram::CellId;

use crate::isa::{Instruction, Operand, Program};

/// Serialises a program to PLiM assembly text.
///
/// # Examples
///
/// ```
/// use rlim_plim::{asm, Instruction, Operand, Program};
/// use rlim_rram::CellId;
///
/// let program = Program {
///     instructions: vec![Instruction {
///         p: Operand::Cell(CellId::new(0)),
///         q: Operand::Const(false),
///         z: CellId::new(1),
///     }],
///     num_cells: 2,
///     input_cells: vec![CellId::new(0)],
///     output_cells: vec![CellId::new(1)],
/// };
/// let text = asm::to_text(&program);
/// let parsed = asm::parse_text(&text)?;
/// assert_eq!(parsed, program);
/// # Ok::<(), asm::ParseAsmError>(())
/// ```
pub fn to_text(program: &Program) -> String {
    // The exact length, so the listing is written into one allocation.
    let cell = |c: CellId| 1 + digits(c.index());
    let cells = |cells: &[CellId]| cells.iter().map(|&c| 1 + cell(c)).sum::<usize>();
    let operand = |op: Operand| match op {
        Operand::Const(_) => 1,
        Operand::Cell(c) => cell(c),
    };
    let len = ".cells \n.inputs\n.outputs\n".len()
        + digits(program.num_cells)
        + cells(&program.input_cells)
        + cells(&program.output_cells)
        + program
            .instructions
            .iter()
            .map(|inst| "RM3   \n".len() + operand(inst.p) + operand(inst.q) + cell(inst.z))
            .sum::<usize>();
    let mut out = String::with_capacity(len);
    out.push_str(".cells ");
    push_number(&mut out, program.num_cells);
    out.push_str("\n.inputs");
    for &c in &program.input_cells {
        out.push(' ');
        push_cell(&mut out, c);
    }
    out.push_str("\n.outputs");
    for &c in &program.output_cells {
        out.push(' ');
        push_cell(&mut out, c);
    }
    out.push('\n');
    for inst in &program.instructions {
        out.push_str("RM3 ");
        push_operand(&mut out, inst.p);
        out.push(' ');
        push_operand(&mut out, inst.q);
        out.push(' ');
        push_cell(&mut out, inst.z);
        out.push('\n');
    }
    debug_assert_eq!(out.len(), len, "the listing fills its presized buffer");
    out
}

/// Decimal digits of `n`.
fn digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

fn push_number(out: &mut String, mut n: usize) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
}

fn push_cell(out: &mut String, cell: CellId) {
    out.push('r');
    push_number(out, cell.index());
}

fn push_operand(out: &mut String, op: Operand) {
    match op {
        Operand::Const(false) => out.push('0'),
        Operand::Const(true) => out.push('1'),
        Operand::Cell(c) => push_cell(out, c),
    }
}

/// Error from [`parse_text`], with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based line number of the offending text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

/// Parses PLiM assembly text back into a [`Program`].
///
/// Accepts blank lines and `;` comments. Directives may appear in any
/// order but at most once; instructions keep their textual order.
///
/// # Errors
///
/// Returns a [`ParseAsmError`] pointing at the first malformed line,
/// duplicate directive, or missing `.cells` header. Cell ranges are *not*
/// checked here — use [`Program::validate`] on the result.
pub fn parse_text(text: &str) -> Result<Program, ParseAsmError> {
    let mut num_cells: Option<usize> = None;
    let mut input_cells: Option<Vec<CellId>> = None;
    let mut output_cells: Option<Vec<CellId>> = None;
    let mut instructions = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let err = |message: String| ParseAsmError {
            line: line_no,
            message,
        };
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("non-empty line has a token");
        match head {
            ".cells" => {
                if num_cells.is_some() {
                    return Err(err("duplicate .cells directive".into()));
                }
                let value = tokens
                    .next()
                    .ok_or_else(|| err(".cells needs a count".into()))?;
                let count =
                    usize::from_str(value).map_err(|_| err(format!("bad cell count `{value}`")))?;
                if tokens.next().is_some() {
                    return Err(err("trailing tokens after .cells".into()));
                }
                num_cells = Some(count);
            }
            ".inputs" | ".outputs" => {
                let slot = if head == ".inputs" {
                    &mut input_cells
                } else {
                    &mut output_cells
                };
                if slot.is_some() {
                    return Err(err(format!("duplicate {head} directive")));
                }
                let cells = tokens
                    .map(|t| parse_cell(t).map_err(&err))
                    .collect::<Result<Vec<CellId>, _>>()?;
                *slot = Some(cells);
            }
            "RM3" => {
                let mut operand = |role: &str| {
                    tokens
                        .next()
                        .ok_or_else(|| err(format!("RM3 missing {role} operand")))
                };
                let p = parse_operand(operand("P")?).map_err(&err)?;
                let q = parse_operand(operand("Q")?).map_err(&err)?;
                let z = parse_cell(operand("Z")?).map_err(&err)?;
                if tokens.next().is_some() {
                    return Err(err("trailing tokens after RM3".into()));
                }
                instructions.push(Instruction { p, q, z });
            }
            other => return Err(err(format!("unknown directive `{other}`"))),
        }
    }

    Ok(Program {
        instructions,
        num_cells: num_cells.ok_or(ParseAsmError {
            line: text.lines().count().max(1),
            message: "missing .cells directive".into(),
        })?,
        input_cells: input_cells.unwrap_or_default(),
        output_cells: output_cells.unwrap_or_default(),
    })
}

fn parse_cell(token: &str) -> Result<CellId, String> {
    let digits = token
        .strip_prefix('r')
        .ok_or_else(|| format!("expected cell `rN`, got `{token}`"))?;
    let index = u32::from_str(digits).map_err(|_| format!("bad cell index `{token}`"))?;
    Ok(CellId::new(index))
}

fn parse_operand(token: &str) -> Result<Operand, String> {
    match token {
        "0" => Ok(Operand::Const(false)),
        "1" => Ok(Operand::Const(true)),
        _ => parse_cell(token).map(Operand::Cell),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program {
            instructions: vec![
                Instruction {
                    p: Operand::Const(true),
                    q: Operand::Const(false),
                    z: CellId::new(3),
                },
                Instruction {
                    p: Operand::Cell(CellId::new(0)),
                    q: Operand::Cell(CellId::new(1)),
                    z: CellId::new(3),
                },
            ],
            num_cells: 4,
            input_cells: vec![CellId::new(0), CellId::new(1), CellId::new(2)],
            output_cells: vec![CellId::new(3)],
        }
    }

    #[test]
    fn round_trip() {
        let program = sample();
        let text = to_text(&program);
        let parsed = parse_text(&text).expect("parses");
        assert_eq!(parsed, program);
        assert_eq!(parsed.validate(), Ok(()));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n; header comment\n.cells 2\n.inputs r0\n.outputs r1\n\nRM3 r0 0 r1 ; trailing comment\n";
        let program = parse_text(text).expect("parses");
        assert_eq!(program.num_cells, 2);
        assert_eq!(program.instructions.len(), 1);
    }

    #[test]
    fn directives_in_any_order() {
        let text = ".outputs r1\nRM3 r0 0 r1\n.inputs r0\n.cells 2\n";
        let program = parse_text(text).expect("parses");
        assert_eq!(program.input_cells, vec![CellId::new(0)]);
        // Instruction order is preserved regardless of directive placement.
        assert_eq!(program.instructions.len(), 1);
    }

    #[test]
    fn missing_cells_directive_is_an_error() {
        let e = parse_text(".inputs r0\n").expect_err("no .cells");
        assert!(e.message.contains(".cells"), "{e}");
    }

    #[test]
    fn duplicate_directive_is_an_error() {
        let e = parse_text(".cells 1\n.cells 2\n").expect_err("duplicate");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn malformed_operand_reports_line() {
        let e = parse_text(".cells 2\nRM3 x0 0 r1\n").expect_err("bad operand");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("x0"), "{e}");
    }

    #[test]
    fn missing_operand_reports_role() {
        let e = parse_text(".cells 2\nRM3 r0 0\n").expect_err("missing Z");
        assert!(e.message.contains('Z'), "{e}");
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = parse_text(".cells 1\nNOP\n").expect_err("unknown");
        assert!(e.message.contains("NOP"), "{e}");
    }

    #[test]
    fn parsed_program_executes() {
        use crate::machine::Machine;
        // out ← ⟨a, b̄, 0-initialised cell⟩ with a=1, b=0 → ⟨1,1,0⟩ = 1.
        let text = ".cells 3\n.inputs r0 r1\n.outputs r2\nRM3 0 1 r2\nRM3 r0 r1 r2\n";
        let program = parse_text(text).expect("parses");
        let mut machine = Machine::for_program(&program);
        let out = machine.run(&program, &[true, false]).expect("runs");
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn error_display_includes_line() {
        let e = ParseAsmError {
            line: 7,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "line 7: boom");
    }
}
