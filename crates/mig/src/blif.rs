//! BLIF (Berkeley Logic Interchange Format) import/export.
//!
//! The EPFL benchmark suite the paper evaluates on is distributed as BLIF
//! netlists; this module lets users bring those (or their own circuits)
//! into the flow and dump MIGs back out for other tools.
//!
//! Supported subset (combinational BLIF):
//!
//! * `.model`, `.inputs`, `.outputs`, `.names`, `.end`;
//! * `\` line continuations and `#` comments;
//! * single-output covers with `0`/`1`/`-` input literals and output
//!   polarity `1` (on-set) or `0` (off-set, complemented on read);
//! * constant covers (empty cube list = constant 0; a cover with no input
//!   columns and output `1` = constant 1).
//!
//! Sequential directives (`.latch`, `.subckt`, …) are rejected with a
//! descriptive error.
//!
//! On import, a 3-input `.names` whose truth table is a majority under
//! some per-column polarity becomes one majority gate over those literals;
//! that is how [`write_blif`] writes every gate, so a round trip gives back
//! the graph with its dead gates dropped, node for node. Every other cover
//! is synthesised as a sum-of-products over balanced AND/OR trees of
//! majority gates. Structural hashing and Ω.M simplification apply as
//! always, and the paper's rewriting passes can then optimise the result.

use std::collections::HashMap;
use std::fmt;

use crate::mig::Mig;
use crate::signal::Signal;

/// Error from [`parse_blif`], with the 1-based (logical) source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBlifError {
    /// 1-based line number (of the first physical line after continuation
    /// folding).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseBlifError {}

/// Writes an MIG as a BLIF netlist.
///
/// Majority gates are emitted as 3-input `.names` with the 4-cube
/// majority on-set; complemented edges are folded into the cover
/// literals, and complemented or constant outputs get buffer/constant
/// covers.
///
/// # Examples
///
/// ```
/// use rlim_mig::{blif, Mig};
///
/// let mut mig = Mig::new(2);
/// let (a, b) = (mig.input(0), mig.input(1));
/// let g = mig.and(a, b);
/// mig.add_output(g);
/// let text = blif::write_blif(&mig, "and2");
/// let back = blif::parse_blif(&text)?;
/// assert!(rlim_mig::equiv_random(&mig, &back, 8, 1).is_equal());
/// # Ok::<(), blif::ParseBlifError>(())
/// ```
pub fn write_blif(mig: &Mig, model: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {model}\n"));

    out.push_str(".inputs");
    for i in 0..mig.num_inputs() {
        out.push_str(&format!(" x{i}"));
    }
    out.push('\n');

    out.push_str(".outputs");
    for o in 0..mig.num_outputs() {
        out.push_str(&format!(" y{o}"));
    }
    out.push('\n');

    // Constant driver, if anything references it.
    let live = mig.live_mask();
    let uses_constant = mig
        .gates()
        .filter(|&g| live[g.index()])
        .flat_map(|g| mig.children(g))
        .chain(mig.outputs().iter().copied())
        .any(|s| s.is_constant());
    if uses_constant {
        // n0 = constant 0 (empty cover).
        out.push_str(".names n0\n");
    }

    let signal_name = |s: Signal| -> (String, bool) {
        // (wire name of the node, complemented?)
        if s.is_constant() {
            ("n0".into(), s.constant_value().expect("constant"))
        } else if !mig.is_gate(s.node()) {
            (format!("x{}", s.node().index() - 1), s.is_complement())
        } else {
            (format!("n{}", s.node().index()), s.is_complement())
        }
    };

    for g in mig.gates() {
        if !live[g.index()] {
            continue;
        }
        let ch = mig.children(g);
        let named: Vec<(String, bool)> = ch.iter().map(|&s| signal_name(s)).collect();
        out.push_str(&format!(
            ".names {} {} {} n{}\n",
            named[0].0,
            named[1].0,
            named[2].0,
            g.index()
        ));
        // Majority on-set: at least two of three true, with per-column
        // polarity folding (a complemented edge flips its literal).
        for cube in [
            [true, true, false],
            [true, false, true],
            [false, true, true],
            [true, true, true],
        ] {
            for (bit, (_, compl)) in cube.iter().zip(&named) {
                out.push(if bit ^ compl { '1' } else { '0' });
            }
            out.push_str(" 1\n");
        }
    }

    for (o, &s) in mig.outputs().iter().enumerate() {
        let (name, compl) = signal_name(s);
        out.push_str(&format!(".names {name} y{o}\n"));
        if s.is_constant() {
            // n0 is constant 0: buffer gives 0, inverter gives 1.
            out.push_str(if compl { "0 1\n" } else { "1 1\n" });
        } else {
            out.push_str(if compl { "0 1\n" } else { "1 1\n" });
        }
    }

    out.push_str(".end\n");
    out
}

/// Parses a combinational BLIF netlist into an MIG.
///
/// # Errors
///
/// Returns [`ParseBlifError`] on unsupported directives, undeclared wires,
/// malformed covers, or missing sections.
pub fn parse_blif(text: &str) -> Result<Mig, ParseBlifError> {
    // Fold continuations and strip comments, remembering line numbers.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        let (content, continues) = match line.strip_suffix('\\') {
            Some(head) => (head.trim_end(), true),
            None => (line, false),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(content);
                if continues {
                    pending = Some((start, acc));
                } else {
                    logical.push((start, acc));
                }
            }
            None => {
                if continues {
                    pending = Some((i + 1, content.to_string()));
                } else if !content.trim().is_empty() {
                    logical.push((i + 1, content.to_string()));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        logical.push((start, acc));
    }

    // First pass: declarations and cover bodies.
    struct Cover {
        line: usize,
        inputs: Vec<String>,
        output: String,
        cubes: Vec<(String, char)>,
    }
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut covers: Vec<Cover> = Vec::new();
    let mut current: Option<Cover> = None;

    let err = |line: usize, message: String| ParseBlifError { line, message };

    for (line, content) in &logical {
        let line = *line;
        let mut tokens = content.split_whitespace();
        let head = match tokens.next() {
            Some(h) => h,
            None => continue,
        };
        if head.starts_with('.') {
            if let Some(c) = current.take() {
                covers.push(c);
            }
        }
        match head {
            ".model" => {} // name ignored
            ".inputs" => inputs.extend(tokens.map(String::from)),
            ".outputs" => outputs.extend(tokens.map(String::from)),
            ".names" => {
                let mut wires: Vec<String> = tokens.map(String::from).collect();
                let output = wires
                    .pop()
                    .ok_or_else(|| err(line, ".names needs at least an output wire".into()))?;
                current = Some(Cover {
                    line,
                    inputs: wires,
                    output,
                    cubes: Vec::new(),
                });
            }
            ".end" => {}
            other if other.starts_with('.') => {
                return Err(err(line, format!("unsupported directive `{other}`")));
            }
            _ => {
                // A cover row: `<literals> <value>` or just `<value>` for
                // zero-input covers.
                let cover = current
                    .as_mut()
                    .ok_or_else(|| err(line, "cover row outside .names".into()))?;
                let mut row: Vec<&str> = content.split_whitespace().collect();
                let value = row.pop().expect("non-empty row");
                if value.len() != 1 || !matches!(value, "0" | "1") {
                    return Err(err(line, format!("bad cover output `{value}`")));
                }
                let literals = match row.len() {
                    0 => String::new(),
                    1 => row[0].to_string(),
                    _ => return Err(err(line, "too many columns in cover row".into())),
                };
                if literals.len() != cover.inputs.len() {
                    return Err(err(
                        line,
                        format!(
                            "cube `{literals}` has {} literals for {} inputs",
                            literals.len(),
                            cover.inputs.len()
                        ),
                    ));
                }
                if literals.chars().any(|c| !matches!(c, '0' | '1' | '-')) {
                    return Err(err(line, format!("bad cube literals `{literals}`")));
                }
                cover
                    .cubes
                    .push((literals, value.chars().next().expect("len 1")));
            }
        }
    }
    if let Some(c) = current.take() {
        covers.push(c);
    }
    if inputs.is_empty() && covers.is_empty() {
        return Err(err(1, "no .inputs or .names found".into()));
    }

    // Second pass: build the MIG. Covers may reference wires defined later,
    // so resolve with a worklist over topological readiness.
    let mut mig = Mig::new(inputs.len());
    let mut wires: HashMap<String, Signal> = HashMap::new();
    for (i, name) in inputs.iter().enumerate() {
        if wires.insert(name.clone(), mig.input(i)).is_some() {
            return Err(err(1, format!("duplicate input `{name}`")));
        }
    }

    let mut remaining: Vec<Cover> = covers;
    loop {
        let before = remaining.len();
        let mut next_round = Vec::new();
        for cover in remaining {
            let ready = cover.inputs.iter().all(|w| wires.contains_key(w));
            if !ready {
                next_round.push(cover);
                continue;
            }
            let ins: Vec<Signal> = cover.inputs.iter().map(|w| wires[w]).collect();
            let signal =
                build_cover(&mut mig, &ins, &cover.cubes).map_err(|m| err(cover.line, m))?;
            if wires.insert(cover.output.clone(), signal).is_some() {
                return Err(err(
                    cover.line,
                    format!("wire `{}` driven twice", cover.output),
                ));
            }
        }
        if next_round.is_empty() {
            break;
        }
        if next_round.len() == before {
            let missing: Vec<&str> = next_round
                .iter()
                .flat_map(|c| c.inputs.iter())
                .filter(|w| !wires.contains_key(*w))
                .map(String::as_str)
                .collect();
            return Err(err(
                next_round[0].line,
                format!("combinational cycle or undriven wires: {missing:?}"),
            ));
        }
        remaining = next_round;
    }

    for name in &outputs {
        let s = wires
            .get(name)
            .copied()
            .ok_or_else(|| err(1, format!("output `{name}` is never driven")))?;
        mig.add_output(s);
    }
    Ok(mig)
}

/// Synthesises one single-output cover: a majority of three literals as
/// one gate, anything else as AND/OR trees of majority gates.
fn build_cover(mig: &mut Mig, ins: &[Signal], cubes: &[(String, char)]) -> Result<Signal, String> {
    if cubes.is_empty() {
        return Ok(Signal::FALSE); // empty cover = constant 0
    }
    let polarity = cubes[0].1;
    if cubes.iter().any(|&(_, v)| v != polarity) {
        return Err("mixed on-set/off-set rows in one cover".into());
    }
    if let Some([a, b, c]) = majority_literals(ins, cubes, polarity) {
        return Ok(mig.add_maj(a, b, c));
    }
    let mut terms: Vec<Signal> = Vec::with_capacity(cubes.len());
    for (literals, _) in cubes {
        let mut product = Signal::TRUE;
        for (ch, &input) in literals.chars().zip(ins) {
            let lit = match ch {
                '1' => input,
                '0' => !input,
                '-' => continue,
                _ => unreachable!("validated earlier"),
            };
            product = mig.and(product, lit);
        }
        terms.push(product);
    }
    // Balanced OR tree over the products.
    while terms.len() > 1 {
        let mut next = Vec::with_capacity(terms.len().div_ceil(2));
        for pair in terms.chunks(2) {
            next.push(if pair.len() == 2 {
                mig.or(pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        terms = next;
    }
    let sum = terms[0];
    Ok(if polarity == '1' { sum } else { !sum })
}

/// The literals `l` with `cover = ⟨l₀ l₁ l₂⟩`, when `cubes` (all of output
/// value `polarity`) cover a majority of the three inputs under some
/// per-column polarity. Reads the truth table, not the cube text, so any
/// cube order and the three-cube form are recognised too.
fn majority_literals(
    ins: &[Signal],
    cubes: &[(String, char)],
    polarity: char,
) -> Option<[Signal; 3]> {
    let &[x, y, z] = ins else {
        return None;
    };
    // Bit m of `table` is the cover's value where column i reads bit i of m.
    let mut table = 0u8;
    for (literals, _) in cubes {
        for m in 0..8 {
            let hit = literals
                .bytes()
                .enumerate()
                .all(|(i, ch)| ch == b'-' || (ch == b'1') == (m >> i & 1 == 1));
            table |= u8::from(hit) << m;
        }
    }
    if polarity == '0' {
        table = !table;
    }
    // ⟨x⊕p₀, y⊕p₁, z⊕p₂⟩ is 1 exactly where at least two columns differ
    // from p.
    let majority =
        |p: u32| (0..8u32).fold(0u8, |t, m| t | u8::from((m ^ p).count_ones() >= 2) << m);
    let p = (0..8).find(|&p| table == majority(p))?;
    let literal = |s: Signal, i: u32| s.complement_if(p >> i & 1 == 1);
    Some([literal(x, 0), literal(y, 1), literal(z, 2)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::equiv_random;

    #[test]
    fn parse_simple_and() {
        let text = ".model and2\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
        let mig = parse_blif(text).expect("parses");
        assert_eq!(mig.num_inputs(), 2);
        assert_eq!(mig.num_outputs(), 1);
        assert_eq!(mig.evaluate(&[true, true]), vec![true]);
        assert_eq!(mig.evaluate(&[true, false]), vec![false]);
    }

    #[test]
    fn parse_multi_cube_xor() {
        let text = ".inputs a b\n.outputs f\n.names a b f\n10 1\n01 1\n";
        let mig = parse_blif(text).expect("parses");
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(mig.evaluate(&[a, b]), vec![a ^ b], "a={a} b={b}");
        }
    }

    #[test]
    fn parse_off_set_cover() {
        // f is 0 exactly when a=1,b=1 → NAND.
        let text = ".inputs a b\n.outputs f\n.names a b f\n11 0\n";
        let mig = parse_blif(text).expect("parses");
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(mig.evaluate(&[a, b]), vec![!(a && b)]);
        }
    }

    #[test]
    fn parse_dont_cares_and_buffer() {
        let text = ".inputs a b c\n.outputs f g\n.names a b c f\n1-1 1\n.names a g\n1 1\n";
        let mig = parse_blif(text).expect("parses");
        assert_eq!(mig.evaluate(&[true, false, true]), vec![true, true]);
        assert_eq!(mig.evaluate(&[true, true, false]), vec![false, true]);
    }

    #[test]
    fn parse_constants() {
        let text = ".inputs a\n.outputs t f\n.names t\n 1\n.names f\n.end\n";
        let mig = parse_blif(text).expect("parses");
        assert_eq!(mig.evaluate(&[false]), vec![true, false]);
    }

    #[test]
    fn parse_continuation_and_comments() {
        let text =
            "# a comment\n.inputs a \\\n b\n.outputs f\n.names a b f # trailing\n11 1\n.end\n";
        let mig = parse_blif(text).expect("parses");
        assert_eq!(mig.num_inputs(), 2);
        assert_eq!(mig.evaluate(&[true, true]), vec![true]);
    }

    #[test]
    fn covers_in_any_order() {
        // g is defined after f references it.
        let text = ".inputs a b\n.outputs f\n.names g a f\n11 1\n.names a b g\n11 1\n";
        let mig = parse_blif(text).expect("parses");
        assert_eq!(mig.evaluate(&[true, true]), vec![true]);
        assert_eq!(mig.evaluate(&[true, false]), vec![false]);
    }

    #[test]
    fn majority_covers_become_one_gate() {
        // ⟨a b̄ c⟩ as the written four-cube cover in another cube order,
        // as the three-cube form, and as its off-set.
        let covers = [
            "111 1\n101 1\n001 1\n100 1\n",
            "10- 1\n-01 1\n1-1 1\n",
            "01- 0\n-10 0\n0-0 0\n",
        ];
        for cover in covers {
            let text = format!(".inputs a b c\n.outputs f\n.names a b c f\n{cover}");
            let mig = parse_blif(&text).expect("parses");
            assert_eq!(mig.num_gates(), 1, "{cover:?}");
            let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
            let mut expected = Mig::new(3);
            let g = expected.add_maj(a, !b, c);
            expected.add_output(g);
            assert_eq!(mig, expected, "{cover:?}");
        }
        // Parity of three is no majority: it becomes a sum of products.
        let text = ".inputs a b c\n.outputs f\n.names a b c f\n100 1\n010 1\n001 1\n111 1\n";
        let mig = parse_blif(text).expect("parses");
        assert!(mig.num_gates() > 1);
        for m in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(mig.evaluate(&bits), vec![m.count_ones() % 2 == 1]);
        }
    }

    #[test]
    fn rejects_latch() {
        let text = ".inputs a\n.outputs f\n.latch a f re clk 0\n";
        let e = parse_blif(text).expect_err("latch unsupported");
        assert!(e.message.contains(".latch"), "{e}");
    }

    #[test]
    fn rejects_undriven_wire() {
        let text = ".inputs a\n.outputs f\n.names a ghost f\n11 1\n";
        let e = parse_blif(text).expect_err("ghost is undriven");
        assert!(e.message.contains("ghost"), "{e}");
    }

    #[test]
    fn rejects_cycle() {
        let text = ".inputs a\n.outputs f\n.names a g f\n11 1\n.names a f g\n11 1\n";
        let e = parse_blif(text).expect_err("combinational cycle");
        assert!(e.message.contains("cycle"), "{e}");
    }

    #[test]
    fn rejects_double_driver() {
        let text = ".inputs a b\n.outputs f\n.names a f\n1 1\n.names b f\n1 1\n";
        let e = parse_blif(text).expect_err("double driver");
        assert!(e.message.contains("driven twice"), "{e}");
    }

    #[test]
    fn rejects_mixed_polarity() {
        let text = ".inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n";
        let e = parse_blif(text).expect_err("mixed polarity");
        assert!(e.message.contains("mixed"), "{e}");
    }

    #[test]
    fn round_trip_random_graphs() {
        use crate::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 6,
            outputs: 5,
            gates: 60,
            ..Default::default()
        };
        for seed in 0..4 {
            let mig = generate(&cfg, seed);
            let text = write_blif(&mig, "roundtrip");
            let back = parse_blif(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back.num_inputs(), mig.num_inputs());
            assert_eq!(back.num_outputs(), mig.num_outputs());
            assert!(
                equiv_random(&mig, &back, 16, seed ^ 0xB11F).is_equal(),
                "seed {seed} round trip changed the function"
            );
        }
    }

    #[test]
    fn round_trip_constant_and_complemented_outputs() {
        let mut mig = Mig::new(2);
        let (a, b) = (mig.input(0), mig.input(1));
        let g = mig.and(a, !b);
        mig.add_output(!g);
        mig.add_output(Signal::TRUE);
        mig.add_output(Signal::FALSE);
        mig.add_output(a);
        let text = write_blif(&mig, "edges");
        let back = parse_blif(&text).expect("parses");
        assert!(equiv_random(&mig, &back, 16, 7).is_equal());
    }
}
