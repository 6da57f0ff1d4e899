//! Seeded fuzz of the lexer and parser on hostile input.
//!
//! `parse` is fed token soups of keywords, operators, literals and
//! non-ASCII characters, both bare and inside a `proc … loop { }` frame,
//! plus random bytes. Every input must return. Every error must render,
//! as text and in wire form, and every program must round-trip through
//! the pretty-printer. The generator is seeded, so a failure names an
//! input that replays exactly.

use anvil_syntax::{parse, pretty_program, LineIndex};

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Pieces that can start or end an operand; whole operands come first,
/// and most picks are among them.
const OPERANDS: &[&str] = &[
    "x",
    "r",
    "*r",
    "*r[1]",
    "0",
    "1",
    "255",
    "8'hff",
    "4'b1010",
    "32'd7",
    "(x)",
    "{ cycle 1 }",
    "(",
    ")",
    "{",
    "}",
    "recv ep.m",
    "send ep.m",
    "ready(ep.m)",
    "cycle 1",
    "cycle",
    "recurse",
    "concat(",
    "f(",
    "if",
    "else",
    "let x =",
    "set r :=",
    "r :=",
    "dprint \"v\"",
    "[3:0]",
    "[0]",
    "~",
    "!",
    "é",
    "€",
    "🦀",
];

/// Operators, separators and other punctuation.
const OPERATORS: &[&str] = &[
    "==", "!=", "<", "<=", ">", ">=", "|", "^", "&", "<<", ">>>", "+", "-", "*", ">>", ";", ",",
    ":", ".", "@", "#", "--", "->", ":=", "=", "[", "]",
];

/// Whole-program keywords and trivia.
const OTHERS: &[&str] = &[
    "chan",
    "proc",
    "reg",
    "spawn",
    "loop",
    "recursive",
    "left",
    "right",
    "logic",
    "logic[8]",
    "extern",
    "fn",
    "dyn",
    "eternal",
    "0'h1",
    "99999999999999999999",
    "\"",
    "// c\n",
    "/*",
    "*/",
    "\u{0}",
    "ÿ",
    "\u{301}",
];

/// Up to 16 pieces, mostly alternating operands and operators.
fn soup(rng: &mut Rng) -> String {
    let mut out = String::new();
    for i in 0..rng.below(17) {
        let operand = (i % 2 == 0) != (rng.below(5) == 0);
        let piece = match rng.below(10) {
            0 => rng.pick(OTHERS),
            1..=5 if operand => rng.pick(&OPERANDS[..12]),
            _ if operand => rng.pick(OPERANDS),
            _ => rng.pick(OPERATORS),
        };
        out.push_str(piece);
        // Usually a space, sometimes nothing, so pieces also lex together.
        if rng.below(5) > 0 {
            out.push(' ');
        }
    }
    out
}

fn random_bytes(rng: &mut Rng) -> String {
    let bytes: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses `src`, checking whichever way it ends. Returns whether it
/// parsed.
fn check(src: &str) -> bool {
    match parse(src) {
        Ok(prog) => {
            let printed = pretty_program(&prog);
            let again = parse(&printed)
                .unwrap_or_else(|e| panic!("printed as {printed:?}: {}", e.render(&printed)));
            assert_eq!(pretty_program(&again), printed, "printed differently");
            true
        }
        Err(e) => {
            let text = e.render(src);
            assert!(text.contains(&e.message), "{text}");
            let wire = e.to_wire(&LineIndex::new(src)).to_json();
            assert!(wire.starts_with('{'), "{wire}");
            false
        }
    }
}

#[test]
fn hostile_sources_return_and_their_errors_render() {
    let mut rng = Rng(0x5eed_a7f1);
    let mut parsed = 0;
    for case in 0..4_000 {
        let src = match case % 4 {
            0 => soup(&mut rng),
            1 | 2 => format!(
                "chan c {{ left m : (logic[8]@#1) }}\n\
                 proc p(ep : left c) {{ reg r : logic[8]; loop {{ {} }} }}",
                soup(&mut rng)
            ),
            _ => random_bytes(&mut rng),
        };
        match std::panic::catch_unwind(|| check(&src)) {
            Ok(ok) => parsed += usize::from(ok),
            Err(_) => panic!("case {case} failed on input {src:?}"),
        }
    }
    // The round-trip path must be exercised, not only the error path.
    assert!(parsed >= 100, "only {parsed} of 4,000 inputs parsed");
}
