//! Seeded fuzz of `Json::parse` and `parse_incoming` on hostile input.
//!
//! Both are fed soups of JSON punctuation, escapes (lone surrogate
//! halves among them), numbers with signs and exponents (`1e999`
//! included), literals and their near-misses, non-ASCII and control
//! characters, arrays and objects nested around the parser's depth
//! limit, random bytes, and request frames around them. Every input must
//! return, every error's offset must lie within its input, and every
//! accepted value must serialize to text that parses back to an equal
//! value. Frames built around an integer id token check that an id
//! `parse_incoming` accepts serializes back to exactly that token. The
//! generator is seeded, so a failure names an input that replays
//! exactly.

use anvild::{parse_incoming, response, Json};

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

/// How deep `Json::parse` lets arrays and objects nest.
const MAX_DEPTH: usize = 512;

/// The largest integer an `f64` holds with its successor: ids within
/// ±`SAFE` must be accepted and echoed exactly.
const SAFE: i128 = (1 << 53) - 1;

/// Well-formed scalar values: many picks are among them.
const SCALARS: &[&str] = &[
    "null",
    "true",
    "false",
    "0",
    "-0",
    "7",
    "-42",
    "3.25",
    "1e3",
    "-2.5E-3",
    "1e-400",
    "9007199254740993",
    "\"s\"",
    "\"\"",
    "\"\\n\\t\\\"\\\\\\/\"",
    "\"\\ud83d\\ude00\"",
    "\"\\u00e9\"",
    "\"é🦀\"",
];

/// Containers, out-of-range numbers, punctuation, escape fragments,
/// number fragments, near-miss literals and characters JSON forbids or
/// treats specially.
const PIECES: &[&str] = &[
    "[]",
    "{}",
    "[1,2]",
    "{\"k\":1}",
    "1e999",
    "-1e999",
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "\\u12",
    "\\x",
    "\"k\":",
    "0",
    "12",
    "-",
    "+",
    ".",
    "e",
    "E",
    "e+",
    "1e",
    "00",
    "nul",
    "tru",
    "fals",
    "nulll",
    "NaN",
    "Infinity",
    "é",
    "€",
    "🦀",
    "\u{0}",
    "\u{1f}",
    "\u{7f}",
    "\t",
    "\n",
    " ",
];

/// Up to 24 pieces, a third of them scalar values.
fn soup(rng: &mut Rng) -> String {
    let mut out = String::new();
    for _ in 0..rng.below(25) {
        let piece = match rng.below(3) {
            0 => rng.pick(SCALARS),
            _ => rng.pick(PIECES),
        };
        out.push_str(piece);
    }
    out
}

/// A well-formed document: a scalar, or an array or object of up to
/// four members, at most `depth` levels deep.
fn value(rng: &mut Rng, depth: usize) -> String {
    match rng.below(if depth == 0 { 1 } else { 3 }) {
        0 => rng.pick(SCALARS).to_string(),
        1 => {
            let items: Vec<String> = (0..rng.below(5)).map(|_| value(rng, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let members: Vec<String> = (0..rng.below(5))
                .map(|i| format!("\"k{i}\": {}", value(rng, depth - 1)))
                .collect();
            format!("{{{}}}", members.join(", "))
        }
    }
}

/// `text` with one piece inserted at a random character boundary.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let at = bounds[rng.below(bounds.len())];
    format!("{}{}{}", &text[..at], rng.pick(PIECES), &text[at..])
}

/// Arrays and objects nested to within a few levels of `MAX_DEPTH`
/// around one scalar, usually closed correctly. Returns the text and,
/// when it is well formed, whether its depth is within the limit.
fn nesting(rng: &mut Rng) -> (String, Option<bool>) {
    let depth = MAX_DEPTH - 4 + rng.below(9);
    let mut out = String::new();
    let mut closers = Vec::new();
    for _ in 0..depth {
        if rng.below(2) == 0 {
            out.push('[');
            closers.push(']');
        } else {
            out.push_str("{\"k\":");
            closers.push('}');
        }
    }
    out.push_str(rng.pick(SCALARS));
    let well_formed = rng.below(4) > 0;
    if !well_formed {
        closers.pop();
        out.push_str(rng.pick(PIECES));
    }
    out.extend(closers.iter().rev());
    (out, well_formed.then_some(depth <= MAX_DEPTH))
}

fn random_bytes(rng: &mut Rng) -> String {
    let bytes: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A canonical integer token (no leading zeros, no `-0`): small, near
/// ±2^53, near the ends of `i64`, or up to 40 digits.
fn integer_token(rng: &mut Rng) -> String {
    let sign = if rng.below(2) == 0 { 1 } else { -1 };
    let n: i128 = match rng.below(4) {
        0 => rng.below(1000) as i128,
        1 => SAFE + rng.below(7) as i128 - 3,
        2 => i64::MAX as i128 - rng.below(3) as i128,
        _ => {
            let digits = 1 + rng.below(40);
            let mut token = (1 + rng.below(9)).to_string();
            for _ in 1..digits {
                token.push(char::from(b'0' + rng.below(10) as u8));
            }
            return if sign < 0 { format!("-{token}") } else { token };
        }
    };
    (sign * n).to_string()
}

/// Parses `text`, checking whichever way it ends. Returns whether it
/// parsed.
fn check_value(text: &str) -> bool {
    match Json::parse(text) {
        Ok(value) => {
            let written = value.to_string();
            assert_eq!(
                Json::parse(&written).as_ref(),
                Ok(&value),
                "written as {written:?}"
            );
            true
        }
        Err(e) => {
            assert!(e.offset <= text.len(), "{e} past the end");
            false
        }
    }
}

/// Parses `line` as a request frame; an accepted id must come back in
/// the response unchanged.
fn check_frame(line: &str) -> Option<Json> {
    let id = parse_incoming(line).ok()?.id?;
    let echoed = Json::parse(&response(&id, Json::Null).to_string()).expect("responses parse");
    assert_eq!(echoed.get("id"), Some(&id), "id echoed differently");
    Some(id)
}

fn frame_with_id(id: &str) -> String {
    format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"ping\"}}")
}

#[test]
fn hostile_json_returns_and_accepted_values_round_trip() {
    let mut rng = Rng(0x5eed_150a);
    let mut parsed = 0;
    for case in 0..4_000 {
        let (text, nested) = match case % 8 {
            0 | 1 => (value(&mut rng, 3), None),
            2 => {
                let doc = value(&mut rng, 3);
                (mutate(&mut rng, &doc), None)
            }
            3 => (soup(&mut rng), None),
            4 => {
                let id = value(&mut rng, 1);
                (frame_with_id(&mutate(&mut rng, &id)), None)
            }
            5 => {
                let params = value(&mut rng, 2);
                let frame = format!("{{\"id\":1,\"method\":\"m\",\"params\":{params}}}");
                (mutate(&mut rng, &frame), None)
            }
            6 => nesting(&mut rng),
            _ => (random_bytes(&mut rng), None),
        };
        let outcome = std::panic::catch_unwind(|| {
            let ok = check_value(&text);
            if let Some(within) = nested {
                assert_eq!(ok, within, "balanced nesting parses iff within the limit");
            }
            check_frame(&text);
            ok
        });
        match outcome {
            Ok(ok) => parsed += usize::from(ok),
            Err(_) => panic!("case {case} failed on input {text:?}"),
        }
    }
    // The round-trip path must be exercised, not only the error path.
    assert!(parsed >= 1_200, "only {parsed} of 4,000 inputs parsed");
}

#[test]
fn integer_ids_echo_exactly_or_are_rejected() {
    let mut rng = Rng(0x1d5_ec40);
    let mut accepted = 0;
    for case in 0..4_000 {
        let token = integer_token(&mut rng);
        let frame = frame_with_id(&token);
        let outcome = std::panic::catch_unwind(|| {
            let safe = token
                .parse::<i128>()
                .is_ok_and(|n| (-SAFE..=SAFE).contains(&n));
            match check_frame(&frame) {
                Some(id) => {
                    assert_eq!(id.to_string(), token, "id echoed differently");
                    true
                }
                None => {
                    assert!(!safe, "id {token} within ±(2^53 - 1) was rejected");
                    false
                }
            }
        });
        match outcome {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("case {case} failed on frame {frame:?}"),
        }
    }
    assert!(accepted >= 1_000, "only {accepted} of 4,000 ids accepted");
}
