//! `edit_compile`: the editor loop. Each connection owns a copy of the
//! ten Table 1 sources and sends a seeded stream of full-text edits, each
//! followed by a `compile` or `diagnostics`.
//!
//! Every block gives each of the ten files one of each edit kind, in
//! seeded order: a register rename, a whitespace-or-comment edit, a
//! `diagnostics` call, and the Fig. 1 pair (the unsafe `Top` appended,
//! then the safe one). The equal counts are assumed, not measured: no
//! usage data exists for this service. The mix is the same for every
//! seed; the seed picks the order, the renamed registers and the edit
//! positions.

use anvil_rtl::ModuleLibrary;

use crate::service::{open_and_compile, text_req, uri_req, Action, Expect, Plan};
use crate::util::Rng;

/// Actions per block: 10 files x (3 single actions + the Fig. 1 pair).
pub const BLOCK: usize = 50;

struct File {
    uri: String,
    /// The text the service should be compiling, without transient
    /// whitespace edits.
    text: String,
    sv: String,
    /// Renames so far: they visit the file's procs in turn.
    renames: usize,
}

/// Replaces whole-word occurrences of `from` inside `text[range]`.
fn replace_word(text: &str, range: std::ops::Range<usize>, from: &str, to: &str) -> String {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + 64);
    out.push_str(&text[..range.start]);
    let mut i = range.start;
    while i < range.end {
        let hit = text[i..range.end].starts_with(from)
            && (i == 0 || !is_ident(bytes[i - 1]))
            && bytes.get(i + from.len()).is_none_or(|&b| !is_ident(b));
        if hit {
            out.push_str(to);
            i += from.len();
        } else {
            let ch = text[i..].chars().next().expect("inside the text");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out.push_str(&text[range.end..]);
    out
}

fn rename_all(text: &str, from: &str, to: &str) -> String {
    replace_word(text, 0..text.len(), from, to)
}

/// The reference SystemVerilog: the monolithic `compile_program` +
/// `emit_library` path, independent of the service's per-unit cache.
pub fn monolithic_sv(text: &str, externs: &ModuleLibrary) -> Result<String, String> {
    let program = anvil_syntax::parse(text).map_err(|e| e.to_string())?;
    let lib = anvil_codegen::compile_program(&program, externs, Default::default())
        .map_err(|e| e.to_string())?;
    Ok(anvil_rtl::emit_library(&lib))
}

/// The reference timing-safety diagnostics: `anvil_typeck::check_program`
/// on the whole program, as sorted (line, message) pairs.
pub fn monolithic_diagnostics(text: &str) -> Result<Vec<(i64, String)>, String> {
    let program = anvil_syntax::parse(text).map_err(|e| e.to_string())?;
    let reports = anvil_typeck::check_program(&program).map_err(|e| e.to_string())?;
    let index = anvil_syntax::LineIndex::new(text);
    let mut out: Vec<(i64, String)> = reports
        .values()
        .flat_map(|r| r.errors())
        .map(|e| (index.span_start(e.span).0 as i64, e.message.clone()))
        .collect();
    out.sort();
    Ok(out)
}

pub fn externs() -> ModuleLibrary {
    let mut lib = ModuleLibrary::new();
    lib.add(anvil_designs::aes::sbox_module());
    lib
}

/// A whitespace or comment edit at a seeded line: same content
/// fingerprint, different text.
pub fn cosmetic_edit(text: &str, rng: &mut Rng, n: usize) -> String {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(text.match_indices('\n').map(|(i, _)| i + 1))
        .filter(|&i| i < text.len())
        .collect();
    let at = starts[rng.below(starts.len())];
    let insert = if n.is_multiple_of(2) {
        format!("// edit {n}\n")
    } else {
        "    ".to_string()
    };
    format!("{}{insert}{}", &text[..at], &text[at..])
}

enum Kind {
    Rename,
    Cosmetic,
    Diagnostics,
    Fig1,
}

struct Conn {
    c: usize,
    rng: Rng,
    files: Vec<File>,
    externs: ModuleLibrary,
    /// Fresh-name counter: every introduced name is unique per connection.
    n: usize,
}

impl Conn {
    fn new(c: usize, seed: u64) -> Result<Conn, String> {
        let externs = externs();
        let mut files = Vec::new();
        for (name, src) in anvil_designs::suite_sources() {
            let program = anvil_syntax::parse(&src).map_err(|e| e.to_string())?;
            // Connection-owned proc names: no two connections share a
            // fingerprint.
            let mut text = src.clone();
            for p in &program.procs {
                text = rename_all(&text, &p.name, &format!("{}_c{c}", p.name));
            }
            let sv = monolithic_sv(&text, &externs)?;
            files.push(File {
                uri: format!("mem:c{c}/{name}.anvil"),
                text,
                sv,
                renames: 0,
            });
        }
        Ok(Conn {
            c,
            rng: Rng::new(seed ^ (0xC0FF_EE00 + c as u64)),
            files,
            externs,
            n: 0,
        })
    }

    fn fresh(&mut self) -> usize {
        self.n += 1;
        self.n
    }

    fn setup(&self) -> Vec<Action> {
        self.files
            .iter()
            .flat_map(|f| open_and_compile(&f.uri, &f.text, Expect::sv(&f.sv)))
            .collect()
    }

    /// Renames one seeded register to a fresh name. The procs take turns,
    /// so every seed recompiles the same procs as often, and the seed
    /// only picks the register.
    fn rename(&mut self, fi: usize) -> Result<Action, String> {
        let text = self.files[fi].text.clone();
        let program = anvil_syntax::parse(&text).map_err(|e| e.to_string())?;
        let procs: Vec<_> = program
            .procs
            .iter()
            .filter(|p| !p.regs.is_empty())
            .collect();
        if procs.is_empty() {
            return Err(format!("no register in {}", self.files[fi].uri));
        }
        let turn = self.files[fi].renames % procs.len();
        self.files[fi].renames += 1;
        let mut regs = Vec::new();
        for p in procs[turn..].iter().chain(&procs[..turn]) {
            let mut names: Vec<String> = p.regs.iter().map(|r| r.name.clone()).collect();
            self.rng.shuffle(&mut names);
            regs.extend(
                names
                    .into_iter()
                    .map(|name| (p.span.start..p.span.end, name)),
            );
        }
        let n = self.fresh();
        for (range, name) in regs {
            let base = name.split("_q").next().unwrap_or(&name).to_string();
            let renamed = replace_word(&text, range, &name, &format!("{base}_q{}_{n}", self.c));
            if let Ok(sv) = monolithic_sv(&renamed, &self.externs) {
                let f = &mut self.files[fi];
                f.text = renamed;
                f.sv = sv;
                return Ok(Action {
                    kind: "rename",
                    reqs: vec![
                        text_req("update", &f.uri, &f.text),
                        uri_req("compile", &f.uri, Expect::sv(&f.sv)),
                    ],
                });
            }
        }
        Err(format!("no renamable register in {}", self.files[fi].uri))
    }

    fn cosmetic(&mut self, fi: usize, diagnostics: bool) -> Action {
        let n = self.fresh();
        let f = &self.files[fi];
        let text = cosmetic_edit(&f.text, &mut self.rng, n);
        let (kind, last) = if diagnostics {
            (
                "diagnostics",
                uri_req("diagnostics", &f.uri, Expect::DiagCount(0)),
            )
        } else {
            ("cosmetic", uri_req("compile", &f.uri, Expect::sv(&f.sv)))
        };
        Action {
            kind,
            reqs: vec![text_req("update", &f.uri, &text), last],
        }
    }

    /// Fig. 1: the unsafe `Top` appended must fail with the loan
    /// diagnostics the monolithic checker reports, all on the appended
    /// lines; the safe one must compile.
    fn fig1_pair(&mut self, fi: usize) -> Result<[Action; 2], String> {
        let n = self.fresh();
        let c = self.c;
        let unsafe_top = rename_all(
            &rename_all(
                &anvil_designs::hazard::fig1_top_unsafe_anvil(),
                "top_unsafe",
                &format!("top_unsafe_c{c}_{n}"),
            ),
            "memory_ch",
            &format!("memory_ch_c{c}_{n}"),
        );
        let safe_top = rename_all(
            &rename_all(
                &anvil_designs::hazard::fig1_top_safe_anvil(),
                "top_safe",
                &format!("top_safe_c{c}_{n}"),
            ),
            "cache_ch",
            &format!("cache_ch_c{c}_{n}"),
        );
        let f = &self.files[fi];
        let bad = format!("{}\n{unsafe_top}", f.text);
        let first = f.text.matches('\n').count() as i64 + 2;
        let last = bad.matches('\n').count() as i64 + 1;
        let diags = monolithic_diagnostics(&bad)?;
        if diags.is_empty() || diags.iter().any(|(l, _)| *l < first || *l > last) {
            return Err(format!(
                "Fig. 1 in {}: expected loan diagnostics on lines {first}..={last}, the checker gives {diags:?}",
                f.uri
            ));
        }
        let good = format!("{}\n{safe_top}", f.text);
        let sv = monolithic_sv(&good, &self.externs)?;
        Ok([
            Action {
                kind: "fig1_unsafe",
                reqs: vec![
                    text_req("update", &f.uri, &bad),
                    uri_req("compile", &f.uri, Expect::CompileFailed(diags)),
                ],
            },
            Action {
                kind: "fig1_safe",
                reqs: vec![
                    text_req("update", &f.uri, &good),
                    uri_req("compile", &f.uri, Expect::sv(&sv)),
                ],
            },
        ])
    }

    fn block(&mut self) -> Result<Vec<Action>, String> {
        let mut kinds: Vec<(usize, Kind)> = (0..self.files.len())
            .flat_map(|f| {
                [
                    (f, Kind::Rename),
                    (f, Kind::Cosmetic),
                    (f, Kind::Diagnostics),
                    (f, Kind::Fig1),
                ]
            })
            .collect();
        self.rng.shuffle(&mut kinds);
        let mut out = Vec::with_capacity(BLOCK);
        for (f, kind) in kinds {
            match kind {
                Kind::Rename => out.push(self.rename(f)?),
                Kind::Cosmetic => out.push(self.cosmetic(f, false)),
                Kind::Diagnostics => out.push(self.cosmetic(f, true)),
                Kind::Fig1 => out.extend(self.fig1_pair(f)?),
            }
        }
        Ok(out)
    }
}

/// One connection's set-up, warm-up and timed actions.
type ConnPlan = (Vec<Action>, Vec<Action>, Vec<Action>);

/// The plan: set-up (open + cold compile of every file), one untimed
/// warm-up block, then `blocks` timed blocks per connection.
pub fn plan(seed: u64, conns: usize, blocks: usize) -> Result<Plan, String> {
    let per_conn: Vec<Result<ConnPlan, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::new(c, seed)?;
                    let setup = conn.setup();
                    let warmup = conn.block()?;
                    let mut timed = Vec::with_capacity(blocks * BLOCK);
                    for _ in 0..blocks {
                        timed.extend(conn.block()?);
                    }
                    Ok((setup, warmup, timed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("plan thread panicked"))
            .collect()
    });
    let mut plan = Plan {
        setup: Vec::new(),
        warmup: Vec::new(),
        timed: Vec::new(),
    };
    for r in per_conn {
        let (setup, warmup, timed) = r?;
        plan.setup.push(setup);
        plan.warmup.push(warmup);
        plan.timed.push(timed);
    }
    Ok(plan)
}
