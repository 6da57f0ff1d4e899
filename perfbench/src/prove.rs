//! `prove_mix`: each connection proves seeded variants of small Anvil
//! programs whose verdicts are known by construction.
//!
//! Four targets per connection, each in its own file:
//!
//! * **counter** — `c` counts `0..=last` and wraps; `ok := c != last + g`
//!   for `g` in 4..=7 is k-inductive at `k = g + 1`, which the symbolic
//!   engine proves first. PDR can prove it too and, under contention,
//!   sometimes finishes first: in 10 800 contended proofs over every
//!   `last` in 8..98 it won 79, mostly for `last % 4 == 3`; with
//!   `last % 4 == 1` it won 5 of 10 560. The targets use only the latter.
//! * **falsify** — the same counter with `ok := c != 8` under `maxK = 8`:
//!   the violation sits at depth 10, beyond the symbolic engine's reach
//!   (depth `maxK + 1`) and the explicit engine's (depth `maxK`), inside
//!   PDR's (`maxK + 2` frames), so PDR finds it every time. The depth is
//!   confirmed by simulating the target on `Backend::Tree`. The verdict
//!   therefore rests on two engine budgets; see [`FALSIFY_AT`].
//! * **fifo_mon** / **spill_mon** — the FIFO and spill register sources
//!   with an occupancy monitor register added, which only PDR proves.
//!
//! A cold action puts a fresh target (a new proc name, so a new
//! fingerprint) in its file and proves it; a re-prove makes a whitespace
//! edit and proves again, which the proof cache answers after
//! revalidation. Each block proves every target once cold and once
//! re-proved; the seed picks the order and the counters' constants.

use anvil_sim::{Backend, Sim};

use crate::edit::cosmetic_edit;
use crate::service::{open_and_compile, text_req, Action, Expect, Plan};
use crate::util::Rng;
use crate::wire::{json_str, Req};

/// The monitored designs' `maxK`: their PDR proofs need 11 frames.
const MONITOR_MAX_K: i64 = 12;
/// `maxK` of counter and falsifier targets.
const COUNTER_MAX_K: i64 = 8;
/// Falsifier bad value: `ok` drops in the state after `c == FALSIFY_AT`,
/// at depth `COUNTER_MAX_K + 2`. Only PDR reaches that depth, so the
/// winner is fixed, but the verdict pins two budgets: `prove_portfolio`
/// gives PDR `depth.max(max_k) + 2` frames (crates/verify/src/prove.rs)
/// and anvild passes `depth = maxK.max(8)` (crates/anvild/src/server.rs).
/// A change that trims either answers `unknown` here, which this
/// benchmark counts as a wrong output.
const FALSIFY_AT: u64 = COUNTER_MAX_K as u64;

#[derive(Clone, Copy, PartialEq)]
enum Target {
    Counter,
    Falsify,
    Fifo,
    Spill,
}

const TARGETS: [Target; 4] = [
    Target::Counter,
    Target::Falsify,
    Target::Fifo,
    Target::Spill,
];

/// Actions per block: every target once cold and once re-proved. The
/// counts are assumed, not measured: no usage data exists for this
/// service, so every (target, cold or re-prove) cell gets the same count.
pub const BLOCK: usize = 2 * TARGETS.len();

fn counter_source(name: &str, last: u64, bad: u64) -> String {
    format!(
        "proc {name}() {{
    reg c : logic[8];
    reg ok : logic := 1;
    loop {{
        set ok := *c != {bad} ;
        if *c == {last} {{ set c := 0 }} else {{ set c := *c + 1 }}
    }}
}}
"
    )
}

/// Adds `reg mon := 1` and a thread keeping `mon := (wr - rd) <= bound`.
fn monitored(src: &str, proc_name: &str, new_name: &str, bound: u64) -> String {
    let src = src.replace(proc_name, new_name);
    let reg_at = src.find("reg ").expect("the design declares registers");
    let end = src.rfind('}').expect("the proc is closed");
    format!(
        "{}reg mon : logic := 1;\n            {}    loop {{ set mon := (*wr - *rd) <= {bound} }}\n{}",
        &src[..reg_at],
        &src[reg_at..end],
        &src[end..]
    )
}

/// The depth at which `ok` first reads 0, found by simulating the
/// flattened target on the reference tree backend (`None` if it holds
/// for `max_cycles`). Reported depths count the reset state as depth 1.
fn tree_falsify_depth(text: &str, top: &str, max_cycles: u64) -> Result<Option<i64>, String> {
    let mut session = anvil_core::Session::new();
    session.add_extern(anvil_designs::aes::sbox_module());
    let module = session
        .compile_flat(text, top)
        .map_err(|e| e.render(text))?;
    let mut sim = Sim::with_backend(&module, Backend::Tree).map_err(|e| e.to_string())?;
    for cycle in 0..max_cycles {
        if sim.peek("ok").map_err(|e| e.to_string())?.to_u64() == 0 {
            return Ok(Some(cycle as i64 + 1));
        }
        sim.step().map_err(|e| e.to_string())?;
    }
    Ok(None)
}

struct File {
    uri: String,
    text: String,
    signal: &'static str,
    max_k: i64,
    proved: bool,
    depth: Option<i64>,
}

struct Conn {
    c: usize,
    rng: Rng,
    files: Vec<File>,
    n: usize,
}

impl Conn {
    fn new(c: usize, seed: u64) -> Result<Conn, String> {
        let mut conn = Conn {
            c,
            rng: Rng::new(seed ^ (0x9807_E000 + c as u64)),
            files: Vec::new(),
            n: 0,
        };
        for t in TARGETS {
            let name = match t {
                Target::Counter => "counter",
                Target::Falsify => "falsify",
                Target::Fifo => "fifo_mon",
                Target::Spill => "spill_mon",
            };
            conn.files.push(File {
                uri: format!("mem:c{c}/{name}.anvil"),
                text: String::new(),
                signal: "ok",
                max_k: COUNTER_MAX_K,
                proved: true,
                depth: None,
            });
            conn.fresh_target(t)?;
        }
        Ok(conn)
    }

    /// Puts a fresh target in the file of kind `t`.
    fn fresh_target(&mut self, t: Target) -> Result<(), String> {
        self.n += 1;
        let (c, n) = (self.c, self.n);
        let fi = TARGETS.iter().position(|&x| x == t).expect("known target");
        let f = &mut self.files[fi];
        match t {
            Target::Counter => {
                let last = 9 + 4 * self.rng.below(23) as u64;
                let gap = 4 + (n % 4) as u64;
                f.text = counter_source(&format!("count_c{c}_{n}"), last, last + gap);
            }
            Target::Falsify => {
                let last = FALSIFY_AT + 1 + self.rng.below(120) as u64;
                let top = format!("falsify_c{c}_{n}");
                f.text = counter_source(&top, last, FALSIFY_AT);
                f.proved = false;
                f.depth = tree_falsify_depth(&f.text, &top, 64)?;
                if f.depth != Some(FALSIFY_AT as i64 + 2) {
                    return Err(format!("falsifier {top} fails at {:?}", f.depth));
                }
            }
            Target::Fifo => {
                f.text = monitored(
                    &anvil_designs::fifo::anvil_source(),
                    "fifo_anvil",
                    &format!("fifo_c{c}_{n}"),
                    anvil_designs::fifo::DEPTH as u64,
                );
                f.signal = "mon";
                f.max_k = MONITOR_MAX_K;
            }
            Target::Spill => {
                f.text = monitored(
                    &anvil_designs::spill::anvil_source(),
                    "spill_anvil",
                    &format!("spill_c{c}_{n}"),
                    2,
                );
                f.signal = "mon";
                f.max_k = MONITOR_MAX_K;
            }
        }
        Ok(())
    }

    fn prove_req(&self, fi: usize, cache: bool) -> (Req, Expect) {
        let f = &self.files[fi];
        (
            Req::new(
                "prove",
                format!(
                    "\"uri\":{},\"signal\":\"{}\",\"maxK\":{}",
                    json_str(&f.uri),
                    f.signal,
                    f.max_k
                ),
            ),
            Expect::Verdict {
                proved: f.proved,
                depth: f.depth,
                cache,
            },
        )
    }

    fn action(&mut self, t: Target, cold: bool) -> Result<Action, String> {
        let fi = TARGETS.iter().position(|&x| x == t).expect("known target");
        let text = if cold {
            self.fresh_target(t)?;
            self.files[fi].text.clone()
        } else {
            self.n += 1;
            cosmetic_edit(&self.files[fi].text, &mut self.rng, self.n)
        };
        Ok(Action {
            kind: if cold { "cold_prove" } else { "reprove" },
            reqs: vec![
                text_req("update", &self.files[fi].uri, &text),
                self.prove_req(fi, !cold),
            ],
        })
    }

    fn setup(&self) -> Vec<Action> {
        // The SV is not checked here: these sources only feed the prover,
        // whose verdicts are checked.
        self.files
            .iter()
            .flat_map(|f| open_and_compile(&f.uri, &f.text, Expect::Ok))
            .collect()
    }

    /// The first proof of each set-up target, so later re-proves hit.
    fn warmup(&self) -> Vec<Action> {
        (0..self.files.len())
            .map(|fi| Action {
                kind: "first_prove",
                reqs: vec![self.prove_req(fi, false)],
            })
            .collect()
    }

    fn block(&mut self) -> Result<Vec<Action>, String> {
        let mut slots: Vec<(Target, bool)> = TARGETS
            .iter()
            .flat_map(|&t| [(t, true), (t, false)])
            .collect();
        self.rng.shuffle(&mut slots);
        slots
            .into_iter()
            .map(|(t, cold)| self.action(t, cold))
            .collect()
    }
}

pub fn plan(seed: u64, conns: usize, blocks: usize) -> Result<Plan, String> {
    let mut plan = Plan {
        setup: Vec::new(),
        warmup: Vec::new(),
        timed: Vec::new(),
    };
    for c in 0..conns {
        let mut conn = Conn::new(c, seed)?;
        plan.setup.push(conn.setup());
        plan.warmup.push(conn.warmup());
        let mut timed = Vec::with_capacity(blocks * BLOCK);
        for _ in 0..blocks {
            timed.extend(conn.block()?);
        }
        plan.timed.push(timed);
    }
    Ok(plan)
}
