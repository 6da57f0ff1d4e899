//! `Sim` settles lazily: `poke`, `poke_array` and `reset` only mark the
//! engine dirty, and the next read or clock edge settles it. Every suite
//! design (plus one that prints) runs a seeded random interleaving of
//! `poke`, `poke_array`, `peek`, `eval`, `reset` and `step` on both
//! backends twice: as scripted, and with every signal peeked and one
//! expression evaluated after each poke, memory poke, reset and step,
//! which settles at once. Both runs must read the same values,
//! fingerprints, toggle counts and logs.

use anvil_designs::tb::{input_ports, xorshift64};
use anvil_rtl::{ArrayId, Bits, Expr, Module, SignalId, UnaryOp};
use anvil_sim::{Backend, Sim};

const ACTIONS: usize = 400;

/// One scripted call on the facade.
#[derive(Debug)]
enum Action {
    Poke(String, Bits),
    PokeArray(ArrayId, usize, Bits),
    Peek(String),
    Eval(Expr),
    Reset,
    Step,
}

/// Everything a run observed, in order.
#[derive(Debug, Default, PartialEq)]
struct Observed {
    /// One entry per `Peek` or `Eval`.
    reads: Vec<Bits>,
    /// Fingerprint and toggle counts after every step and reset.
    states: Vec<(u64, Vec<u64>)>,
    /// The print log before every reset and at the end.
    logs: Vec<Vec<(u64, String)>>,
}

fn random_bits(width: usize, rng: &mut u64) -> Bits {
    let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| xorshift64(rng)).collect();
    Bits::from_words(width, &words)
}

/// A seeded draw from `0..n`.
fn pick(n: usize, rng: &mut u64) -> usize {
    (xorshift64(rng) % n as u64) as usize
}

/// A seeded script over `m`'s inputs, signals and memories.
fn script(m: &Module, seed: u64) -> Vec<Action> {
    let mut rng = seed;
    let inputs = input_ports(m);
    let signals: Vec<(SignalId, String)> = m
        .iter_signals()
        .map(|(id, s)| (id, s.name.clone()))
        .collect();
    (0..ACTIONS)
        .map(|_| match pick(100, &mut rng) {
            0..=39 if !inputs.is_empty() => {
                let (name, width) = &inputs[pick(inputs.len(), &mut rng)];
                Action::Poke(name.clone(), random_bits(*width, &mut rng))
            }
            40..=44 if !m.arrays.is_empty() => {
                let a = pick(m.arrays.len(), &mut rng);
                let decl = &m.arrays[a];
                let index = pick(decl.depth, &mut rng);
                // An off-width value: the facade resizes it.
                let value = random_bits(decl.width + 3, &mut rng);
                Action::PokeArray(ArrayId(a), index, value)
            }
            45..=64 => Action::Peek(signals[pick(signals.len(), &mut rng)].1.clone()),
            65..=74 => {
                let s = Expr::Signal(signals[pick(signals.len(), &mut rng)].0);
                Action::Eval(match pick(3, &mut rng) {
                    0 => s,
                    1 => Expr::Unary(UnaryOp::RedXor, Box::new(s)),
                    _ if !m.arrays.is_empty() => Expr::ArrayRead {
                        array: ArrayId(pick(m.arrays.len(), &mut rng)),
                        index: Box::new(s),
                    },
                    _ => s.not(),
                })
            }
            75..=76 => Action::Reset,
            _ => Action::Step,
        })
        .collect()
}

/// Runs `actions` on a fresh `Sim`. With `eager`, every signal is peeked
/// and one expression evaluated after each action that changes state, so
/// the engine settles right there instead of at the next read or step.
/// Forcing through both read paths makes one that skips its settle read
/// differently from the scripted run.
fn run(m: &Module, backend: Backend, actions: &[Action], eager: bool) -> Observed {
    let mut sim = Sim::with_backend(m, backend).expect("design simulates");
    let ids: Vec<SignalId> = m.iter_signals().map(|(id, _)| id).collect();
    let mut seen = Observed::default();
    for action in actions {
        match action {
            Action::Poke(name, v) => sim.poke(name, v.clone()).expect("poke"),
            Action::PokeArray(a, index, v) => sim.poke_array(*a, *index, v.clone()),
            Action::Peek(name) => seen.reads.push(sim.peek(name).expect("peek")),
            Action::Eval(e) => seen.reads.push(sim.eval(e)),
            Action::Reset => {
                seen.logs.push(sim.log.clone());
                sim.reset();
                seen.states
                    .push((sim.state_fingerprint(), sim.toggle_counts()));
            }
            Action::Step => {
                sim.step().expect("step");
                seen.states
                    .push((sim.state_fingerprint(), sim.toggle_counts()));
            }
        }
        if eager && !matches!(action, Action::Peek(_) | Action::Eval(_)) {
            for id in &ids {
                sim.peek_id(*id);
            }
            sim.eval(&Expr::Signal(ids[0]));
        }
    }
    seen.logs.push(sim.log.clone());
    seen
}

/// A design whose prints, memory and wide register depend on the inputs.
fn printer() -> Module {
    let mut m = Module::new("printer");
    let en = m.input("en", 1);
    let wide = m.input("wide", 100);
    let addr = m.input("addr", 3);
    let q = m.reg("q", 100);
    let out = m.output("out", 16);
    let mem = m.array("mem", 16, 8);
    m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(Expr::Signal(wide)));
    m.array_write(
        mem,
        Expr::Signal(en),
        Expr::Signal(addr),
        Expr::Signal(q).slice(0, 16),
    );
    m.assign(
        out,
        Expr::ArrayRead {
            array: mem,
            index: Box::new(Expr::Signal(addr)),
        },
    );
    m.dprint(Expr::Signal(en), "q", Some(Expr::Signal(q)));
    m
}

#[test]
fn lazy_settling_reads_what_eager_settling_reads() {
    let mut modules: Vec<Module> = anvil_designs::registry()
        .iter()
        .map(|d| (d.anvil)())
        .collect();
    modules.push(printer());
    for (i, m) in modules.iter().enumerate() {
        let seed = 0x1A2B_5E77_1E00_0001 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let actions = script(m, seed);
        let mut lazy = Vec::new();
        for backend in [Backend::Tree, Backend::Compiled] {
            let seen = run(m, backend, &actions, false);
            let eager = run(m, backend, &actions, true);
            assert_eq!(seen, eager, "`{}` on {backend}", m.name);
            lazy.push(seen);
        }
        assert_eq!(lazy[0], lazy[1], "`{}`: tree against compiled", m.name);
    }
}
