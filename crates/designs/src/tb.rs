//! Shared testbench helpers for driving design pairs.
//!
//! Every evaluation design exists twice — compiled from Anvil source and
//! handwritten against the RTL builder — with identical port names, so one
//! testbench drives both and compares outputs value-for-value (the §7.1
//! "identical functional behaviour" methodology).

use anvil_rtl::{Bits, Module};
use anvil_sim::{AckPolicy, Agent, MsgPorts, ReceiverBfm, SenderBfm, Sim, SimError};

/// Transactions captured from one run: `(completion cycle, value)`.
pub type Trace = Vec<(u64, Bits)>;

/// Drives one request stream in and collects one response stream out.
///
/// `reqs` are `(value, idle-cycles-before)` pairs; the receiver acks
/// according to `ack_delays` (empty = always ready).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_req_res(
    module: &Module,
    req_ep_msg: (&str, &str),
    res_ep_msg: (&str, &str),
    reqs: &[(Bits, u64)],
    ack_delays: &[u64],
    cycles: u64,
) -> Result<Trace, SimError> {
    let mut sim = Sim::new(module)?;
    let req_ports = MsgPorts::conventional(&sim, req_ep_msg.0, req_ep_msg.1);
    let res_ports = MsgPorts::conventional(&sim, res_ep_msg.0, res_ep_msg.1);
    let mut sender = SenderBfm::new(req_ports);
    for (v, d) in reqs {
        sender.push(v.clone(), *d);
    }
    let policy = if ack_delays.is_empty() {
        AckPolicy::AlwaysReady
    } else {
        AckPolicy::DelayQueue(ack_delays.iter().copied().collect())
    };
    let mut recv = ReceiverBfm::new(res_ports, policy);
    for _ in 0..cycles {
        sender.drive(&mut sim)?;
        recv.drive(&mut sim)?;
        sender.observe(&sim)?;
        recv.observe(&sim)?;
        sim.step()?;
    }
    Ok(recv.received)
}

/// Runs the same request/response workload against two modules and
/// asserts the received *values* match exactly.
///
/// Returns both traces (with cycle stamps) for latency comparison.
///
/// # Panics
///
/// Panics if the value sequences differ.
pub fn assert_equivalent(
    a: &Module,
    b: &Module,
    req_ep_msg: (&str, &str),
    res_ep_msg: (&str, &str),
    reqs: &[(Bits, u64)],
    ack_delays: &[u64],
    cycles: u64,
) -> (Trace, Trace) {
    let ta = run_req_res(a, req_ep_msg, res_ep_msg, reqs, ack_delays, cycles)
        .unwrap_or_else(|e| panic!("simulating `{}`: {e}", a.name));
    let tb = run_req_res(b, req_ep_msg, res_ep_msg, reqs, ack_delays, cycles)
        .unwrap_or_else(|e| panic!("simulating `{}`: {e}", b.name));
    let va: Vec<&Bits> = ta.iter().map(|(_, v)| v).collect();
    let vb: Vec<&Bits> = tb.iter().map(|(_, v)| v).collect();
    assert_eq!(
        va, vb,
        "value mismatch between `{}` and `{}`",
        a.name, b.name
    );
    (ta, tb)
}

/// One xorshift64 step: the deterministic PRNG shared by the
/// differential backend tests, the pass-subset behavioural properties,
/// and the simulator benches, so they all exercise the same stimulus for
/// a given seed.
pub fn xorshift64(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// All input ports of a module as `(name, width)`, in id order — the
/// poke-list for whole-interface random stimulus.
pub fn input_ports(module: &Module) -> Vec<(String, usize)> {
    module
        .iter_signals()
        .filter(|(_, s)| s.kind == anvil_rtl::SignalKind::Input)
        .map(|(_, s)| (s.name.clone(), s.width))
        .collect()
}

/// Pokes one xorshift-derived random value on every input port.
pub fn poke_random_inputs(
    sim: &mut Sim,
    inputs: &[(String, usize)],
    rng: &mut u64,
) -> Result<(), SimError> {
    for (name, width) in inputs {
        sim.poke(name, Bits::from_u64(xorshift64(rng), *width))?;
    }
    Ok(())
}

/// Measures switching activity under a random-input workload (for the
/// power model): pokes random values on every input for `cycles`.
pub fn random_activity(module: &Module, cycles: u64, seed: u64) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(module).expect("design simulates");
    let inputs = input_ports(module);
    for _ in 0..cycles {
        for (name, width) in &inputs {
            let v = Bits::from_u64(rng.gen(), *width);
            sim.poke(name, v).expect("poking input");
        }
        sim.step().expect("stepping");
    }
    sim.switching_activity()
}
