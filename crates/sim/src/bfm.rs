//! Bus-functional models for Anvil channel handshakes.
//!
//! Anvil lowers each message of a channel to up to three ports —
//! `data`, `valid`, `ack` (paper §6.2). A transfer completes in the first
//! cycle where both `valid` and `ack` are high. These BFMs play the role of
//! the *other* process on a channel so a compiled Anvil process can be
//! simulated and its latency measured in isolation, including with
//! randomized partner latencies (used to property-test the paper's safety
//! theorem: no matter when partners respond, observed values obey the
//! contracts).

use std::collections::VecDeque;

use anvil_rtl::Bits;

use crate::engine::{Sim, SimError};

/// Names of the (up to three) ports a message lowers to.
///
/// `None` means the port was omitted because the sync mode is static or
/// dependent (§6.2 "Message Lowering"); the BFM then treats the handshake
/// line as constantly asserted.
#[derive(Clone, Debug, Default)]
pub struct MsgPorts {
    /// Payload port name, if any.
    pub data: Option<String>,
    /// Sender-side handshake port name, if any.
    pub valid: Option<String>,
    /// Receiver-side handshake port name, if any.
    pub ack: Option<String>,
}

impl MsgPorts {
    /// Conventional port names `{ep}_{msg}_{data,valid,ack}`, keeping only
    /// the ones that exist in the module.
    pub fn conventional(sim: &Sim, ep: &str, msg: &str) -> MsgPorts {
        let pick = |suffix: &str| {
            let name = format!("{ep}_{msg}_{suffix}");
            sim.module().find(&name).map(|_| name)
        };
        MsgPorts {
            data: pick("data"),
            valid: pick("valid"),
            ack: pick("ack"),
        }
    }
}

/// An agent advanced by the [`Testbench`] once per cycle.
///
/// Each cycle runs `drive` for every agent (pokes, based on state decided
/// in earlier cycles), then `observe` for every agent (peeks; completion
/// detection), then clocks the design.
pub trait Agent: std::any::Any {
    /// Phase 1: drive inputs for this cycle.
    fn drive(&mut self, sim: &mut Sim) -> Result<(), SimError>;
    /// Phase 2: observe this cycle's outputs. Read-only on the design:
    /// the first peek after the pokes settles it (see [`Sim`]).
    fn observe(&mut self, sim: &Sim) -> Result<(), SimError>;
    /// Upcast for concrete-type retrieval from a [`Testbench`].
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Sends messages *into* the design: the design is the receiver, so
/// `data`/`valid` are design inputs and `ack` is a design output.
///
/// Transactions are queued with a pre-delay (idle cycles before asserting
/// `valid`), which lets tests model upstream modules of any latency.
#[derive(Debug)]
pub struct SenderBfm {
    ports: MsgPorts,
    queue: VecDeque<(Bits, u64)>,
    idle_remaining: u64,
    active: Option<Bits>,
    /// Cycles at which each transfer completed.
    pub completions: Vec<u64>,
}

impl SenderBfm {
    /// Creates a sender over the given ports.
    pub fn new(ports: MsgPorts) -> Self {
        SenderBfm {
            ports,
            queue: VecDeque::new(),
            idle_remaining: 0,
            active: None,
            completions: Vec::new(),
        }
    }

    /// Queues a value to send after `pre_delay` idle cycles.
    pub fn push(&mut self, value: Bits, pre_delay: u64) {
        self.queue.push_back((value, pre_delay));
    }

    /// True when every queued transfer has completed.
    pub fn done(&self) -> bool {
        self.queue.is_empty() && self.active.is_none()
    }
}

impl Agent for SenderBfm {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn drive(&mut self, sim: &mut Sim) -> Result<(), SimError> {
        if self.active.is_none() && self.idle_remaining == 0 {
            if let Some((value, delay)) = self.queue.pop_front() {
                if delay == 0 {
                    self.active = Some(value);
                } else {
                    self.idle_remaining = delay;
                    self.queue.push_front((value, 0));
                }
            }
        }
        if self.active.is_none() && self.idle_remaining > 0 {
            self.idle_remaining -= 1;
            if self.idle_remaining == 0 {
                if let Some((value, _)) = self.queue.pop_front() {
                    self.active = Some(value);
                }
            }
        }
        match &self.active {
            Some(v) => {
                if let Some(p) = &self.ports.data {
                    sim.poke(p, v.clone())?;
                }
                if let Some(p) = &self.ports.valid {
                    sim.poke(p, Bits::bit(true))?;
                }
            }
            None => {
                if let Some(p) = &self.ports.valid {
                    sim.poke(p, Bits::bit(false))?;
                }
            }
        }
        Ok(())
    }

    fn observe(&mut self, sim: &Sim) -> Result<(), SimError> {
        if self.active.is_some() {
            let acked = match &self.ports.ack {
                Some(p) => sim.peek(p)?.is_truthy(),
                None => true,
            };
            if acked {
                self.completions.push(sim.cycle());
                self.active = None;
            }
        }
        Ok(())
    }
}

/// How quickly a [`ReceiverBfm`] acknowledges incoming transfers.
#[derive(Debug)]
pub enum AckPolicy {
    /// `ack` held high permanently: zero-latency receiver.
    AlwaysReady,
    /// After observing `valid`, wait the next delay (≥ 1 cycles) from the
    /// queue before asserting `ack`; repeats the last entry when exhausted.
    DelayQueue(VecDeque<u64>),
}

/// Receives messages *from* the design: `data`/`valid` are design outputs
/// and `ack` is a design input.
#[derive(Debug)]
pub struct ReceiverBfm {
    ports: MsgPorts,
    policy: AckPolicy,
    countdown: Option<u64>,
    ack_now: bool,
    /// `(cycle, value)` for every completed transfer.
    pub received: Vec<(u64, Bits)>,
}

impl ReceiverBfm {
    /// Creates a receiver with the given acknowledgement policy.
    pub fn new(ports: MsgPorts, policy: AckPolicy) -> Self {
        let ack_now = matches!(policy, AckPolicy::AlwaysReady);
        ReceiverBfm {
            ports,
            policy,
            countdown: None,
            ack_now,
            received: Vec::new(),
        }
    }

    /// The values received so far, without cycle stamps.
    pub fn values(&self) -> Vec<Bits> {
        self.received.iter().map(|(_, v)| v.clone()).collect()
    }
}

impl Agent for ReceiverBfm {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn drive(&mut self, sim: &mut Sim) -> Result<(), SimError> {
        if let Some(p) = &self.ports.ack {
            sim.poke(p, Bits::bit(self.ack_now))?;
        }
        Ok(())
    }

    fn observe(&mut self, sim: &Sim) -> Result<(), SimError> {
        let valid = match &self.ports.valid {
            Some(p) => sim.peek(p)?.is_truthy(),
            None => true,
        };
        let acked = match &self.ports.ack {
            Some(_) => self.ack_now,
            None => true,
        };
        if valid && acked {
            let value = match &self.ports.data {
                Some(p) => sim.peek(p)?,
                None => Bits::bit(true),
            };
            self.received.push((sim.cycle(), value));
            // Transfer done; re-arm.
            match &mut self.policy {
                AckPolicy::AlwaysReady => {}
                AckPolicy::DelayQueue(_) => {
                    self.ack_now = false;
                    self.countdown = None;
                }
            }
            return Ok(());
        }
        if valid && !acked {
            match &mut self.policy {
                AckPolicy::AlwaysReady => self.ack_now = true,
                AckPolicy::DelayQueue(q) => {
                    if self.countdown.is_none() {
                        let d = if q.len() > 1 {
                            q.pop_front().unwrap_or(1)
                        } else {
                            q.front().copied().unwrap_or(1)
                        };
                        self.countdown = Some(d.max(1));
                    }
                    if let Some(c) = &mut self.countdown {
                        *c -= 1;
                        if *c == 0 {
                            self.ack_now = true;
                            self.countdown = None;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Runs a simulation together with a set of [`Agent`]s.
pub struct Testbench {
    /// The simulated design.
    pub sim: Sim,
    agents: Vec<Box<dyn Agent>>,
}

impl Testbench {
    /// Wraps a simulation with no agents yet.
    pub fn new(sim: Sim) -> Self {
        Testbench {
            sim,
            agents: Vec::new(),
        }
    }

    /// Adds an agent; returns its index for later retrieval.
    pub fn add(&mut self, agent: Box<dyn Agent>) -> usize {
        self.agents.push(agent);
        self.agents.len() - 1
    }

    /// Borrows an agent back, downcast to its concrete type.
    pub fn agent<T: 'static>(&self, idx: usize) -> Option<&T> {
        self.agents.get(idx)?.as_any().downcast_ref::<T>()
    }

    /// Advances one cycle: drive all agents, observe all agents, clock
    /// the design.
    pub fn cycle(&mut self) -> Result<(), SimError> {
        for a in &mut self.agents {
            a.drive(&mut self.sim)?;
        }
        for a in &mut self.agents {
            a.observe(&self.sim)?;
        }
        self.sim.step()
    }

    /// Runs `n` cycles.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.cycle()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_rtl::{Expr, Module};

    /// A design that receives a message (in_*), adds one, and sends it back
    /// out (out_*) one cycle later, always ready.
    fn echo_plus_one() -> Sim {
        let mut m = Module::new("echo");
        let in_data = m.input("in_m_data", 8);
        let in_valid = m.input("in_m_valid", 1);
        let in_ack = m.output("in_m_ack", 1);
        let out_data = m.output("out_m_data", 8);
        let out_valid = m.output("out_m_valid", 1);
        let out_ack = m.input("out_m_ack", 1);

        let busy = m.reg("busy", 1);
        let held = m.reg("held", 8);
        // Accept a new input whenever not busy.
        let accept = m.wire_from(
            "accept",
            Expr::Signal(in_valid).and(Expr::Signal(busy).not()),
        );
        m.assign(in_ack, Expr::Signal(busy).not());
        m.update_when(
            held,
            Expr::Signal(accept),
            Expr::Signal(in_data).add(Expr::lit(1, 8)),
        );
        // busy := accept ? 1 : (out handshake done ? 0 : busy)
        let out_done = m.wire_from("out_done", Expr::Signal(busy).and(Expr::Signal(out_ack)));
        let next_busy = Expr::mux(
            Expr::Signal(accept),
            Expr::bit(true),
            Expr::mux(Expr::Signal(out_done), Expr::bit(false), Expr::Signal(busy)),
        );
        m.set_next(busy, next_busy);
        m.assign(out_valid, Expr::Signal(busy));
        m.assign(out_data, Expr::Signal(held));
        Sim::new(&m).unwrap()
    }

    #[test]
    fn sender_receiver_roundtrip() {
        let sim = echo_plus_one();
        let in_ports = MsgPorts::conventional(&sim, "in", "m");
        let out_ports = MsgPorts::conventional(&sim, "out", "m");
        assert!(in_ports.valid.is_some());

        let mut tb = Testbench::new(sim);
        let mut sender = SenderBfm::new(in_ports);
        for (i, delay) in [(10u64, 0u64), (20, 2), (30, 0)] {
            sender.push(Bits::from_u64(i, 8), delay);
        }
        tb.add(Box::new(sender));
        tb.add(Box::new(ReceiverBfm::new(
            out_ports,
            AckPolicy::AlwaysReady,
        )));
        tb.run(30).unwrap();

        // Can't easily retrieve boxed agents generically; re-run with direct
        // agent handling instead.
        let sim = echo_plus_one();
        let in_ports = MsgPorts::conventional(&sim, "in", "m");
        let out_ports = MsgPorts::conventional(&sim, "out", "m");
        let mut sim = sim;
        let mut sender = SenderBfm::new(in_ports);
        let mut recv = ReceiverBfm::new(out_ports, AckPolicy::AlwaysReady);
        for (i, delay) in [(10u64, 0u64), (20, 2), (30, 0)] {
            sender.push(Bits::from_u64(i, 8), delay);
        }
        for _ in 0..30 {
            sender.drive(&mut sim).unwrap();
            recv.drive(&mut sim).unwrap();
            sender.observe(&sim).unwrap();
            recv.observe(&sim).unwrap();
            sim.step().unwrap();
        }
        assert!(sender.done());
        let vals: Vec<u64> = recv.values().iter().map(|b| b.to_u64()).collect();
        assert_eq!(vals, vec![11, 21, 31]);
    }

    #[test]
    fn slow_receiver_backpressures() {
        let sim = echo_plus_one();
        let in_ports = MsgPorts::conventional(&sim, "in", "m");
        let out_ports = MsgPorts::conventional(&sim, "out", "m");
        let mut sim = sim;
        let mut sender = SenderBfm::new(in_ports);
        let mut recv = ReceiverBfm::new(out_ports, AckPolicy::DelayQueue(VecDeque::from([3u64])));
        sender.push(Bits::from_u64(1, 8), 0);
        sender.push(Bits::from_u64(2, 8), 0);
        for _ in 0..40 {
            sender.drive(&mut sim).unwrap();
            recv.drive(&mut sim).unwrap();
            sender.observe(&sim).unwrap();
            recv.observe(&sim).unwrap();
            sim.step().unwrap();
        }
        let vals: Vec<u64> = recv.values().iter().map(|b| b.to_u64()).collect();
        assert_eq!(vals, vec![2, 3]);
        // With a 3-cycle ack delay, consecutive completions are spaced out.
        assert!(recv.received[1].0 - recv.received[0].0 >= 3);
    }
}
