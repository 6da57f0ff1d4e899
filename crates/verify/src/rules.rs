//! An atomic-rule scheduler in the Bluespec SystemVerilog model
//! (paper §2.2, Fig. 2).
//!
//! BSV describes hardware as guarded atomic rules; each cycle the compiler
//! schedules a *conflict-free* subset (no two scheduled rules write the
//! same register) and executes them atomically. Figure 2's point: because
//! scheduling is per-cycle, BSV admits schedules that are conflict-free
//! every cycle yet *timing-unsafe across cycles* — e.g. mutating an
//! address register while the cache is still resolving the previous
//! request. This module implements that scheduling model so the Fig. 2
//! bench can enumerate the three candidate schedules and show which
//! violate the (externally known) timing contract.

use std::collections::{BTreeMap, BTreeSet};

/// The register state a rule engine executes over.
pub type State = BTreeMap<String, u64>;

/// One guarded atomic rule.
pub struct Rule {
    /// Rule name (used in schedules and reports).
    pub name: String,
    /// Registers the rule writes (conflict detection).
    pub writes: BTreeSet<String>,
    /// Fires only when the guard holds.
    pub guard: Box<dyn Fn(&State) -> bool>,
    /// Atomic state update.
    pub body: Box<dyn Fn(&mut State)>,
}

impl Rule {
    /// Builds a rule from closures.
    pub fn new(
        name: impl Into<String>,
        writes: &[&str],
        guard: impl Fn(&State) -> bool + 'static,
        body: impl Fn(&mut State) + 'static,
    ) -> Rule {
        Rule {
            name: name.into(),
            writes: writes.iter().map(|s| s.to_string()).collect(),
            guard: Box::new(guard),
            body: Box::new(body),
        }
    }
}

/// A rule engine with a fixed priority order (the "schedule" a BSV
/// compiler might generate).
pub struct RuleEngine {
    /// Current register state.
    pub state: State,
    rules: Vec<Rule>,
    /// Names of rules fired per cycle (the executed schedule).
    pub history: Vec<Vec<String>>,
}

impl RuleEngine {
    /// Creates an engine over the given initial state.
    pub fn new(state: State, rules: Vec<Rule>) -> RuleEngine {
        RuleEngine {
            state,
            rules,
            history: Vec::new(),
        }
    }

    /// Executes one cycle under the given rule priority order: rules are
    /// considered in `priority` order and fire if their guard holds and
    /// they do not write-conflict with an already-scheduled rule —
    /// the maximal conflict-free subset under that order.
    pub fn cycle(&mut self, priority: &[usize]) {
        let mut written: BTreeSet<String> = BTreeSet::new();
        let mut fired: Vec<usize> = Vec::new();
        for &i in priority {
            let rule = &self.rules[i];
            if !(rule.guard)(&self.state) {
                continue;
            }
            if rule.writes.iter().any(|w| written.contains(w)) {
                continue; // conflict: skipped this cycle
            }
            written.extend(rule.writes.iter().cloned());
            fired.push(i);
        }
        // Atomic execution: all bodies see the start-of-cycle state.
        let snapshot = self.state.clone();
        let mut next = self.state.clone();
        for &i in &fired {
            // Each rule reads the snapshot, writes into `next`.
            let mut scratch = snapshot.clone();
            (self.rules[i].body)(&mut scratch);
            for w in &self.rules[i].writes {
                if let Some(v) = scratch.get(w) {
                    next.insert(w.clone(), *v);
                }
            }
        }
        self.state = next;
        self.history
            .push(fired.iter().map(|i| self.rules[*i].name.clone()).collect());
    }

    /// Runs `n` cycles under one priority order.
    pub fn run(&mut self, priority: &[usize], n: usize) {
        for _ in 0..n {
            self.cycle(priority);
        }
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }
}

/// Builds the Fig. 2 scenario: `Top` reads a value from a cache (which
/// responds `latency` cycles after a request, with the result valid for
/// one cycle) and enqueues it into a FIFO. The cache contract requires
/// `address` to stay constant from request until response.
///
/// Rules: `send_cache_req`, `change_address`, `get_cache_res` (+enqueue).
/// Returns the engine; the timing contract is checked by
/// [`fig2_contract_violations`] after a run.
pub fn fig2_engine(latency: u64) -> RuleEngine {
    let mut st = State::new();
    st.insert("address".into(), 0);
    st.insert("req_inflight".into(), 0); // cycles until response; 0 = idle
    st.insert("req_addr".into(), 0); // address the cache latched
    st.insert("data_valid".into(), 0);
    st.insert("data".into(), 0);
    st.insert("enq_count".into(), 0);
    st.insert("enq_last".into(), u64::MAX);
    st.insert("addr_changed_during".into(), 0); // contract monitor

    let send_req = Rule::new(
        "send_cache_req",
        &["req_inflight", "req_addr"],
        |s| s["req_inflight"] == 0 && s["data_valid"] == 0,
        move |s| {
            s.insert("req_inflight".into(), latency);
            let a = s["address"];
            s.insert("req_addr".into(), a);
        },
    );
    let change_addr = Rule::new(
        "change_address",
        &["address", "addr_changed_during"],
        |_| true,
        |s| {
            let a = s["address"];
            s.insert("address".into(), a + 1);
            if s["req_inflight"] > 0 {
                // Contract violation: address mutated while the cache is
                // still resolving the request against `address`.
                s.insert("addr_changed_during".into(), 1);
            }
        },
    );
    let get_res = Rule::new(
        "get_cache_res",
        &[
            "req_inflight",
            "data_valid",
            "data",
            "enq_count",
            "enq_last",
        ],
        |s| s["req_inflight"] == 1,
        |s| {
            s.insert("req_inflight".into(), 0);
            // The cache dereferences the *current* address wire if the
            // requester failed to hold it (the hazard!), else req_addr.
            let effective = if s["addr_changed_during"] == 1 {
                s["address"]
            } else {
                s["req_addr"]
            };
            s.insert("data".into(), effective * 10); // "memory" contents
            s.insert("data_valid".into(), 0);
            let c = s["enq_count"];
            s.insert("enq_count".into(), c + 1);
            s.insert("enq_last".into(), effective * 10);
        },
    );
    let tick = Rule::new(
        "cache_tick",
        &["req_inflight_tick"],
        |s| s["req_inflight"] > 1,
        |s| {
            let v = s["req_inflight"];
            s.insert("req_inflight".into(), v - 1);
        },
    );
    // `cache_tick` writes req_inflight too; give it a distinct conflict
    // class so it can coexist with rules that do not touch it.
    let mut tick = tick;
    tick.writes = BTreeSet::from(["req_inflight".to_string()]);

    RuleEngine::new(st, vec![send_req, change_addr, get_res, tick])
}

/// After a run of [`fig2_engine`], reports whether the executed schedule
/// violated the cache timing contract, and what was enqueued.
pub fn fig2_contract_violations(engine: &RuleEngine) -> (bool, Vec<u64>) {
    let violated = engine.state["addr_changed_during"] == 1;
    let enq = if engine.state["enq_count"] > 0 {
        vec![engine.state["enq_last"]]
    } else {
        vec![]
    };
    (violated, enq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_fire_by_priority_without_write_conflicts() {
        let mut st = State::new();
        st.insert("x".into(), 0);
        let r1 = Rule::new(
            "inc",
            &["x"],
            |_| true,
            |s| {
                let v = s["x"];
                s.insert("x".into(), v + 1);
            },
        );
        let r2 = Rule::new(
            "dec",
            &["x"],
            |_| true,
            |s| {
                let v = s["x"];
                s.insert("x".into(), v.wrapping_sub(1));
            },
        );
        let mut e = RuleEngine::new(st, vec![r1, r2]);
        e.cycle(&[0, 1]);
        // Only `inc` fired: `dec` write-conflicts.
        assert_eq!(e.state["x"], 1);
        assert_eq!(e.history[0], vec!["inc".to_string()]);
        e.cycle(&[1, 0]);
        assert_eq!(e.state["x"], 0);
    }

    #[test]
    fn atomic_execution_reads_snapshot() {
        let mut st = State::new();
        st.insert("a".into(), 1);
        st.insert("b".into(), 2);
        let swap_a = Rule::new(
            "a_gets_b",
            &["a"],
            |_| true,
            |s| {
                let b = s["b"];
                s.insert("a".into(), b);
            },
        );
        let swap_b = Rule::new(
            "b_gets_a",
            &["b"],
            |_| true,
            |s| {
                let a = s["a"];
                s.insert("b".into(), a);
            },
        );
        let mut e = RuleEngine::new(st, vec![swap_a, swap_b]);
        e.cycle(&[0, 1]);
        assert_eq!(e.state["a"], 2);
        assert_eq!(e.state["b"], 1);
    }

    #[test]
    fn fig2_schedule_with_eager_address_change_is_unsafe() {
        // Schedule 1/2 of Fig. 2: change_address fires while the request
        // is in flight -> contract violated, wrong value enqueued.
        let mut e = fig2_engine(2);
        // Priority: send_req, change_addr, get_res, tick.
        e.run(&[0, 1, 2, 3], 6);
        let (violated, enq) = fig2_contract_violations(&e);
        assert!(violated);
        // The enqueued value comes from a *changed* address, not 0.
        assert_ne!(enq.first().copied(), Some(0));
    }

    #[test]
    fn fig2_safe_schedule_exists_but_is_not_chosen_by_conflict_freedom() {
        // Holding the address until the response (the Anvil-enforced
        // discipline) gives the correct value: only fire change_address
        // when no request is in flight.
        let mut e = fig2_engine(2);
        for _ in 0..6 {
            let inflight = e.state["req_inflight"] > 0;
            if inflight {
                e.cycle(&[0, 2, 3]); // no change_address
            } else {
                e.cycle(&[0, 1, 2, 3]);
            }
        }
        let (violated, enq) = fig2_contract_violations(&e);
        assert!(!violated);
        // Two requests complete in 6 cycles: address 0 then address 1;
        // the last enqueued datum is address 1's contents (1 * 10).
        assert_eq!(enq.first().copied(), Some(10));
    }
}
