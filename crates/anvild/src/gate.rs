//! Admission control and service health accounting for [`crate::CompileService`].
//!
//! The daemon survives overload by *shedding* rather than queueing
//! without bound: heavy requests (compile / diagnostics / prove) pass
//! through an [`AdmissionGate`] sized by [`ServiceConfig`] — up to
//! `max_concurrency` run at once, up to `max_queue` wait their turn on a
//! condvar, and anything beyond that is rejected immediately with
//! `OVERLOADED` (`-32004`) plus a `retryAfterMs` hint derived from an
//! EWMA of recent service times. Cheap registry/control methods (ping,
//! open, cancel, health, ...) bypass the gate entirely, so wedged gate
//! slots never take liveness probes down with them.
//!
//! [`ServiceCounters`] holds the operational counters the `health`
//! method reports (and [`ServiceStats`] snapshots for tests): requests
//! seen, sheds, deadline expiries, watchdog firings, recovered panics,
//! cancellations, completions. The counters are handles into the
//! service's [`anvil_trace::Registry`], so `health`, `cacheStats`, the
//! `metrics` method, and the Prometheus exposition all read the same
//! numbers — there is no bespoke counter plumbing to drift out of sync.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use anvil_trace::{Counter, Gauge, Registry};

/// Tunables for one [`crate::CompileService`]: worker cap, queue depth,
/// default deadline, watchdog grace, and the chaos switch.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Heavy requests (compile / diagnostics / prove) running at once.
    pub max_concurrency: usize,
    /// Heavy requests allowed to wait beyond the running cap before the
    /// gate sheds with `OVERLOADED`.
    pub max_queue: usize,
    /// Deadline applied to requests that carry no `deadlineMs` param
    /// (`None` = no default; such requests can run forever unless
    /// cancelled).
    pub default_deadline_ms: Option<u64>,
    /// How far past its deadline a worker may run before the watchdog
    /// raises its stop flag and counts a recovery.
    pub watchdog_grace_ms: u64,
    /// When true, honors the `#[doc(hidden)]` chaos hooks (the
    /// `chaosStallMs` compile param). Off in production.
    pub chaos: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_concurrency: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
                .clamp(2, 8),
            max_queue: 32,
            default_deadline_ms: None,
            watchdog_grace_ms: 250,
            chaos: false,
        }
    }
}

/// What the gate decided for an arriving heavy request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// A worker slot was free; run immediately.
    Run,
    /// All slots busy but queue space was free; call
    /// [`AdmissionGate::wait_turn`] before running.
    Queued,
    /// Queue full too; shed with `OVERLOADED` without starting.
    Shed,
}

#[derive(Default)]
struct GateState {
    running: usize,
    queued: usize,
}

/// Bounded two-stage admission: `max_concurrency` running,
/// `max_queue` waiting, everything else shed at arrival.
pub struct AdmissionGate {
    state: Mutex<GateState>,
    turn: Condvar,
    max_concurrency: usize,
    max_queue: usize,
}

impl AdmissionGate {
    pub fn new(max_concurrency: usize, max_queue: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            turn: Condvar::new(),
            max_concurrency: max_concurrency.max(1),
            max_queue,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        // The gate holds no invariants a panicking thread could break
        // mid-update; recover rather than cascade.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Decides at arrival: run now, wait in the bounded queue, or shed.
    pub fn try_admit(&self) -> Admission {
        let mut state = self.lock();
        if state.running < self.max_concurrency {
            state.running += 1;
            Admission::Run
        } else if state.queued < self.max_queue {
            state.queued += 1;
            Admission::Queued
        } else {
            Admission::Shed
        }
    }

    /// Blocks a [`Admission::Queued`] request until a worker slot frees.
    pub fn wait_turn(&self) {
        let mut state = self.lock();
        while state.running >= self.max_concurrency {
            state = self.turn.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.queued = state.queued.saturating_sub(1);
        state.running += 1;
    }

    /// Releases a worker slot (must pair every `Run` admission and every
    /// `wait_turn` return) and wakes one queued waiter.
    pub fn depart(&self) {
        let mut state = self.lock();
        state.running = state.running.saturating_sub(1);
        drop(state);
        self.turn.notify_one();
    }

    /// Gives back an admission whose request never started (no thread
    /// could be started to read on while it ran): frees the running slot
    /// or the queue slot it held.
    pub fn withdraw(&self, admission: Admission) {
        match admission {
            Admission::Run => self.depart(),
            Admission::Queued => {
                let mut state = self.lock();
                state.queued = state.queued.saturating_sub(1);
            }
            Admission::Shed => {}
        }
    }

    /// Current `(running, queued)` gauges, for `health` and shed hints.
    pub fn gauges(&self) -> (usize, usize) {
        let state = self.lock();
        (state.running, state.queued)
    }
}

/// Monotonic operational counters backing the `health` method — thin
/// handles into the service's metrics [`Registry`], fetched once at
/// construction so the hot path stays lock-free.
pub struct ServiceCounters {
    started: Instant,
    registry: Arc<Registry>,
    /// Requests dispatched (frames with a method, including sheds).
    pub requests: Arc<Counter>,
    /// Heavy requests rejected with `OVERLOADED` before starting.
    pub shed: Arc<Counter>,
    /// Responses that reported `DEADLINE_EXCEEDED`.
    pub deadline_expired: Arc<Counter>,
    /// Stop flags raised by the watchdog on overdue workers.
    pub watchdog_fired: Arc<Counter>,
    /// Handler panics caught and converted to `INTERNAL_ERROR`.
    pub panics_recovered: Arc<Counter>,
    /// Responses that reported `REQUEST_CANCELLED`.
    pub cancelled: Arc<Counter>,
    /// Requests that produced a response (success or error).
    pub completed: Arc<Counter>,
    /// Connection threads started by the serve loop.
    pub threads_started: Arc<Counter>,
    /// EWMA of heavy-request service time, milliseconds (alpha = 1/4).
    pub ewma_service_ms: Arc<Gauge>,
    /// Full distribution of heavy-request service times, microseconds.
    pub service_us: Arc<anvil_trace::Histogram>,
}

impl ServiceCounters {
    pub fn new() -> ServiceCounters {
        ServiceCounters::with_registry(Arc::new(Registry::new()))
    }

    /// Counters registered in (and readable back from) `registry`.
    pub fn with_registry(registry: Arc<Registry>) -> ServiceCounters {
        ServiceCounters {
            started: Instant::now(),
            requests: registry.counter("anvild_requests_total"),
            shed: registry.counter("anvild_shed_total"),
            deadline_expired: registry.counter("anvild_deadline_expired_total"),
            watchdog_fired: registry.counter("anvild_watchdog_fired_total"),
            panics_recovered: registry.counter("anvild_panics_recovered_total"),
            cancelled: registry.counter("anvild_cancelled_total"),
            completed: registry.counter("anvild_completed_total"),
            threads_started: registry.counter("anvild_threads_started_total"),
            ewma_service_ms: registry.gauge("anvild_ewma_service_ms"),
            service_us: registry.histogram("anvild_service_us"),
            registry,
        }
    }

    /// The registry these counters live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Milliseconds since the service was constructed.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Folds one heavy-request service time into the EWMA gauge and the
    /// service-time histogram.
    pub fn observe_service_micros(&self, micros: u64) {
        self.ewma_service_ms.observe_ewma(micros as f64 / 1000.0);
        self.service_us.observe(micros);
    }

    /// The service-time EWMA in microseconds (for `retryAfterMs`).
    pub fn ewma_service_micros(&self) -> u64 {
        (self.ewma_service_ms.get() * 1000.0) as u64
    }
}

impl Default for ServiceCounters {
    fn default() -> ServiceCounters {
        ServiceCounters::new()
    }
}

/// A point-in-time snapshot of the service's health counters — the same
/// numbers the `health` method returns on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Milliseconds since the service was constructed.
    pub uptime_ms: u64,
    /// Heavy requests currently occupying a worker slot.
    pub in_flight: usize,
    /// Heavy requests waiting for a worker slot.
    pub queued: usize,
    /// Requests dispatched so far (including sheds).
    pub requests: u64,
    /// Heavy requests rejected with `OVERLOADED` before starting.
    pub shed: u64,
    /// Responses that reported `DEADLINE_EXCEEDED`.
    pub deadline_expired: u64,
    /// Stop flags raised by the watchdog on overdue workers.
    pub watchdog_fired: u64,
    /// Handler panics caught and converted to `INTERNAL_ERROR`.
    pub panics_recovered: u64,
    /// Responses that reported `REQUEST_CANCELLED`.
    pub cancelled: u64,
    /// Requests that produced a response (success or error).
    pub completed: u64,
    /// Connection threads started by the serve loop.
    pub threads_started: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_up_to_cap_then_queues_then_sheds() {
        let gate = AdmissionGate::new(2, 1);
        assert_eq!(gate.try_admit(), Admission::Run);
        assert_eq!(gate.try_admit(), Admission::Run);
        assert_eq!(gate.try_admit(), Admission::Queued);
        assert_eq!(gate.try_admit(), Admission::Shed);
        assert_eq!(gate.gauges(), (2, 1));
    }

    #[test]
    fn departing_wakes_a_queued_waiter() {
        let gate = AdmissionGate::new(1, 4);
        assert_eq!(gate.try_admit(), Admission::Run);
        assert_eq!(gate.try_admit(), Admission::Queued);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.wait_turn());
            std::thread::sleep(std::time::Duration::from_millis(10));
            gate.depart();
            waiter.join().unwrap();
        });
        assert_eq!(gate.gauges(), (1, 0));
    }

    #[test]
    fn withdrawing_frees_the_slot_an_admission_held() {
        let gate = AdmissionGate::new(1, 1);
        assert_eq!(gate.try_admit(), Admission::Run);
        assert_eq!(gate.try_admit(), Admission::Queued);
        assert_eq!(gate.try_admit(), Admission::Shed);
        gate.withdraw(Admission::Queued);
        assert_eq!(gate.gauges(), (1, 0));
        gate.withdraw(Admission::Run);
        assert_eq!(gate.gauges(), (0, 0));
        assert_eq!(gate.try_admit(), Admission::Run);
    }

    #[test]
    fn ewma_smooths_toward_recent_observations() {
        let c = ServiceCounters::new();
        c.observe_service_micros(1000);
        assert_eq!(c.ewma_service_micros(), 1000);
        c.observe_service_micros(2000);
        assert_eq!(c.ewma_service_micros(), 1250);
    }

    #[test]
    fn counters_are_readable_back_from_the_registry() {
        let c = ServiceCounters::new();
        c.requests.add(3);
        c.shed.inc();
        c.observe_service_micros(5000);
        let snap = c.registry().snapshot();
        assert_eq!(snap.counter("anvild_requests_total"), Some(3));
        assert_eq!(snap.counter("anvild_shed_total"), Some(1));
        assert_eq!(snap.gauge("anvild_ewma_service_ms"), Some(5.0));
        assert_eq!(snap.histogram("anvild_service_us").unwrap().count, 1);
    }
}
