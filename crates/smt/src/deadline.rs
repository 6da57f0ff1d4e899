//! Monotonic wall-clock deadlines and the [`Control`] every cooperative
//! loop polls.
//!
//! The solver, PDR, and the verify engines all bound *work* (conflicts,
//! obligations, unrolling depth) but none of that caps *time*: a
//! pathological cone can burn minutes inside its budgets. [`Deadline`]
//! is the wall-clock counterpart — a `Copy` wrapper over an optional
//! [`Instant`]. Expiry is advisory: the loop observes it and unwinds
//! with whatever partial result it has (`Interrupted`, `Unknown{depth}`,
//! a `DeadlineExceeded` error), never by killing a thread.
//!
//! Built on [`Instant`], so it is monotonic: a wall-clock step (NTP,
//! suspend/resume) never fires or starves a deadline.
//!
//! [`Control`] bundles a deadline with an optional stop flag: it is what
//! one request hands to every stage it runs (compile, check, prove), so
//! all of them answer to the same limits. Every poll, in the SAT solver,
//! in PDR and in the prover's engines, reads a `Control` through
//! [`Control::interrupted`], so a raised flag and an expired deadline
//! stop the work at the same points and report the same way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point in monotonic time after which cooperative work should stop.
///
/// `Deadline::none()` (the `Default`) never expires and costs one
/// `Option` discriminant check per poll, so deadline support can thread
/// through hot loops unconditionally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// Expires `dur` from now.
    pub fn after(dur: Duration) -> Deadline {
        Deadline(Instant::now().checked_add(dur))
    }

    /// Expires `ms` milliseconds from now. `in_ms(0)` is already
    /// expired — useful for "fail fast" probes and tests.
    pub fn in_ms(ms: u64) -> Deadline {
        Deadline::after(Duration::from_millis(ms))
    }

    /// True when no deadline is set (never expires).
    pub fn is_none(&self) -> bool {
        self.0.is_none()
    }

    /// True once the deadline has passed. Never true for
    /// [`Deadline::none`].
    pub fn expired(&self) -> bool {
        match self.0 {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// True once the deadline has been missed by more than `grace` —
    /// the watchdog predicate: workers get `grace` past expiry to
    /// unwind cooperatively before their stop flag is raised for them.
    pub fn expired_by(&self, grace: Duration) -> bool {
        match self.0 {
            Some(at) => Instant::now().checked_duration_since(at) > Some(grace),
            None => false,
        }
    }
}

/// Why cooperative work stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock [`Deadline`] passed.
    DeadlineExceeded,
    /// The stop flag was raised.
    Cancelled,
}

/// The limits one unit of cooperative work runs under: an optional stop
/// flag (raised by a `cancel`, a shutdown, or a watchdog) and a
/// wall-clock [`Deadline`].
#[derive(Clone, Debug, Default)]
pub struct Control {
    /// Cooperative stop flag; `None` when nothing can cancel the work.
    pub stop: Option<Arc<AtomicBool>>,
    /// Wall-clock bound; [`Deadline::none`] when there is none.
    pub deadline: Deadline,
}

impl Control {
    /// No stop flag, no deadline: the work always runs to completion.
    pub fn none() -> Control {
        Control::default()
    }

    /// Whether the work should stop now, and why. An expired deadline is
    /// reported ahead of a raised stop flag, so a watchdog that raises
    /// the flag *because* the deadline passed still surfaces as
    /// [`Interrupt::DeadlineExceeded`], not a cancellation.
    pub fn interrupted(&self) -> Option<Interrupt> {
        if self.deadline.expired() {
            Some(Interrupt::DeadlineExceeded)
        } else if self
            .stop
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
        {
            Some(Interrupt::Cancelled)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert!(!d.expired_by(Duration::ZERO));
        assert!(d.is_none());
        assert_eq!(Deadline::default(), Deadline::none());
    }

    #[test]
    fn zero_is_already_expired() {
        let d = Deadline::in_ms(0);
        assert!(!d.is_none());
        assert!(d.expired());
    }

    #[test]
    fn future_deadline_not_yet_expired() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(!d.expired_by(Duration::ZERO));
    }

    #[test]
    fn grace_margin_delays_watchdog() {
        let d = Deadline::in_ms(0);
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.expired());
        assert!(d.expired_by(Duration::ZERO));
        assert!(!d.expired_by(Duration::from_secs(3600)));
    }
}
