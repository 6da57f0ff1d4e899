//! Hierarchical RAII spans with per-thread buffers and a global collector.
//!
//! The hot path is built around one invariant: **when no capture is
//! active, opening a span costs a single relaxed atomic load** and
//! allocates nothing. Instrumentation can therefore live permanently in
//! the compiler, solver, and simulator inner loops without a feature
//! flag.
//!
//! When a [`Capture`] is active, [`span`] pushes the new span id onto a
//! thread-local parent stack and the returned [`SpanGuard`] pops it on
//! `Drop` — including during unwinding, so a panicking pass still
//! closes every span exactly once. Finished spans are appended to a
//! per-thread buffer registered with a process-wide collector;
//! [`Capture::finish`] snapshots every buffer and returns the records
//! that started after the capture began.
//!
//! Cross-thread stitching is explicit: a worker spawned mid-request
//! calls [`current_span`] on the parent thread, ships the id, and opens
//! its own spans with [`SpanGuard::under`]. Timestamps are nanoseconds
//! from a process-wide monotonic epoch, so records from different
//! threads interleave correctly.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span (or instant event, when `dur_ns == 0` and the
/// record was produced by [`instant`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique id (never 0; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span at open time, or 0 for a root.
    pub parent: u64,
    /// Coarse subsystem category (`"core"`, `"sat"`, `"sim"`, ...).
    pub cat: &'static str,
    /// Event name within the category (`"compile"`, `"solve"`, ...).
    pub name: &'static str,
    /// Optional free-form detail (unit name, frame index, hit/miss).
    pub detail: Option<String>,
    /// Small dense id of the recording thread (for trace `tid`s).
    pub thread: u64,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
}

/// Number of active [`Capture`]s; tracing is enabled iff non-zero.
static ENABLED: AtomicUsize = AtomicUsize::new(0);
/// Monotonic id source for spans (0 is reserved for "no parent").
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Dense thread-id source for trace `tid`s.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Whether at least one [`Capture`] is active (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

type SharedBuf = Arc<Mutex<Vec<SpanRecord>>>;

/// The registered per-thread buffers. A buffer stays registered after
/// its thread exits, so an open capture can still drain it; the last
/// capture out drops it (see [`Capture`]).
fn collector() -> &'static Mutex<Vec<SharedBuf>> {
    static BUFS: OnceLock<Mutex<Vec<SharedBuf>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_poisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Buffers hold plain record lists; a panicking recorder leaves no
    // broken invariant behind, so recover instead of cascading.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Dense thread id, assigned on first span.
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// This thread's finished-span buffer, shared with the collector.
    static LOCAL_BUF: RefCell<Option<SharedBuf>> = const { RefCell::new(None) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let id = t.get();
        if id != 0 {
            id
        } else {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(id);
            id
        }
    })
}

fn push_record(rec: SpanRecord) {
    LOCAL_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf: SharedBuf = Arc::new(Mutex::new(Vec::new()));
            lock_poisoned(collector()).push(Arc::clone(&buf));
            buf
        });
        lock_poisoned(buf).push(rec);
    });
}

/// Id of the innermost open span on this thread, or 0.
///
/// Ship this across a thread boundary and reopen with
/// [`span_under`] to stitch worker spans into the caller's tree.
pub fn current_span() -> u64 {
    CURRENT.with(Cell::get)
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    cat: &'static str,
    name: &'static str,
    detail: Option<String>,
    start: Instant,
    start_ns: u64,
}

/// RAII guard for one open span. Closing (dropping) the guard restores
/// the previous innermost span and appends the finished record — also
/// during panics, so every opened span closes exactly once.
#[must_use = "a span measures the scope that holds its guard"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    fn open(cat: &'static str, name: &'static str, parent: u64) -> SpanGuard {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        CURRENT.with(|c| c.set(id));
        SpanGuard {
            active: Some(ActiveSpan {
                id,
                parent,
                cat,
                name,
                detail: None,
                start: Instant::now(),
                start_ns: now_ns(),
            }),
        }
    }

    /// Id of this span, or 0 if tracing was disabled at open.
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }

    /// Attaches a detail string, computed only when the span is live
    /// (no allocation on the disabled path).
    pub fn detail_with<F: FnOnce() -> String>(mut self, f: F) -> SpanGuard {
        if let Some(a) = self.active.as_mut() {
            a.detail = Some(f());
        }
        self
    }

    /// Replaces the detail string in place (no-op when disabled).
    pub fn set_detail_with<F: FnOnce() -> String>(&mut self, f: F) {
        if let Some(a) = self.active.as_mut() {
            a.detail = Some(f());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            CURRENT.with(|c| c.set(a.parent));
            let dur_ns = a.start.elapsed().as_nanos() as u64;
            push_record(SpanRecord {
                id: a.id,
                parent: a.parent,
                cat: a.cat,
                name: a.name,
                detail: a.detail,
                thread: thread_id(),
                start_ns: a.start_ns,
                dur_ns,
            });
        }
    }
}

/// Opens a span under the current thread's innermost span.
///
/// Disabled path: one relaxed atomic load, returns an inert guard.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::open(cat, name, current_span())
}

/// Opens a span under an explicit parent id (cross-thread stitching).
#[inline]
pub fn span_under(cat: &'static str, name: &'static str, parent: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard::open(cat, name, parent)
}

/// Records a zero-duration instant event under the current span.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    push_record(SpanRecord {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: current_span(),
        cat,
        name,
        detail: None,
        thread: thread_id(),
        start_ns: now_ns(),
        dur_ns: 0,
    });
}

/// Records a span measured externally (e.g. a queue wait observed by
/// the thread that dequeued the request) without touching the parent
/// stack. Returns the record's id so children can nest under it.
pub fn record_manual(
    cat: &'static str,
    name: &'static str,
    parent: u64,
    start: Instant,
    end: Instant,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let ep = epoch();
    let start_ns = start.saturating_duration_since(ep).as_nanos() as u64;
    let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
    push_record(SpanRecord {
        id,
        parent,
        cat,
        name,
        detail: None,
        thread: thread_id(),
        start_ns,
        dur_ns,
    });
    id
}

/// Enables tracing for its lifetime and collects the spans recorded
/// while active. Captures are refcounted: concurrent captures each see
/// all records produced while they were open, and buffers are only
/// cleared when the last capture finishes — which also drops the
/// buffers of threads that have exited since they were registered.
pub struct Capture {
    /// First span id that belongs to this capture. Ids are allocated
    /// monotonically at open/record time, so filtering on id (rather
    /// than timestamp) keeps retroactive [`record_manual`] records
    /// whose measured interval began before the capture did (e.g. a
    /// queue wait observed at dequeue).
    begin_id: u64,
    finished: bool,
}

impl Capture {
    /// Starts (or joins) a capture; tracing is enabled until the
    /// matching [`Capture::finish`] / drop.
    pub fn start() -> Capture {
        let begin_id = NEXT_ID.load(Ordering::SeqCst);
        ENABLED.fetch_add(1, Ordering::SeqCst);
        Capture {
            begin_id,
            finished: false,
        }
    }

    /// Stops this capture and returns every record allocated since it
    /// started, sorted by start time.
    pub fn finish(mut self) -> Vec<SpanRecord> {
        self.finished = true;
        let records = self.drain();
        self.release();
        records
    }

    fn drain(&self) -> Vec<SpanRecord> {
        let bufs: Vec<SharedBuf> = lock_poisoned(collector()).clone();
        let mut out = Vec::new();
        for buf in &bufs {
            let buf = lock_poisoned(buf);
            out.extend(buf.iter().filter(|r| r.id >= self.begin_id).cloned());
        }
        out.sort_by_key(|r| (r.start_ns, r.id));
        out
    }

    fn release(&self) {
        if ENABLED.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last capture out clears the buffers so long-lived
            // processes do not accumulate records between requests, and
            // drops those of exited threads: a buffer only the collector
            // still holds has lost its thread-local owner. Nothing takes
            // a buffer lock before the collector lock, so nesting them
            // here cannot deadlock.
            let mut bufs = lock_poisoned(collector());
            for buf in bufs.iter() {
                lock_poisoned(buf).clear();
            }
            bufs.retain(|buf| Arc::strong_count(buf) > 1);
        }
    }
}

/// Test support: how many per-thread span buffers the collector holds.
/// Hidden — exists so the buffer-pruning regression test can observe
/// the registry from outside the crate.
#[doc(hidden)]
pub fn registered_buffers_for_tests() -> usize {
    lock_poisoned(collector()).len()
}

impl Drop for Capture {
    fn drop(&mut self) {
        if !self.finished {
            self.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state (ENABLED, buffers); keep
    // them in one #[test] body each where ordering matters and tolerate
    // records from concurrent tests by filtering on our own ids.

    #[test]
    fn disabled_spans_are_inert() {
        // No capture active in this test body unless another test is
        // mid-capture; either way an inert guard has id 0 only when
        // disabled, so just exercise the API shape.
        let g = span("test", "maybe");
        drop(g);
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let cap = Capture::start();
        let ids = {
            let outer = span("test", "outer");
            let outer_id = outer.id();
            let inner = span("test", "inner").detail_with(|| "d".to_string());
            let inner_id = inner.id();
            assert_eq!(current_span(), inner_id);
            drop(inner);
            assert_eq!(current_span(), outer_id);
            (outer_id, inner_id)
        };
        let records = cap.finish();
        let outer = records.iter().find(|r| r.id == ids.0).unwrap();
        let inner = records.iter().find(|r| r.id == ids.1).unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.detail.as_deref(), Some("d"));
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn unwinding_closes_spans_and_restores_parent() {
        let cap = Capture::start();
        let root = span("test", "root");
        let root_id = root.id();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _child = span("test", "child");
            panic!("boom");
        }));
        assert!(err.is_err());
        // The child guard dropped during unwind and restored us.
        assert_eq!(current_span(), root_id);
        drop(root);
        let records = cap.finish();
        let child = records
            .iter()
            .find(|r| r.name == "child" && r.parent == root_id)
            .unwrap();
        assert!(child.id != 0);
    }

    #[test]
    fn cross_thread_spans_stitch_under_explicit_parent() {
        let cap = Capture::start();
        let root = span("test", "xthread-root");
        let root_id = root.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = span_under("test", "worker", root_id);
            })
            .join()
            .unwrap();
        });
        drop(root);
        let records = cap.finish();
        let worker = records.iter().find(|r| r.name == "worker").unwrap();
        let root = records.iter().find(|r| r.id == root_id).unwrap();
        assert_eq!(worker.parent, root_id);
        assert_ne!(worker.thread, root.thread);
    }

    #[test]
    fn capture_filters_to_its_own_window() {
        let outer = Capture::start();
        drop(span("test", "before-inner"));
        let inner = Capture::start();
        drop(span("test", "during-inner"));
        let inner_records = inner.finish();
        assert!(inner_records.iter().any(|r| r.name == "during-inner"));
        assert!(!inner_records.iter().any(|r| r.name == "before-inner"));
        let outer_records = outer.finish();
        assert!(outer_records.iter().any(|r| r.name == "before-inner"));
        assert!(outer_records.iter().any(|r| r.name == "during-inner"));
    }

    #[test]
    fn manual_records_and_instants_carry_parents() {
        let cap = Capture::start();
        let root = span("test", "manual-root");
        let root_id = root.id();
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let id = record_manual("test", "wait", root_id, t0, Instant::now());
        assert_ne!(id, 0);
        instant("test", "tick");
        drop(root);
        let records = cap.finish();
        let wait = records.iter().find(|r| r.id == id).unwrap();
        assert_eq!(wait.parent, root_id);
        assert!(wait.dur_ns > 0);
        let tick = records.iter().find(|r| r.name == "tick").unwrap();
        assert_eq!(tick.parent, root_id);
        assert_eq!(tick.dur_ns, 0);
    }
}
