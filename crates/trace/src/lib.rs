//! anvil-trace: hierarchical span tracing and a metrics registry for
//! the anvil toolchain — zero dependencies, `Send + Sync`, near-zero
//! cost when disabled.
//!
//! Three pieces:
//!
//! - **Spans** ([`span`], [`SpanGuard`], [`Capture`]): RAII-scoped
//!   timed regions with monotonic timestamps, recorded into per-thread
//!   buffers and stitched into one tree per request. When no capture is
//!   active, opening a span is one relaxed atomic load — cheap enough
//!   to leave in solver and simulator inner loops permanently.
//! - **Exporters** ([`chrome_trace`], [`render_tree`],
//!   [`build_forest`] / [`SpanNode`]): Chrome `trace_event` JSON for
//!   Perfetto, a golden-stable compact text renderer for tests, and the
//!   tree builder the anvild wire protocol uses for `trace: true`
//!   responses.
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]): named instruments with log-linear-bucket
//!   histograms (p50/p90/p99 derivable), a name-sorted [`Snapshot`],
//!   and a Prometheus-style text exposition. `Registry::observe_spans`
//!   feeds span durations into histograms so traces and metrics agree.
//!
//! # Example
//!
//! ```
//! let cap = anvil_trace::Capture::start();
//! {
//!     let _outer = anvil_trace::span("demo", "outer");
//!     let _inner = anvil_trace::span("demo", "inner")
//!         .detail_with(|| "unit fifo".to_string());
//! }
//! let records = cap.finish();
//! let tree = anvil_trace::render_tree(&records);
//! assert!(tree.contains("- demo.outer\n  - demo.inner [unit fifo]"));
//! let json = anvil_trace::chrome_trace(&records);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod metrics;
mod span;

pub use chrome::{build_forest, chrome_trace, render_tree, retain_subtree, subtree, SpanNode};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use span::{
    current_span, enabled, instant, now_ns, record_manual, registered_buffers_for_tests, span,
    span_under, Capture, SpanGuard, SpanRecord,
};
