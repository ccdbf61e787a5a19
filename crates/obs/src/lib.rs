//! `fcad-obs`: sim-time observability for the serve stack.
//!
//! Everything here is stamped with **sim-time only** (microseconds since
//! simulation start) and is deterministic by construction — the same
//! fcad-lint rules that police the engine (no wall clock, no unordered
//! iteration, no bare lossy casts) apply to this crate, so a fixed seed
//! yields byte-identical trace files run-over-run.
//!
//! The pieces:
//!
//! - [`TraceSink`] — the engine-facing trait; the default [`Off`] sink is
//!   a no-op the engine checks once per run, so an untraced simulation is
//!   bit-identical to a pre-observability one.
//! - [`Recorder`] — keeps the full event stream; feeds every exporter.
//! - [`Windowed`] — fixed-interval time-series metrics (queue depth,
//!   utilization, per-class backlog, admission/shed rate, p50/p99).
//! - [`chrome_trace`] — Chrome `trace_event` JSON for Perfetto.
//! - [`FlightRecorder`] — K-worst-latency + all-failures postmortems.
//! - [`cast`] — the checked numeric conversions this crate and
//!   `fcad-serve` share.
//! - [`math`] — the logarithm `fcad-serve` draws Poisson gaps with,
//!   written out so that no result depends on the host's libm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod chrome;
pub mod event;
pub mod flight;
pub mod json;
pub mod math;
pub mod recorder;
pub mod sink;
pub mod window;

pub use chrome::chrome_trace;
pub use event::{
    BatchEvent, FleetEvent, FleetEventKind, RequestEvent, RequestEventKind, TraceEvent,
};
pub use flight::{FlightRecorder, RequestTimeline};
pub use json::validate_json;
pub use recorder::Recorder;
pub use sink::{Off, TraceSink, TraceSummary};
pub use window::{MetricsSeries, MetricsWindow, Windowed};
