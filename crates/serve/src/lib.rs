//! Multi-session telepresence serving simulator for F-CAD accelerators.
//!
//! The paper's evaluation (Table V) scales one DSE-optimized decoder
//! accelerator to 1, 3 and 5 concurrent avatars — but a static FPS number
//! says little about what users experience when many sessions contend for
//! the device. This crate closes that gap with a deterministic
//! discrete-event simulation of avatar-decode traffic, behind one front
//! door: [`serve`] runs a [`Scenario`] on a [`FleetConfig`] under a
//! [`ServeSpec`] — scheduler, admission, deadline policy, autoscaler,
//! failure plan and worker count, whose [`Default`] is the legacy run —
//! and narrates it into a [`TraceSink`]. The engine, not the caller,
//! chooses how to execute it.
//!
//! - **Sessions & arrivals** ([`Scenario`], [`ArrivalPattern`]): N avatar
//!   sessions emit one request per branch per frame, under steady, Poisson,
//!   bursty or diurnal-ramp arrival processes, all reproducible from a
//!   fixed seed.
//! - **Scheduling** ([`SchedulerKind`]): four disciplines — FIFO,
//!   priority-by-branch (visual branches outrank the audio-like stream,
//!   with aging to bound starvation), batch-aggregation up to the
//!   DSE-chosen batch size, and earliest-deadline-first.
//! - **Service model** ([`ServiceModel`]): per-branch frame times, fill
//!   times and batch sizes of one accelerator design. The `fcad` flow
//!   derives them from its analytical model or, in the calibrated mode,
//!   from its cycle-level simulator, so this crate depends on no hardware
//!   crate.
//! - **Fleet serving** ([`FleetConfig`], [`LoadBalancerKind`]): scale from
//!   one time-multiplexed accelerator to a sharded fleet (optionally
//!   heterogeneous), with round-robin, least-loaded-by-readiness,
//!   session-affinity-with-spill and per-branch-sharded placement. The
//!   single device ([`simulate`]) is the one-shard fleet.
//! - **Availability** ([`Autoscaler`], [`FailurePlan`]): a dynamic-fleet
//!   layer over the same loop — shards move through
//!   warming/active/draining/retired/failed lifecycle states
//!   ([`ShardState`]), the autoscaler spawns on queue-depth pressure
//!   (paying a warm-up weight fill) and drains idle shards, and the
//!   failure injector kills shards mid-run, re-placing their orphaned
//!   queues through the live balancer. The fixed fleet is the no-op
//!   policy ([`Autoscaler::none`], [`FailurePlan::none`]).
//! - **QoS & admission** ([`QosClass`], [`AdmissionKind`]): every
//!   session draws a QoS class (latency budget + scheduling weight) from
//!   the scenario's seeded [`ClassMix`]; the weighted priority scheduler
//!   orders work by `class weight × branch priority`, and an admission
//!   policy (admit-all, queue-depth thresholds, budget-aware early
//!   rejection) sheds low tiers *before* queues saturate — `shed` is a
//!   fourth terminal outcome with conservation `completed + dropped +
//!   lost + shed == issued`. The classless run is the
//!   everyone-is-`Standard` + admit-all special case.
//! - **Deadlines** ([`SchedulerKind::Deadline`], [`DeadlinePolicy`]): an
//!   earliest-deadline-first discipline serves the queue head with the
//!   least remaining slack within class bands, and an opt-in expiry
//!   policy ([`ServeSpec::deadline`]) retires requests whose budget ran
//!   out while queued as a fifth terminal outcome `expired` —
//!   `completed + dropped + lost + shed + expired == issued`.
//!   [`DeadlinePolicy::Off`] culls nothing.
//! - **Scale** ([`ServeSpec::workers`]): the loop takes the earliest of
//!   three heads — a lifecycle-event heap, the time-ordered arrival
//!   stream and a dispatch heap — under one fixed tie order instead of
//!   per-iteration linear scans, and
//!   under a load-oblivious balancer the spans between
//!   cross-shard events run as time windows in which every shard advances
//!   on its own, across worker threads (or inline on the calling thread
//!   at one worker) with an exact-merge reduction — byte-identical to the
//!   frozen pre-rebuild engine ([`reference`](mod@reference)) at every
//!   worker count, pinned by a differential equivalence battery. A static
//!   fleet is the case with no cross-shard events at all.
//!   [`simulate_windowed`] takes an explicit [`WindowPlan`] instead of
//!   `serve`'s 400 ms windows. The [`Scenario::metropolis`] workload
//!   (1.05 M sessions) exercises the path at fleet scale.
//! - **Reporting** ([`ServeReport`]): throughput, utilization, drop rate
//!   and p50/p95/p99 latency from a fixed-bucket histogram, plus
//!   per-shard utilization/imbalance ([`ShardStats`]), availability
//!   (completed/issued with re-placed and lost counts, pre/post-failure
//!   tails, the [`FleetEvent`] lifecycle log), per-class latency/shed statistics with `slo_attainment` (the
//!   fraction of completions inside their class budget,
//!   [`ClassServeStats`]) and a merged fleet-wide latency histogram,
//!   rendered as a single machine-readable JSON line.
//! - **Observability** ([`TraceSink`]): the same loop narrates itself
//!   through the sink [`serve`] takes — per-request lifecycle events
//!   (arrival through terminal outcome), batch dispatches and fleet
//!   lifecycle instants. The [`Off`] sink records nothing and changes
//!   nothing; a
//!   [`Recorder`] feeds the exporters re-exported from `fcad-obs`:
//!   Chrome `trace_event` JSON ([`chrome_trace`]), fixed-interval
//!   time-series metrics ([`Windowed`]) and a worst-latency flight
//!   recorder ([`FlightRecorder`]). Tracing is observation-only:
//!   traced and untraced runs of the same scenario produce
//!   byte-identical reports.
//!
//! # Example
//!
//! ```
//! use fcad_serve::{
//!     serve, AdmissionKind, BranchService, FleetConfig, Off, Scenario, SchedulerKind, ServeSpec,
//!     ServiceModel,
//! };
//!
//! let model = ServiceModel {
//!     branches: vec![BranchService {
//!         name: "texture".to_owned(),
//!         frame_time_us: 4_000,
//!         fill_time_us: 1_000,
//!         max_batch: 2,
//!         priority: 1.0,
//!     }],
//! };
//! let spec = ServeSpec {
//!     scheduler: SchedulerKind::PriorityByBranch,
//!     admission: AdmissionKind::BudgetAware,
//!     ..ServeSpec::default()
//! };
//! let fleet = FleetConfig::uniform(model, 2);
//! let report = serve(&fleet, &Scenario::b2_qos(), &spec, &mut Off);
//! assert!(report.conserves_requests());
//! assert!(report.latency.p99_ms >= report.latency.p50_ms);
//! println!("{}", report.to_json_line());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod autoscale;
mod deadline;
mod engine;
mod fleet;
mod histogram;
mod model;
mod qos;
pub mod reference;
mod report;
mod request;
mod scenario;
mod scheduler;
mod window;

pub use admission::AdmissionKind;
pub use autoscale::{Autoscaler, FailurePlan, ShardState};
pub use deadline::DeadlinePolicy;
pub use engine::{serve, simulate, ServeSpec};
pub use fleet::{FleetConfig, LoadBalancerKind};
pub use model::{BranchService, ServiceModel};
pub use qos::{ClassMix, QosClass};
pub use report::{BranchServeStats, ClassServeStats, LatencySummary, ServeReport, ShardStats};
pub use request::Request;
pub use scenario::{ArrivalPattern, Scenario};
pub use scheduler::SchedulerKind;
pub use window::{simulate_windowed, simulate_windowed_traced, WindowPlan};

use fcad_obs::cast;

// The single-line JSON writer the report renders with.
pub use fcad_obs::json;

// Observability surface, re-exported from `fcad-obs` so traced serving
// needs only this crate: the sink trait and its implementations, the
// event taxonomy, and the exporters (Chrome trace, windowed metrics,
// flight recorder).
pub use fcad_obs::{
    chrome_trace, validate_json, BatchEvent, FleetEvent, FleetEventKind, FlightRecorder,
    MetricsSeries, MetricsWindow, Off, Recorder, RequestEvent, RequestEventKind, RequestTimeline,
    TraceEvent, TraceSink, TraceSummary, Windowed,
};
