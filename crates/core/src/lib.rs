//! F-CAD: automated exploration of hardware accelerators for codec avatar
//! decoders (and multi-branch DNNs in general).
//!
//! This crate ties the workspace together into the three-step design flow of
//! Fig. 4 of the paper:
//!
//! 1. **Analysis** — profile the input network: layer/branch structure,
//!    per-layer and per-branch compute and memory demands
//!    ([`fcad_profiler::NetworkProfile`]).
//! 2. **Construction** — fuse lightweight layers into their neighbouring
//!    major layers, assign shared branch prefixes to the most
//!    compute-demanding branch (the *critical flow*), and instantiate the
//!    elastic architecture: one [`fcad_accel::BranchPipeline`] per branch
//!    ([`Construction`]).
//! 3. **Optimization** — explore the multi-branch dynamic design space with
//!    the DSE engine (cross-branch stochastic + in-branch greedy search) and
//!    return the best accelerator configuration together with its
//!    performance, efficiency and resource report ([`Fcad::run`]).
//!
//! The crate also provides the estimation-accuracy study of Sec. VI-B.3
//! ([`ValidationReport`]): the analytical model's FPS / efficiency estimates
//! are compared against the cycle-level simulator that stands in for the
//! paper's board measurements.
//!
//! Beyond the paper's static evaluation, an optimized design can be put
//! under multi-session telepresence load: [`serve`] runs the `fcad-serve`
//! discrete-event simulator (arrival patterns, four schedulers,
//! admission, autoscaling, tail-latency percentiles) on the fleet
//! [`FcadResult::fleet_config`] builds from the design's frame times,
//! under one [`ServeSpec`] — see [`Scenario`] for the
//! `a1`/`a2`/`b1`/`b2` scenario suite.
//!
//! # Quick start
//!
//! ```
//! use fcad::{Fcad, DseParams};
//! use fcad_accel::Platform;
//! use fcad_nnir::models::targeted_decoder;
//!
//! let result = Fcad::new(targeted_decoder(), Platform::z7045())
//!     .with_dse_params(DseParams::fast())
//!     .run()?;
//! println!("{:.1} FPS at {:.1}% efficiency",
//!          result.report().min_fps,
//!          result.report().overall_efficiency * 100.0);
//! # Ok::<(), fcad::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod construction;
mod error;
mod flow;
mod report;
mod serve;
mod validate;

pub use construction::{BranchConstruction, Construction};
pub use error::{Error, Result};
pub use flow::{Fcad, FcadResult};
pub use report::render_case_table;
pub use validate::{BranchValidation, ValidationReport};

// Re-export the types users need to drive the flow without importing every
// sub-crate explicitly.
pub use fcad_dse::{Customization, DseParams, DseResult, ElapsedTimer};
pub use fcad_serve::{
    chrome_trace, serve, validate_json, AdmissionKind, Autoscaler, ClassMix, ClassServeStats,
    FailurePlan, FleetConfig, FlightRecorder, LoadBalancerKind, Off, QosClass, Recorder,
    ScaleEvent, ScaleEventKind, Scenario, SchedulerKind, ServeReport, ServeSpec, ServiceModel,
    ShardState, ShardStats, TraceSink, Windowed,
};
