//! Multi-branch design-space exploration engine (Sec. VI of the F-CAD
//! paper).
//!
//! The design space of the elastic architecture is *multi-branch and
//! dynamic* (Table III): every branch has a batch size plus per-stage
//! `cpf` / `kpf` / `h` factors, so the dimensionality grows with the number
//! of branches and layers. The DSE engine follows the paper's two-step
//! divide-and-conquer strategy:
//!
//! 1. **Cross-branch optimization** ([`DseEngine`], Algorithm 1) — a
//!    particle-swarm-style stochastic search over *resource distributions*:
//!    how the DSP / BRAM / bandwidth budgets are split across branches. Each
//!    candidate is scored by a priority-weighted throughput fitness with a
//!    variance penalty so that no branch starves.
//! 2. **In-branch optimization** ([`InBranchOptimizer`], Algorithm 2) — a
//!    greedy search that, given one branch's resource share, derives
//!    load-balanced per-stage parallelism targets from the bandwidth-limited
//!    frame rate, then halves/grows them until the largest configuration
//!    that still supports the requested batch size is found. Each target
//!    maps to a `(cpf, kpf, h)` split through `GetPF`
//!    ([`fcad_accel::LaneTable::for_target`]), a bounded scan over one
//!    entry per channel-lane count. A paper-scale flow (Table IV case 2 at
//!    P=200, N=20, seed 2) runs 267,729 stage costings but asks for only
//!    18,342 distinct stage targets, so each optimizer memoizes GetPF per
//!    stage, and the flow scans a lane table 80,846 times.
//!
//! # Example
//!
//! ```
//! use fcad_accel::{BranchPipeline, ConvStage, ElasticAccelerator, Platform};
//! use fcad_dse::{Customization, DseEngine, DseParams};
//! use fcad_nnir::Precision;
//!
//! let branch = BranchPipeline::new(
//!     "main",
//!     vec![ConvStage::synthetic("conv", 16, 16, 64, 64, 3, 1)],
//! );
//! let accelerator = ElasticAccelerator::new("demo", vec![branch], 200e6);
//! let platform = Platform::z7045();
//! let customization = Customization::uniform(1, Precision::Int8);
//! let engine = DseEngine::new(DseParams::fast());
//! let result = engine.explore(&accelerator, &platform, &customization)?;
//! assert!(result.best_report.min_fps > 0.0);
//! # Ok::<(), fcad_dse::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crossbranch;
mod customization;
mod error;
mod fitness;
mod inbranch;
mod result;
mod timer;

pub use crossbranch::{DseEngine, DseParams, ResourceDistribution};
pub use customization::Customization;
pub use error::{Error, Result};
pub use fitness::{fitness_score, FitnessParams};
pub use inbranch::InBranchOptimizer;
pub use result::{ConvergenceStats, DseResult};
pub use timer::{ElapsedTimer, RunningTimer};
