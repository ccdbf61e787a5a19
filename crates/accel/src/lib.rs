//! Elastic accelerator architecture and analytical performance model.
//!
//! This crate implements Sec. V of the F-CAD paper: the *layer-based
//! multi-pipeline accelerator paradigm*, the *elastic architecture* that
//! expands in two dimensions (stages along X, branches along Y), and the
//! *basic architecture unit* with three-dimensional parallelism (input
//! channels `cpf`, output channels `kpf`, and feature-map-height partitions
//! `h`). It also provides the analytical latency / throughput / efficiency
//! models of Sec. VI-B.3 (Eqs. 3–5) together with DSP / BRAM / bandwidth
//! utilization estimates, and the descriptions of the FPGA platforms used in
//! the evaluation (Xilinx Z7045, ZU17EG, ZU9CG, KU115) plus generic ASIC
//! budgets.
//!
//! The crate is purely analytical: it never simulates cycles (that is
//! `fcad-cyclesim`'s job) and never searches the design space (that is
//! `fcad-dse`'s job); it answers "given this configuration, what does the
//! accelerator cost and how fast is it?".
//!
//! # Example
//!
//! ```
//! use fcad_accel::{ConvStage, CostModel, Parallelism, Platform, UnitCost};
//! use fcad_nnir::Precision;
//!
//! // A 16->16 channel 3x3 convolution on a 512x512 map (branch-2 "Conv7").
//! let stage = ConvStage::synthetic("conv7", 16, 16, 512, 512, 3, 1);
//! let p = Parallelism::new(16, 16, 4);
//! let unit = UnitCost::of(&stage, p, Precision::Int8, &CostModel::default());
//! let platform = Platform::zu9cg();
//! assert!(unit.latency_cycles > 0);
//! assert!(unit.dsp <= platform.budget().dsp);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cost;
mod elastic;
mod error;
mod parallelism;
mod pipeline;
mod platform;
mod stage;
mod unit;

pub use config::{AcceleratorConfig, BranchConfig, StageConfig};
pub use cost::CostModel;
pub use elastic::{AcceleratorReport, ElasticAccelerator};
pub use error::{Error, Result};
pub use parallelism::{LaneTable, Parallelism};
pub use pipeline::{BranchPipeline, BranchReport, StageEvaluation};
pub use platform::{Platform, PlatformKind, ResourceBudget, ResourceUsage};
pub use stage::ConvStage;
pub use unit::UnitCost;

/// Computes hardware efficiency following Eq. 3 of the paper.
///
/// `ops_per_second` is the delivered throughput in operations per second
/// (1 MAC = 2 ops), `multipliers` the number of DSP-style multipliers the
/// design occupies, `beta` the operations one multiplier completes per cycle
/// (2 at 16-bit, 4 at 8-bit — see
/// [`Precision::ops_per_multiplier`](fcad_nnir::Precision::ops_per_multiplier)),
/// and `frequency_hz` the clock frequency.
///
/// Returns 0 when the design uses no multipliers.
///
/// ```
/// use fcad_accel::efficiency;
///
/// // 500 GOPS delivered on 1000 DSPs at 8-bit, 200 MHz -> 62.5 %.
/// let eff = efficiency(500e9, 1000, 4.0, 200e6);
/// assert!((eff - 0.625).abs() < 1e-9);
/// ```
pub fn efficiency(ops_per_second: f64, multipliers: usize, beta: f64, frequency_hz: f64) -> f64 {
    let peak = beta * multipliers as f64 * frequency_hz;
    if peak <= 0.0 {
        0.0
    } else {
        ops_per_second / peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_zero_without_multipliers() {
        assert_eq!(efficiency(1e9, 0, 4.0, 200e6), 0.0);
    }

    #[test]
    fn efficiency_reproduces_table_v_arithmetic() {
        // Table V, F-CAD 8-bit: 122.1 FPS on a 13.6 GOP decoder with 2229
        // DSPs at 200 MHz -> ~93 % (paper reports 91.3 % for its own op
        // count).
        let ops_per_second = 13.6e9 * 122.1;
        let eff = efficiency(ops_per_second, 2229, 4.0, 200e6);
        assert!(eff > 0.85 && eff < 1.0, "eff {eff}");
    }
}
