//! Estimation-accuracy study: analytical model vs. cycle-level simulation
//! (the role Figs. 6 and 7 play in the paper).

use fcad_accel::{AcceleratorConfig, ElasticAccelerator};
use fcad_cyclesim::Simulator;
use serde::{Deserialize, Serialize};

/// Estimated-vs-simulated numbers for one branch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BranchValidation {
    /// Branch name.
    pub name: String,
    /// FPS predicted by the analytical model.
    pub estimated_fps: f64,
    /// FPS measured by the cycle-level simulator.
    pub simulated_fps: f64,
    /// Efficiency predicted by the analytical model.
    pub estimated_efficiency: f64,
    /// Efficiency measured by the cycle-level simulator.
    pub simulated_efficiency: f64,
}

impl BranchValidation {
    /// Relative FPS estimation error (estimated vs. simulated), as a
    /// fraction.
    pub fn fps_error(&self) -> f64 {
        relative_error(self.estimated_fps, self.simulated_fps)
    }

    /// Relative efficiency estimation error, as a fraction.
    pub fn efficiency_error(&self) -> f64 {
        relative_error(self.estimated_efficiency, self.simulated_efficiency)
    }
}

/// Comparison of the analytical model against the cycle-level simulator for
/// a complete accelerator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Per-branch comparisons.
    pub branches: Vec<BranchValidation>,
}

impl ValidationReport {
    /// Evaluates `config` with both the analytical model and the simulator
    /// and collects per-branch comparisons.
    ///
    /// `bandwidth_bytes_per_sec` is the external-memory bandwidth of the
    /// simulated platform.
    ///
    /// # Errors
    ///
    /// Propagates analytical-model configuration errors.
    pub fn compare(
        accelerator: &ElasticAccelerator,
        config: &AcceleratorConfig,
        bandwidth_bytes_per_sec: f64,
    ) -> fcad_accel::Result<Self> {
        let estimated = accelerator.evaluate(config)?;
        let simulator = Simulator::for_accelerator(accelerator, bandwidth_bytes_per_sec);
        let simulated = simulator.simulate_accelerator(accelerator, config);
        let branches = estimated
            .branches
            .iter()
            .zip(&simulated.branches)
            .map(|(est, sim)| BranchValidation {
                name: est.name.clone(),
                estimated_fps: est.fps,
                simulated_fps: sim.fps,
                estimated_efficiency: est.efficiency,
                simulated_efficiency: sim.efficiency,
            })
            .collect();
        Ok(Self { branches })
    }

    /// Maximum relative FPS error across branches.
    pub fn max_fps_error(&self) -> f64 {
        self.branches
            .iter()
            .map(BranchValidation::fps_error)
            .fold(0.0, f64::max)
    }

    /// Maximum relative efficiency error across branches.
    pub fn max_efficiency_error(&self) -> f64 {
        self.branches
            .iter()
            .map(BranchValidation::efficiency_error)
            .fold(0.0, f64::max)
    }
}

fn relative_error(estimated: f64, reference: f64) -> f64 {
    if reference.abs() < f64::EPSILON {
        0.0
    } else {
        ((estimated - reference) / reference).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Customization, DseParams, Fcad};
    use fcad_accel::Platform;
    use fcad_nnir::models::{alexnet, targeted_decoder};
    use fcad_nnir::Precision;

    fn validated(network: fcad_nnir::Network, platform: Platform) -> ValidationReport {
        let result = Fcad::new(network, platform.clone())
            .with_customization(Customization::uniform(1, Precision::Int16))
            .with_dse_params(DseParams::fast())
            .run()
            .expect("flow succeeds");
        ValidationReport::compare(
            &result.accelerator,
            &result.dse.best_config,
            platform.budget().bandwidth_bytes_per_sec,
        )
        .expect("configs match")
    }

    #[test]
    fn estimation_error_is_small_for_single_branch_benchmarks() {
        let report = validated(alexnet(), Platform::ku115());
        assert_eq!(report.branches.len(), 1);
        // The paper reports a maximum FPS error of 2.89% and efficiency
        // error of 3.96%; our simulator stands in for the board, so the
        // error must stay in the same single-digit-percent regime.
        assert!(
            report.max_fps_error() < 0.12,
            "fps error {:.3}",
            report.max_fps_error()
        );
        assert!(
            report.max_efficiency_error() < 0.12,
            "efficiency error {:.3}",
            report.max_efficiency_error()
        );
        assert!(
            report.max_fps_error() > 0.0,
            "simulation must not be identical"
        );
    }

    #[test]
    fn decoder_validation_covers_all_branches() {
        let result = Fcad::new(targeted_decoder(), Platform::zu17eg())
            .with_customization(Customization::codec_avatar(Precision::Int8))
            .with_dse_params(DseParams::fast())
            .run()
            .unwrap();
        let report = ValidationReport::compare(
            &result.accelerator,
            &result.dse.best_config,
            Platform::zu17eg().budget().bandwidth_bytes_per_sec,
        )
        .unwrap();
        assert_eq!(report.branches.len(), 3);
        for b in &report.branches {
            assert!(b.estimated_fps >= b.simulated_fps * 0.99);
        }
    }
}
