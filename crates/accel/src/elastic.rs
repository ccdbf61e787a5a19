//! The elastic multi-branch accelerator: branch pipelines arranged along the
//! Y axis, stages along the X axis (Fig. 5 of the paper).

use crate::config::AcceleratorConfig;
use crate::cost::CostModel;
use crate::efficiency;
use crate::error::{Error, Result};
use crate::pipeline::{BranchPipeline, BranchReport};
use crate::platform::{Platform, ResourceBudget, ResourceUsage};
use serde::{Deserialize, Serialize};

/// Evaluation of a complete accelerator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorReport {
    /// Per-branch reports in branch order.
    pub branches: Vec<BranchReport>,
    /// Aggregate resource usage.
    pub total_usage: ResourceUsage,
    /// Throughput of the slowest branch — the rate at which complete avatar
    /// frames (all branch outputs) can be produced.
    pub min_fps: f64,
    /// Overall hardware efficiency (Eq. 3 applied to the whole design).
    pub overall_efficiency: f64,
}

impl AcceleratorReport {
    /// Whether the design fits a resource budget in all three dimensions.
    pub fn fits(&self, budget: &ResourceBudget) -> bool {
        budget.accommodates(&self.total_usage)
    }

    /// Report of the branch with the given index.
    pub fn branch(&self, index: usize) -> Option<&BranchReport> {
        self.branches.get(index)
    }
}

/// The elastic architecture instantiated for a particular multi-branch
/// network: one [`BranchPipeline`] per (reorganized) branch.
///
/// The structure is fixed by the Construction step; evaluation under
/// different [`AcceleratorConfig`]s is what the DSE engine iterates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticAccelerator {
    name: String,
    branches: Vec<BranchPipeline>,
    frequency_hz: f64,
    cost: CostModel,
}

impl ElasticAccelerator {
    /// Creates an accelerator with the default FPGA cost model.
    pub fn new(name: impl Into<String>, branches: Vec<BranchPipeline>, frequency_hz: f64) -> Self {
        Self {
            name: name.into(),
            branches,
            frequency_hz,
            cost: CostModel::default(),
        }
    }

    /// Creates an accelerator targeting a platform (frequency and, for ASIC
    /// platforms, the ASIC cost model are taken from it).
    pub fn for_platform(
        name: impl Into<String>,
        branches: Vec<BranchPipeline>,
        platform: &Platform,
    ) -> Self {
        let cost = match platform.kind() {
            crate::platform::PlatformKind::Fpga => CostModel::fpga(),
            crate::platform::PlatformKind::Asic => CostModel::asic(),
        };
        Self {
            name: name.into(),
            branches,
            frequency_hz: platform.frequency_hz(),
            cost,
        }
    }

    /// Accelerator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The branch pipelines (Y dimension of the elastic architecture).
    pub fn branches(&self) -> &[BranchPipeline] {
        &self.branches
    }

    /// Number of branch pipelines.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Clock frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// The cost model used for resource estimation.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Evaluates a full accelerator configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the configuration's branch count
    /// or any per-branch stage count does not match the architecture.
    pub fn evaluate(&self, config: &AcceleratorConfig) -> Result<AcceleratorReport> {
        if config.branches.len() != self.branches.len() {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "accelerator `{}` has {} branches but the configuration provides {}",
                    self.name,
                    self.branches.len(),
                    config.branches.len()
                ),
            });
        }
        let mut reports = Vec::with_capacity(self.branches.len());
        for (pipeline, branch_cfg) in self.branches.iter().zip(&config.branches) {
            reports.push(pipeline.evaluate(
                branch_cfg,
                config.precision,
                self.frequency_hz,
                &self.cost,
            )?);
        }
        let total_usage = reports
            .iter()
            .fold(ResourceUsage::default(), |acc, r| acc.plus(&r.usage));
        let min_fps = reports.iter().map(|r| r.fps).fold(f64::INFINITY, f64::min);
        let min_fps = if min_fps.is_finite() { min_fps } else { 0.0 };
        let total_ops_per_sec: f64 = reports.iter().map(|r| r.ops_per_frame as f64 * r.fps).sum();
        let overall_efficiency = efficiency(
            total_ops_per_sec,
            total_usage.dsp,
            config.precision.ops_per_multiplier(),
            self.frequency_hz,
        );
        Ok(AcceleratorReport {
            branches: reports,
            total_usage,
            min_fps,
            overall_efficiency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BranchConfig, StageConfig};
    use crate::parallelism::Parallelism;
    use crate::stage::ConvStage;
    use fcad_nnir::Precision;

    fn accelerator() -> ElasticAccelerator {
        let br1 = BranchPipeline::new("small", vec![ConvStage::synthetic("a", 8, 8, 32, 32, 3, 1)]);
        let br2 = BranchPipeline::new(
            "large",
            vec![
                ConvStage::synthetic("b1", 8, 16, 64, 64, 3, 1),
                ConvStage::synthetic("b2", 16, 16, 128, 128, 3, 1),
            ],
        );
        ElasticAccelerator::new("test", vec![br1, br2], 200e6)
    }

    fn full_config() -> AcceleratorConfig {
        AcceleratorConfig::new(
            vec![
                BranchConfig::new(1, vec![StageConfig::new(Parallelism::new(8, 8, 1))]),
                BranchConfig::new(
                    1,
                    vec![
                        StageConfig::new(Parallelism::new(8, 16, 1)),
                        StageConfig::new(Parallelism::new(16, 16, 2)),
                    ],
                ),
            ],
            Precision::Int8,
        )
    }

    #[test]
    fn evaluation_aggregates_branches() {
        let acc = accelerator();
        let report = acc.evaluate(&full_config()).expect("valid configuration");
        assert_eq!(report.branches.len(), 2);
        assert_eq!(
            report.total_usage.dsp,
            report.branches[0].usage.dsp + report.branches[1].usage.dsp
        );
        assert!(report.min_fps <= report.branches[0].fps);
        assert!(report.min_fps <= report.branches[1].fps);
        assert!(report.overall_efficiency > 0.0 && report.overall_efficiency <= 1.0 + 1e-9);
    }

    #[test]
    fn mismatched_branch_count_is_rejected() {
        let acc = accelerator();
        let cfg = AcceleratorConfig::new(vec![BranchConfig::minimal(1)], Precision::Int8);
        assert!(matches!(
            acc.evaluate(&cfg),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn report_fits_checks_the_budget() {
        let acc = accelerator();
        let report = acc.evaluate(&full_config()).unwrap();
        let generous = ResourceBudget::new(10_000, 10_000, 100.0);
        let tiny = ResourceBudget::new(1, 1, 0.000_001);
        assert!(report.fits(&generous));
        assert!(!report.fits(&tiny));
    }

    #[test]
    fn asic_platform_switches_the_cost_model() {
        let platform = Platform::asic(4096, 1024, 25.6, 800.0);
        let acc = ElasticAccelerator::for_platform("asic", vec![], &platform);
        assert_eq!(acc.cost_model(), &CostModel::asic());
        assert_eq!(acc.frequency_hz(), 800e6);
    }

    #[test]
    fn more_parallelism_means_higher_fps_for_same_network() {
        let acc = accelerator();
        let slow = AcceleratorConfig::new(
            vec![BranchConfig::minimal(1), BranchConfig::minimal(2)],
            Precision::Int8,
        );
        let fast = full_config();
        let slow_report = acc.evaluate(&slow).unwrap();
        let fast_report = acc.evaluate(&fast).unwrap();
        assert!(fast_report.min_fps > slow_report.min_fps);
    }
}
