//! Fitness scoring of accelerator candidates (Algorithm 1, lines 11–12).

use crate::customization::Customization;
use fcad_accel::AcceleratorReport;

/// Parameters of the fitness function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessParams {
    /// Weight `α` of the branch-performance variance penalty `P = α·σ²`.
    ///
    /// The penalty keeps the per-branch frame rates close to each other so
    /// that no branch of the avatar lags behind the others.
    pub alpha: f64,
}

impl FitnessParams {
    /// Creates fitness parameters with the given variance-penalty weight.
    pub fn new(alpha: f64) -> Self {
        Self { alpha }
    }
}

impl Default for FitnessParams {
    fn default() -> Self {
        // The per-branch FPS values are of order 10². The penalty weight
        // must be large enough that starving the heaviest branch while
        // over-provisioning a cheap one (huge σ²) never beats a balanced
        // design: with α = 0.05 a 3–4x imbalance costs more fitness than the
        // extra FPS it buys on the cheap branch, while the mild imbalance of
        // legitimate designs (e.g. 61 / 30.5 / 61 FPS on a small FPGA) costs
        // only a few FPS-equivalents.
        Self { alpha: 0.05 }
    }
}

/// Computes the fitness of a candidate: the priority-weighted sum of
/// per-branch throughput minus the variance penalty.
///
/// Throughput is each branch's raw Eq. 5 FPS, `batch / max(Lat_i)`, which
/// already counts every pipeline copy: the score reflects delivered avatar
/// frame rate, and the batch size enters only through that FPS.
pub fn fitness_score(
    report: &AcceleratorReport,
    customization: &Customization,
    params: &FitnessParams,
) -> f64 {
    if report.branches.is_empty() {
        return 0.0;
    }
    let perf: Vec<f64> = report.branches.iter().map(|b| b.fps).collect();
    let weighted: f64 = perf
        .iter()
        .enumerate()
        .map(|(i, fps)| fps * customization.priority(i))
        .sum();
    let mean = perf.iter().sum::<f64>() / perf.len() as f64;
    let variance = perf.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / perf.len() as f64;
    weighted - params.alpha * variance
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_accel::{BranchReport, Parallelism, ResourceUsage, StageEvaluation};
    use fcad_nnir::Precision;

    fn branch(fps: f64) -> BranchReport {
        BranchReport {
            name: "b".into(),
            batch_size: 1,
            fps,
            critical_latency_cycles: 1,
            critical_stage: "s".into(),
            efficiency: 0.9,
            ops_per_frame: 1,
            usage: ResourceUsage::default(),
            stages: vec![StageEvaluation {
                name: "s".into(),
                parallelism: Parallelism::unit(),
                latency_cycles: 1,
                dsp: 1,
                bram: 1,
                weight_bytes_per_frame: 1,
            }],
        }
    }

    fn report(fps: &[f64]) -> AcceleratorReport {
        AcceleratorReport {
            branches: fps.iter().map(|f| branch(*f)).collect(),
            total_usage: ResourceUsage::default(),
            min_fps: fps.iter().copied().fold(f64::INFINITY, f64::min),
            overall_efficiency: 0.9,
        }
    }

    fn customization(n: usize) -> Customization {
        Customization::uniform(n, Precision::Int8)
    }

    #[test]
    fn higher_throughput_scores_higher() {
        let params = FitnessParams::default();
        let slow = fitness_score(&report(&[30.0, 30.0]), &customization(2), &params);
        let fast = fitness_score(&report(&[60.0, 60.0]), &customization(2), &params);
        assert!(fast > slow);
    }

    #[test]
    fn balanced_branches_beat_imbalanced_ones_at_equal_total() {
        let params = FitnessParams::new(0.05);
        let balanced = fitness_score(&report(&[60.0, 60.0]), &customization(2), &params);
        let imbalanced = fitness_score(&report(&[110.0, 10.0]), &customization(2), &params);
        assert!(balanced > imbalanced);
    }

    #[test]
    fn priorities_weight_the_branches() {
        let params = FitnessParams::new(0.0);
        let custom = customization(2).with_priorities(vec![10.0, 1.0]);
        let first_fast = fitness_score(&report(&[100.0, 10.0]), &custom, &params);
        let second_fast = fitness_score(&report(&[10.0, 100.0]), &custom, &params);
        assert!(first_fast > second_fast);
    }

    #[test]
    fn batch_size_enters_only_through_the_fps() {
        let params = FitnessParams::default();
        let single = report(&[40.0, 80.0]);
        let mut doubled = single.clone();
        for b in &mut doubled.branches {
            b.batch_size = 2;
        }
        assert_eq!(
            fitness_score(&single, &customization(2), &params),
            fitness_score(&doubled, &customization(2), &params)
        );
    }

    #[test]
    fn empty_report_scores_zero() {
        let params = FitnessParams::default();
        assert_eq!(fitness_score(&report(&[]), &customization(0), &params), 0.0);
    }
}
