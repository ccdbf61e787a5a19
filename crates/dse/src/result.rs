//! Exploration results and convergence statistics.

use fcad_accel::{AcceleratorConfig, AcceleratorReport};

/// Outcome of one design-space exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// The best configuration found.
    pub best_config: AcceleratorConfig,
    /// Analytical evaluation of the best configuration.
    pub best_report: AcceleratorReport,
    /// Fitness score of the best configuration.
    pub best_fitness: f64,
    /// Number of iterations executed.
    pub iterations_run: usize,
    /// Iteration at which the global best last improved (the paper's
    /// convergence iteration).
    pub convergence_iteration: usize,
    /// Wall-clock time of the exploration in seconds.
    pub elapsed_seconds: f64,
    /// Best fitness after each iteration.
    pub fitness_history: Vec<f64>,
}

impl DseResult {
    /// Frames per second of the slowest branch of the best design.
    pub fn min_fps(&self) -> f64 {
        self.best_report.min_fps
    }

    /// Overall hardware efficiency of the best design.
    pub fn efficiency(&self) -> f64 {
        self.best_report.overall_efficiency
    }
}

/// Aggregate convergence statistics over several independent searches
/// (the paper reports mean 9.2, min 6.8, max 13.6 over 10 runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceStats {
    /// Number of independent runs aggregated.
    pub runs: usize,
    /// Mean convergence iteration.
    pub mean_iterations: f64,
    /// Minimum convergence iteration.
    pub min_iterations: f64,
    /// Maximum convergence iteration.
    pub max_iterations: f64,
    /// Mean wall-clock seconds per run.
    pub mean_seconds: f64,
}

impl ConvergenceStats {
    /// Aggregates statistics over a set of exploration results.
    ///
    /// Returns `None` when `results` is empty.
    pub fn of(results: &[DseResult]) -> Option<Self> {
        if results.is_empty() {
            return None;
        }
        let iterations: Vec<f64> = results
            .iter()
            .map(|r| r.convergence_iteration as f64)
            .collect();
        let n = iterations.len() as f64;
        Some(Self {
            runs: results.len(),
            mean_iterations: iterations.iter().sum::<f64>() / n,
            min_iterations: iterations.iter().copied().fold(f64::INFINITY, f64::min),
            max_iterations: iterations.iter().copied().fold(0.0, f64::max),
            mean_seconds: results.iter().map(|r| r.elapsed_seconds).sum::<f64>() / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_accel::ResourceUsage;
    use fcad_nnir::Precision;

    fn result(convergence: usize, seconds: f64) -> DseResult {
        DseResult {
            best_config: AcceleratorConfig::new(vec![], Precision::Int8),
            best_report: AcceleratorReport {
                branches: vec![],
                total_usage: ResourceUsage::default(),
                min_fps: 100.0,
                overall_efficiency: 0.9,
            },
            best_fitness: 1.0,
            iterations_run: 20,
            convergence_iteration: convergence,
            elapsed_seconds: seconds,
            fitness_history: vec![1.0; 20],
        }
    }

    #[test]
    fn stats_aggregate_min_mean_max() {
        let stats =
            ConvergenceStats::of(&[result(5, 1.0), result(10, 2.0), result(15, 3.0)]).unwrap();
        assert_eq!(stats.runs, 3);
        assert!((stats.mean_iterations - 10.0).abs() < 1e-9);
        assert_eq!(stats.min_iterations, 5.0);
        assert_eq!(stats.max_iterations, 15.0);
        assert!((stats.mean_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_results_have_no_stats() {
        assert!(ConvergenceStats::of(&[]).is_none());
    }

    #[test]
    fn accessors_expose_report_fields() {
        let r = result(5, 1.0);
        assert_eq!(r.min_fps(), 100.0);
        assert_eq!(r.efficiency(), 0.9);
    }
}
