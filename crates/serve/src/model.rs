//! The service model: how long the accelerator takes to decode requests.
//!
//! The serving simulator never re-derives hardware behaviour; it consumes
//! the per-branch frame times that the analytical model
//! ([`fcad_accel::AcceleratorReport`]) or the cycle-level simulator
//! ([`fcad_cyclesim::AcceleratorSim`]) already computed for the
//! DSE-optimized design. The serving front end time-multiplexes the whole
//! accelerator across sessions (the paper's Table V scales one decoder
//! accelerator to 1/3/5 concurrent avatars); because every codec-avatar
//! session decodes with its own identity-specific weights, a dispatched
//! batch first pays the branch's fill time (weight streaming plus
//! pipeline refill) and then computes, occupying the fabric for
//! `fill + k · frame_time` microseconds. The fill is paid once per batch
//! and amortized as the scheduler aggregates same-branch requests up to
//! the DSE-chosen batch size.

use crate::cast::{f64_to_u64, u64_to_f64, usize_to_u64};
use fcad_accel::AcceleratorReport;
use fcad_cyclesim::AcceleratorSim;

/// Service parameters of one branch pipeline of the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchService {
    /// Branch name (matches the network / report branch name).
    pub name: String,
    /// Steady-state time to produce one frame of this branch, µs.
    pub frame_time_us: u64,
    /// Pipeline-fill overhead paid once per dispatched batch, µs.
    pub fill_time_us: u64,
    /// Largest batch one dispatch may aggregate (the DSE-chosen batch
    /// size for this branch).
    pub max_batch: usize,
    /// Priority weight; higher is more important. Mirrors the per-branch
    /// priorities of the paper's customization vector.
    pub priority: f64,
}

/// Service parameters for every branch of the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceModel {
    /// Per-branch service parameters, in branch order.
    pub branches: Vec<BranchService>,
}

impl ServiceModel {
    /// Builds the analytical service model from an accelerator report:
    /// frame time from the branch throughput (Eq. 5), fill overhead from
    /// the critical stage latency at the accelerator clock.
    pub fn from_report(report: &AcceleratorReport, frequency_hz: f64) -> Self {
        let branches = report
            .branches
            .iter()
            .map(|b| BranchService {
                name: b.name.clone(),
                frame_time_us: seconds_to_us(1.0 / b.fps.max(f64::MIN_POSITIVE)),
                fill_time_us: cycles_to_us(b.critical_latency_cycles, frequency_hz),
                max_batch: b.batch_size.max(1),
                priority: 1.0,
            })
            .collect();
        Self { branches }
    }

    /// Builds the cycle-level-calibrated service model from a simulation:
    /// frame time from the measured throughput, fill overhead from the
    /// measured first-frame latency (which includes weight-fetch stalls the
    /// analytical model ignores).
    pub fn from_simulation(sim: &AcceleratorSim, frequency_hz: f64) -> Self {
        let branches = sim
            .branches
            .iter()
            .map(|b| BranchService {
                name: b.name.clone(),
                frame_time_us: seconds_to_us(1.0 / b.fps.max(f64::MIN_POSITIVE)),
                fill_time_us: cycles_to_us(b.first_frame_latency_cycles, frequency_hz),
                max_batch: b.batch_size.max(1),
                priority: 1.0,
            })
            .collect();
        Self { branches }
    }

    /// Replaces the per-branch priorities (missing entries keep 1.0).
    pub fn with_priorities(mut self, priorities: &[f64]) -> Self {
        for (index, branch) in self.branches.iter_mut().enumerate() {
            branch.priority = priorities.get(index).copied().unwrap_or(1.0);
        }
        self
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Service time of one dispatched batch of `batch_len` same-branch
    /// requests, µs. Always at least 1 µs so the event clock advances.
    pub fn batch_service_us(&self, branch: usize, batch_len: usize) -> u64 {
        let b = &self.branches[branch];
        (b.fill_time_us + usize_to_u64(batch_len) * b.frame_time_us).max(1)
    }

    /// Per-branch single-request service cost
    /// (`batch_service_us(branch, 1)`), resolved once so the engine's
    /// per-arrival admission view and per-completion backlog accounting
    /// are table lookups on the hot path.
    pub fn single_costs(&self) -> Vec<u64> {
        (0..self.branch_count())
            .map(|branch| self.batch_service_us(branch, 1))
            .collect()
    }

    /// Priority weight of `branch` (1.0 when out of range).
    pub fn priority(&self, branch: usize) -> f64 {
        self.branches.get(branch).map_or(1.0, |b| b.priority)
    }

    /// DSE-chosen maximum batch size of `branch` (1 when out of range).
    pub fn max_batch(&self, branch: usize) -> usize {
        self.branches.get(branch).map_or(1, |b| b.max_batch)
    }
}

fn seconds_to_us(seconds: f64) -> u64 {
    f64_to_u64((seconds * 1e6).ceil().max(1.0))
}

fn cycles_to_us(cycles: u64, frequency_hz: f64) -> u64 {
    f64_to_u64((u64_to_f64(cycles) / frequency_hz.max(1.0) * 1e6).ceil())
}

/// A small hand-built model used across the crate's unit tests: two
/// visual branches plus a cheap low-priority audio-like branch.
#[cfg(test)]
pub(crate) fn test_model() -> ServiceModel {
    ServiceModel {
        branches: vec![
            BranchService {
                name: "geometry".into(),
                frame_time_us: 4_000,
                fill_time_us: 1_000,
                max_batch: 1,
                priority: 1.0,
            },
            BranchService {
                name: "texture".into(),
                frame_time_us: 3_000,
                fill_time_us: 1_500,
                max_batch: 2,
                priority: 1.0,
            },
            BranchService {
                name: "audio".into(),
                frame_time_us: 1_000,
                fill_time_us: 500,
                max_batch: 2,
                priority: 0.2,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_service_amortizes_fill_over_the_batch() {
        let model = test_model();
        let one = model.batch_service_us(1, 1);
        let two = model.batch_service_us(1, 2);
        assert_eq!(one, 4_500);
        assert_eq!(two, 7_500);
        // Two singles pay the fill twice; one batch of two pays it once.
        assert!(two < 2 * one);
    }

    #[test]
    fn priorities_replace_only_listed_branches() {
        let model = test_model().with_priorities(&[2.0]);
        assert_eq!(model.priority(0), 2.0);
        assert_eq!(model.priority(1), 1.0);
        assert_eq!(model.priority(9), 1.0);
        assert_eq!(model.max_batch(9), 1);
    }

    #[test]
    fn unit_conversions_round_up_and_stay_positive() {
        assert_eq!(seconds_to_us(0.0005), 500);
        assert_eq!(seconds_to_us(0.0), 1);
        // 200 cycles at 200 MHz = 1 µs.
        assert_eq!(cycles_to_us(200, 200e6), 1);
        assert_eq!(cycles_to_us(0, 200e6), 0);
    }
}
