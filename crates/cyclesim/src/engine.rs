//! Discrete-time execution model of one branch pipeline.
//!
//! The engine models each stage at *row-tile* granularity: a stage with
//! H-partition `h` produces `h` output rows per pass, each pass costing the
//! tile-quantized inner-loop cycles plus a fixed control overhead. Stages are
//! chained through row dependencies (a stage needs `kernel` rows of its
//! input, and its last H-partition section needs rows near the bottom of the
//! map before it can start), and weight tiles stream from the shared
//! external memory in the background.

use crate::memory::MemoryModel;
use crate::result::StageSim;
use fcad_accel::{ConvStage, CostModel, Parallelism, UnitCost};
use fcad_nnir::Precision;

/// Fixed control overhead charged per row pass (loop prologue/epilogue of
/// the fine-grained pipeline).
const ROW_PASS_OVERHEAD_CYCLES: u64 = 12;

/// Extra DSPs per stage spent on address generation in the implemented
/// design (not foreseen by the analytical model).
const ADDRESS_GEN_DSP_PER_STAGE: usize = 1;

/// Timing of a single stage derived from its geometry and parallelism.
#[derive(Debug, Clone)]
pub(crate) struct StageTiming {
    pub name: String,
    /// Number of passes per frame.
    pub passes: u64,
    /// Cycles per pass (tile-quantized inner loops + overhead).
    pub cycles_per_pass: u64,
    /// Input rows that must be available before the stage can start.
    pub input_rows_needed_to_start: usize,
    /// Output rows emitted in total (after fused up-sampling).
    pub output_rows_total: usize,
    /// Weight bytes streamed per frame.
    pub weight_bytes: u64,
    /// DSPs of the implemented stage.
    pub dsp: usize,
    /// Operations per frame.
    pub ops: u64,
}

impl StageTiming {
    pub(crate) fn new(stage: &ConvStage, parallelism: Parallelism, precision: Precision) -> Self {
        let p = parallelism.clamped_to(stage);
        let cin_tiles = div_ceil(stage.in_channels as u64, p.cpf as u64);
        let cout_tiles = div_ceil(stage.out_channels as u64, p.kpf as u64);
        let kernel_sq = (stage.kernel * stage.kernel) as u64;
        // One pass computes `h` output rows (one per partition section);
        // every output pixel of those rows needs the full channel/kernel
        // reduction.
        let cycles_per_pass =
            cin_tiles * cout_tiles * kernel_sq * stage.out_width as u64 + ROW_PASS_OVERHEAD_CYCLES;
        let passes = div_ceil(stage.out_height as u64, p.h as u64);
        // The last H-partition section starts near the bottom of the input
        // map, so with h sections the stage needs roughly ((h-1)/h) of the
        // input plus a kernel window before it can produce its first pass.
        let input_rows_needed_to_start = if p.h <= 1 {
            stage.kernel.min(stage.in_height)
        } else {
            (stage.in_height * (p.h - 1) / p.h + stage.kernel).min(stage.in_height)
        };
        let unit = UnitCost::of(stage, p, precision, &CostModel::default());
        Self {
            name: stage.name.clone(),
            passes,
            cycles_per_pass,
            input_rows_needed_to_start,
            output_rows_total: stage.upsampled_height(),
            weight_bytes: unit.weight_bytes_per_frame,
            dsp: unit.dsp + ADDRESS_GEN_DSP_PER_STAGE,
            ops: stage.ops,
        }
    }

    /// Pure compute cycles per frame.
    pub(crate) fn compute_cycles(&self) -> u64 {
        self.passes * self.cycles_per_pass
    }

    /// Output rows emitted per pass (scaled by the fused up-sampling).
    fn output_rows_per_pass(&self) -> f64 {
        self.output_rows_total as f64 / self.passes as f64
    }
}

/// Result of executing one branch pipeline (single copy).
#[derive(Debug, Clone)]
pub(crate) struct BranchTiming {
    pub stages: Vec<StageSim>,
    pub steady_interval_cycles: u64,
    pub first_frame_latency_cycles: u64,
    pub ops_per_frame: u64,
    pub dsp: usize,
}

/// Executes one branch pipeline and derives its steady-state interval and
/// first-frame latency.
pub(crate) fn run_branch(
    stages: &[ConvStage],
    parallelism: &[Parallelism],
    precision: Precision,
    memory: &MemoryModel,
) -> BranchTiming {
    let timings: Vec<StageTiming> = stages
        .iter()
        .zip(parallelism)
        .map(|(s, p)| StageTiming::new(s, *p, precision))
        .collect();

    let total_weight_bytes: u64 = timings.iter().map(|t| t.weight_bytes).sum();

    // Weight-streaming stalls: each stage receives a bandwidth share
    // proportional to its traffic; if streaming its weights takes longer
    // than computing the frame, the difference shows up as stall cycles.
    let mut stage_sims: Vec<StageSim> = Vec::with_capacity(timings.len());
    for timing in &timings {
        let share = if total_weight_bytes == 0 {
            1.0
        } else {
            timing.weight_bytes as f64 / total_weight_bytes as f64
        };
        let transfer = memory.transfer_cycles(timing.weight_bytes, share);
        let compute = timing.compute_cycles();
        let stall = transfer.saturating_sub(compute);
        stage_sims.push(StageSim {
            name: timing.name.clone(),
            compute_cycles: compute,
            weight_stall_cycles: stall,
            start_offset_cycles: 0,
            dsp: timing.dsp,
        });
    }

    // Pipeline fill: stage i can start once stage i-1 has emitted enough
    // rows. Emission is approximated as linear in time at the producing
    // stage's pass rate.
    let mut start_offsets: Vec<f64> = vec![0.0; timings.len()];
    for i in 1..timings.len() {
        let producer = &timings[i - 1];
        let consumer = &timings[i];
        let producer_start = start_offsets[i - 1];
        let rows_needed = consumer.input_rows_needed_to_start as f64;
        let producer_rate = producer.output_rows_per_pass()
            / (producer.cycles_per_pass as f64
                + stage_sims[i - 1].weight_stall_cycles as f64 / producer.passes as f64);
        let wait = if producer_rate > 0.0 {
            rows_needed / producer_rate
        } else {
            0.0
        };
        start_offsets[i] = producer_start + wait;
    }
    for (sim, offset) in stage_sims.iter_mut().zip(&start_offsets) {
        sim.start_offset_cycles = offset.round() as u64;
    }

    // Steady state: the frame interval is set by the busiest stage, but can
    // never beat the time needed to stream one frame's worth of weights over
    // the whole memory channel.
    let busiest = stage_sims
        .iter()
        .map(StageSim::busy_cycles)
        .max()
        .unwrap_or(1)
        .max(1);
    let weight_bound = memory.transfer_cycles(total_weight_bytes, 1.0);
    let steady_interval_cycles = busiest.max(weight_bound);

    let first_frame_latency_cycles = stage_sims
        .last()
        .map(|last| last.start_offset_cycles + last.busy_cycles())
        .unwrap_or(0);

    BranchTiming {
        ops_per_frame: timings.iter().map(|t| t.ops).sum(),
        dsp: stage_sims.iter().map(|s| s.dsp).sum(),
        stages: stage_sims,
        steady_interval_cycles,
        first_frame_latency_cycles,
    }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> MemoryModel {
        MemoryModel::new(12.8e9, 200e6)
    }

    #[test]
    fn quantization_penalizes_non_dividing_factors() {
        let stage = ConvStage::synthetic("s", 10, 10, 32, 32, 3, 1);
        let exact = StageTiming::new(&stage, Parallelism::new(10, 10, 1), Precision::Int8);
        let ragged = StageTiming::new(&stage, Parallelism::new(7, 7, 1), Precision::Int8);
        // 7 lanes on a 10-deep loop needs 2 tiles, same as 10 lanes would
        // need 1 — so the ragged configuration wastes cycles relative to the
        // ideal macs/lanes ratio.
        let ideal_ragged = (stage.macs as f64 / 49.0).ceil() as u64;
        assert!(ragged.compute_cycles() > ideal_ragged);
        assert_eq!(
            exact.compute_cycles(),
            (stage.macs / 100) + ROW_PASS_OVERHEAD_CYCLES * 32
        );
    }

    #[test]
    fn pipeline_fill_orders_stage_starts() {
        let stages = vec![
            ConvStage::synthetic("first", 8, 8, 64, 64, 3, 1),
            ConvStage::synthetic("second", 8, 8, 64, 64, 3, 1),
        ];
        let p = vec![Parallelism::new(8, 8, 1); 2];
        let timing = run_branch(&stages, &p, Precision::Int8, &memory());
        assert_eq!(timing.stages[0].start_offset_cycles, 0);
        assert!(timing.stages[1].start_offset_cycles > 0);
        assert!(timing.first_frame_latency_cycles > timing.steady_interval_cycles);
    }

    #[test]
    fn high_h_partition_delays_downstream_start() {
        let stages = vec![
            ConvStage::synthetic("first", 8, 8, 64, 64, 3, 1),
            ConvStage::synthetic("second", 8, 8, 64, 64, 3, 1),
        ];
        let modest = run_branch(
            &stages,
            &[Parallelism::new(8, 8, 1), Parallelism::new(8, 8, 1)],
            Precision::Int8,
            &memory(),
        );
        let aggressive = run_branch(
            &stages,
            &[Parallelism::new(8, 8, 1), Parallelism::new(8, 8, 16)],
            Precision::Int8,
            &memory(),
        );
        assert!(
            aggressive.stages[1].start_offset_cycles > modest.stages[1].start_offset_cycles,
            "a heavily H-partitioned consumer must wait for more producer rows"
        );
    }

    #[test]
    fn weight_heavy_stages_stall_on_bandwidth() {
        // A dense-like stage with huge weights and little compute must stall
        // on the weight stream.
        let fc = ConvStage::synthetic("fc", 4096, 4096, 1, 1, 1, 1);
        let timing = run_branch(
            &[fc],
            &[Parallelism::new(64, 64, 1)],
            Precision::Int16,
            &memory(),
        );
        assert!(timing.stages[0].weight_stall_cycles > 0);
        assert!(timing.steady_interval_cycles > timing.stages[0].compute_cycles);
    }

    #[test]
    fn implemented_dsp_count_exceeds_pure_mac_count() {
        let stage = ConvStage::synthetic("s", 8, 8, 32, 32, 3, 1);
        let timing = StageTiming::new(&stage, Parallelism::new(8, 8, 1), Precision::Int16);
        assert_eq!(timing.dsp, 64 + ADDRESS_GEN_DSP_PER_STAGE);
    }
}
