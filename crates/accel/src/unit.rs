//! The basic architecture unit: latency and resource model of one pipeline
//! stage under a 3D-parallelism configuration.

use crate::cost::CostModel;
use crate::parallelism::Parallelism;
use crate::stage::ConvStage;
use fcad_nnir::Precision;
use serde::{Deserialize, Serialize};

/// Latency and resources of one basic architecture unit (Sec. V-B/C): the
/// Eq. 4, DSP and BRAM formulas, written once.
///
/// A unit executes one fused Conv-like stage with `cpf × kpf × h` MAC lanes,
/// an input line buffer, a double-buffered weight tile buffer and a port to
/// external memory for streaming weights. [`UnitCost::of`] answers how long
/// the stage takes (Eq. 4), how many DSPs and BRAMs it occupies and how many
/// weight bytes it streams per frame. Branch pipelines, the DSE, the
/// cycle-level simulator and the DNNBuilder baseline all cost their stages
/// through it; it is `Copy` and builds without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitCost {
    /// Stage latency in cycles for one input (Eq. 4 without the frequency
    /// term).
    pub latency_cycles: u64,
    /// DSP slices (or ASIC MAC units) occupied by the unit.
    pub dsp: usize,
    /// On-chip memory blocks occupied by the unit.
    pub bram: usize,
    /// Bytes of weights streamed from external memory per frame.
    pub weight_bytes_per_frame: u64,
}

impl UnitCost {
    /// Costs `stage` under `parallelism` (clamped to the stage's limits).
    pub fn of(
        stage: &ConvStage,
        parallelism: Parallelism,
        precision: Precision,
        cost: &CostModel,
    ) -> Self {
        let p = parallelism.clamped_to(stage);
        let bits = precision.bits();
        let bytes = precision.bytes() as u64;

        // Eq. 4: Lat = OutCh * InCh * H * W * K^2 / (cpf * kpf * h * f).
        // Expressed in cycles (frequency applied by the caller).
        let latency_cycles = (stage.macs as f64 / p.total() as f64).ceil().max(1.0) as u64;

        // Compute: MAC lanes mapped onto DSPs according to precision packing.
        let dsp = (p.total() as f64 / precision.macs_per_dsp()).ceil() as usize;

        // Input line buffer: `kernel` rows of the input feature map across
        // all input channels, double-buffered; banked to sustain `cpf × h`
        // reads per cycle (the kpf engines share the same input values).
        let line_bits = cost.buffer_factor()
            * (stage.kernel.max(1) * stage.in_width * stage.in_channels) as u64
            * bits as u64;
        let input_blocks = cost.blocks_for(line_bits, p.cpf * p.h, bits);

        // Weight tile buffer: the kernels of the current (cpf, kpf) tile,
        // double-buffered so the next tile streams in during compute; banked
        // to sustain `cpf × kpf` reads per cycle (the h partitions share
        // weights).
        let tile_bits = cost.buffer_factor()
            * (p.cpf * p.kpf * stage.kernel * stage.kernel) as u64
            * bits as u64;
        let weight_blocks = cost.blocks_for(tile_bits, p.cpf * p.kpf, bits);

        Self {
            latency_cycles,
            dsp,
            bram: input_blocks + weight_blocks + cost.control_bram_per_stage,
            weight_bytes_per_frame: stage.params * bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BranchConfig, StageConfig};
    use crate::pipeline::{BranchPipeline, BranchReport};

    fn conv7() -> ConvStage {
        // Branch-2 "Conv7": 16 -> 16 channels, 3x3, 512x512 output.
        ConvStage::synthetic("conv7", 16, 16, 512, 512, 3, 1)
    }

    fn int8(stage: &ConvStage, parallelism: Parallelism) -> UnitCost {
        UnitCost::of(stage, parallelism, Precision::Int8, &CostModel::default())
    }

    /// Evaluates a one-stage, one-copy INT8 pipeline around `stage`.
    fn alone(stage: &ConvStage, parallelism: Parallelism, frequency_hz: f64) -> BranchReport {
        BranchPipeline::new("alone", vec![stage.clone()])
            .evaluate(
                &BranchConfig::new(1, vec![StageConfig::new(parallelism)]),
                Precision::Int8,
                frequency_hz,
                &CostModel::default(),
            )
            .expect("one configuration per stage")
    }

    #[test]
    fn latency_follows_eq4() {
        let stage = conv7();
        let unit = int8(&stage, Parallelism::new(16, 16, 1));
        let expected = 16u64 * 16 * 9 * 512 * 512 / (16 * 16);
        assert_eq!(unit.latency_cycles, expected);
        // Doubling the H-partition halves the latency.
        let unit2 = int8(&stage, Parallelism::new(16, 16, 2));
        assert_eq!(unit2.latency_cycles, expected / 2);
    }

    #[test]
    fn dsp_packing_depends_on_precision() {
        let stage = conv7();
        let p = Parallelism::new(16, 16, 2);
        let cost = CostModel::default();
        assert_eq!(UnitCost::of(&stage, p, Precision::Int8, &cost).dsp, 256);
        assert_eq!(UnitCost::of(&stage, p, Precision::Int16, &cost).dsp, 512);
    }

    #[test]
    fn oversized_parallelism_is_clamped() {
        let stage = ConvStage::synthetic("small", 4, 4, 8, 8, 3, 1);
        let oversized = Parallelism::new(64, 64, 64);
        let max = Parallelism::new(4, 4, 8);
        assert_eq!(oversized.clamped_to(&stage), max);
        assert_eq!(int8(&stage, oversized), int8(&stage, max));
    }

    #[test]
    fn unit_cost_clamps_and_matches_the_model() {
        // A pipeline stage under an oversized configuration reports the
        // clamped parallelism and exactly the unit cost of the stage maximum.
        let stage = ConvStage::synthetic("small", 4, 4, 8, 8, 3, 1);
        let max = Parallelism::new(4, 4, 8);
        let unit = int8(&stage, max);
        let report = alone(&stage, Parallelism::new(64, 64, 64), 200e6);
        let evaluated = &report.stages[0];
        assert_eq!(evaluated.parallelism, max);
        assert_eq!(evaluated.latency_cycles, unit.latency_cycles);
        assert_eq!(evaluated.dsp, unit.dsp);
        assert_eq!(evaluated.bram, unit.bram);
        assert_eq!(
            evaluated.weight_bytes_per_frame,
            unit.weight_bytes_per_frame
        );
    }

    #[test]
    fn bram_grows_with_feature_width_and_parallelism() {
        let narrow = ConvStage::synthetic("narrow", 16, 16, 64, 64, 3, 1);
        let wide = ConvStage::synthetic("wide", 16, 16, 64, 1024, 3, 1);
        let p = Parallelism::new(4, 4, 1);
        let narrow_unit = int8(&narrow, p);
        assert!(int8(&wide, p).bram > narrow_unit.bram);

        let more_parallel = int8(&narrow, Parallelism::new(16, 16, 8));
        assert!(more_parallel.bram >= narrow_unit.bram);
    }

    #[test]
    fn bandwidth_scales_with_fps() {
        // A unit streams its weights once per frame: its bandwidth is the
        // weight bytes times the frame rate, derated by the DRAM efficiency,
        // so twice the clock gives twice the frames and twice the traffic.
        let stage = conv7();
        let p = Parallelism::new(16, 16, 1);
        let weight_bytes = int8(&stage, p).weight_bytes_per_frame as f64;
        let dram_efficiency = CostModel::default().dram_efficiency;
        let at100 = alone(&stage, p, 100e6);
        let at200 = alone(&stage, p, 200e6);
        assert!((at200.fps / at100.fps - 2.0).abs() < 1e-9);
        for report in [&at100, &at200] {
            let expected = weight_bytes * report.fps / dram_efficiency;
            assert!((report.usage.bandwidth_bytes_per_sec / expected - 1.0).abs() < 1e-12);
        }
        let ratio = at200.usage.bandwidth_bytes_per_sec / at100.usage.bandwidth_bytes_per_sec;
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sixteen_bit_weights_double_the_streaming_traffic() {
        let stage = conv7();
        let p = Parallelism::new(16, 16, 1);
        let cost = CostModel::default();
        assert_eq!(
            UnitCost::of(&stage, p, Precision::Int16, &cost).weight_bytes_per_frame,
            2 * UnitCost::of(&stage, p, Precision::Int8, &cost).weight_bytes_per_frame
        );
    }
}
