//! The basic architecture unit: latency and resource model of one pipeline
//! stage under a 3D-parallelism configuration.

use crate::cost::CostModel;
use crate::parallelism::Parallelism;
use crate::platform::ResourceUsage;
use crate::stage::ConvStage;
use fcad_nnir::Precision;
use serde::{Deserialize, Serialize};

/// Latency and resources of one basic architecture unit: the Eq. 4, DSP
/// and BRAM formulas of Sec. V-B/C, written once. [`UnitModel`] wraps it
/// with the stage's identity; the DSE's in-branch search evaluates it
/// directly, since it is `Copy` and builds without allocating.
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

/// Analytical model of one basic architecture unit (Sec. V-B/C).
///
/// A unit executes one fused Conv-like stage with `cpf × kpf × h` MAC lanes,
/// an input line buffer, a double-buffered weight tile buffer and a port to
/// external memory for streaming weights. The model answers three questions:
/// how long does the stage take (Eq. 4), how many DSPs / BRAMs does it
/// occupy, and how much external bandwidth does it need to sustain its
/// throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitModel {
    stage_name: String,
    parallelism: Parallelism,
    precision: Precision,
    cost: UnitCost,
    macs: u64,
    ops: u64,
}

impl UnitModel {
    /// Builds the model for `stage` under `parallelism` (clamped to the
    /// stage's limits) using the default FPGA cost model.
    pub fn new(stage: &ConvStage, parallelism: Parallelism, precision: Precision) -> Self {
        Self::with_cost_model(stage, parallelism, precision, &CostModel::default())
    }

    /// Builds the model with an explicit [`CostModel`].
    pub fn with_cost_model(
        stage: &ConvStage,
        parallelism: Parallelism,
        precision: Precision,
        cost: &CostModel,
    ) -> Self {
        Self {
            stage_name: stage.name.clone(),
            parallelism: parallelism.clamped_to(stage),
            precision,
            cost: UnitCost::of(stage, parallelism, precision, cost),
            macs: stage.macs,
            ops: stage.ops,
        }
    }

    /// Name of the stage this unit executes.
    pub fn stage_name(&self) -> &str {
        &self.stage_name
    }

    /// The (clamped) parallelism configuration of the unit.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Numeric precision of the unit.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Stage latency in cycles for one input (Eq. 4 without the frequency
    /// term).
    pub fn latency_cycles(&self) -> u64 {
        self.cost.latency_cycles
    }

    /// Stage latency in seconds at `frequency_hz`.
    pub fn latency_seconds(&self, frequency_hz: f64) -> f64 {
        self.cost.latency_cycles as f64 / frequency_hz
    }

    /// DSP slices (or ASIC MAC units) occupied by the unit.
    pub fn dsp(&self) -> usize {
        self.cost.dsp
    }

    /// On-chip memory blocks occupied by the unit.
    pub fn bram(&self) -> usize {
        self.cost.bram
    }

    /// Bytes of weights streamed from external memory per frame.
    pub fn weight_bytes_per_frame(&self) -> u64 {
        self.cost.weight_bytes_per_frame
    }

    /// Operations executed per frame (including fused epilogue work).
    pub fn ops_per_frame(&self) -> u64 {
        self.ops
    }

    /// MACs executed per frame.
    pub fn macs_per_frame(&self) -> u64 {
        self.macs
    }

    /// External bandwidth (bytes/s) needed to stream this stage's weights at
    /// `fps` frames per second, after derating by the DRAM efficiency of the
    /// cost model.
    pub fn bandwidth_bytes_per_sec(&self, fps: f64, cost: &CostModel) -> f64 {
        self.cost.weight_bytes_per_frame as f64 * fps / cost.dram_efficiency.max(1e-6)
    }

    /// Resource usage of this unit at a given frame rate.
    pub fn resource_usage(&self, fps: f64, cost: &CostModel) -> ResourceUsage {
        ResourceUsage {
            dsp: self.cost.dsp,
            bram: self.cost.bram,
            bandwidth_bytes_per_sec: self.bandwidth_bytes_per_sec(fps, cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv7() -> ConvStage {
        // Branch-2 "Conv7": 16 -> 16 channels, 3x3, 512x512 output.
        ConvStage::synthetic("conv7", 16, 16, 512, 512, 3, 1)
    }

    #[test]
    fn latency_follows_eq4() {
        let stage = conv7();
        let unit = UnitModel::new(&stage, Parallelism::new(16, 16, 1), Precision::Int8);
        let expected = 16u64 * 16 * 9 * 512 * 512 / (16 * 16);
        assert_eq!(unit.latency_cycles(), expected);
        // Doubling the H-partition halves the latency.
        let unit2 = UnitModel::new(&stage, Parallelism::new(16, 16, 2), Precision::Int8);
        assert_eq!(unit2.latency_cycles(), expected / 2);
    }

    #[test]
    fn dsp_packing_depends_on_precision() {
        let stage = conv7();
        let p = Parallelism::new(16, 16, 2);
        let int8 = UnitModel::new(&stage, p, Precision::Int8);
        let int16 = UnitModel::new(&stage, p, Precision::Int16);
        assert_eq!(int8.dsp(), 256);
        assert_eq!(int16.dsp(), 512);
    }

    #[test]
    fn oversized_parallelism_is_clamped() {
        let stage = ConvStage::synthetic("small", 4, 4, 8, 8, 3, 1);
        let unit = UnitModel::new(&stage, Parallelism::new(64, 64, 64), Precision::Int8);
        assert_eq!(unit.parallelism(), Parallelism::new(4, 4, 8));
    }

    #[test]
    fn unit_cost_clamps_and_matches_the_model() {
        let stage = ConvStage::synthetic("small", 4, 4, 8, 8, 3, 1);
        let cost = CostModel::default();
        let oversized = UnitCost::of(&stage, Parallelism::new(64, 64, 64), Precision::Int8, &cost);
        let max = UnitCost::of(&stage, Parallelism::new(4, 4, 8), Precision::Int8, &cost);
        assert_eq!(oversized, max);
        let unit = UnitModel::new(&stage, Parallelism::new(64, 64, 64), Precision::Int8);
        assert_eq!(unit.latency_cycles(), max.latency_cycles);
        assert_eq!(unit.dsp(), max.dsp);
        assert_eq!(unit.bram(), max.bram);
        assert_eq!(unit.weight_bytes_per_frame(), max.weight_bytes_per_frame);
    }

    #[test]
    fn bram_grows_with_feature_width_and_parallelism() {
        let narrow = ConvStage::synthetic("narrow", 16, 16, 64, 64, 3, 1);
        let wide = ConvStage::synthetic("wide", 16, 16, 64, 1024, 3, 1);
        let p = Parallelism::new(4, 4, 1);
        let narrow_unit = UnitModel::new(&narrow, p, Precision::Int8);
        let wide_unit = UnitModel::new(&wide, p, Precision::Int8);
        assert!(wide_unit.bram() > narrow_unit.bram());

        let more_parallel = UnitModel::new(&narrow, Parallelism::new(16, 16, 8), Precision::Int8);
        assert!(more_parallel.bram() >= narrow_unit.bram());
    }

    #[test]
    fn bandwidth_scales_with_fps() {
        let stage = conv7();
        let unit = UnitModel::new(&stage, Parallelism::new(16, 16, 1), Precision::Int8);
        let cost = CostModel::default();
        let bw30 = unit.bandwidth_bytes_per_sec(30.0, &cost);
        let bw60 = unit.bandwidth_bytes_per_sec(60.0, &cost);
        assert!((bw60 / bw30 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sixteen_bit_weights_double_the_streaming_traffic() {
        let stage = conv7();
        let p = Parallelism::new(16, 16, 1);
        let int8 = UnitModel::new(&stage, p, Precision::Int8);
        let int16 = UnitModel::new(&stage, p, Precision::Int16);
        assert_eq!(
            int16.weight_bytes_per_frame(),
            2 * int8.weight_bytes_per_frame()
        );
    }
}
