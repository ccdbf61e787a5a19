//! Tunable constants of the resource cost model.

/// Constants used by the DSP / BRAM / bandwidth estimators.
///
/// The defaults model Xilinx-style FPGAs: 18 Kb BRAM blocks with two ports
/// that can each deliver a 36-bit word per cycle, double-buffered line and
/// weight buffers, and a small fixed control overhead per pipeline stage.
/// They are exposed so that ASIC-style memories (or calibration against a
/// particular board) can adjust the model without touching the estimator
/// code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Capacity of one on-chip memory block in bits (BRAM18K by default).
    pub bram_bits: u64,
    /// Read/write ports per memory block.
    pub bram_ports: usize,
    /// Maximum word width one port can deliver per cycle, in bits.
    pub bram_port_bits: usize,
    /// Whether stage buffers are double-buffered (ping-pong).
    pub double_buffer: bool,
    /// Fixed memory blocks charged per stage for control FIFOs and bias
    /// storage.
    pub control_bram_per_stage: usize,
    /// Fraction of the theoretical external bandwidth that is actually
    /// achievable (DDR efficiency).
    pub dram_efficiency: f64,
}

impl CostModel {
    /// Cost model for Xilinx-style FPGAs (the paper's targets).
    pub fn fpga() -> Self {
        Self {
            bram_bits: 18 * 1024,
            bram_ports: 2,
            bram_port_bits: 36,
            double_buffer: true,
            control_bram_per_stage: 2,
            dram_efficiency: 0.8,
        }
    }

    /// Cost model for an ASIC-style design with wider, single-ported SRAM
    /// macros and better DRAM efficiency.
    pub fn asic() -> Self {
        Self {
            bram_bits: 18 * 1024,
            bram_ports: 1,
            bram_port_bits: 128,
            double_buffer: true,
            control_bram_per_stage: 1,
            dram_efficiency: 0.9,
        }
    }

    /// Buffer sizing multiplier (2 when double-buffered).
    pub fn buffer_factor(&self) -> u64 {
        if self.double_buffer {
            2
        } else {
            1
        }
    }

    /// How many scalar values of `bits` width one memory block can deliver
    /// per cycle across all its ports.
    pub fn values_per_block_per_cycle(&self, bits: usize) -> usize {
        let per_port = (self.bram_port_bits / bits.max(1)).max(1);
        per_port * self.bram_ports.max(1)
    }

    /// Memory blocks needed to store `bits` bits *and* sustain
    /// `parallel_reads` scalar reads (of `value_bits` each) per cycle.
    pub fn blocks_for(&self, bits: u64, parallel_reads: usize, value_bits: usize) -> usize {
        let capacity_blocks = bits.div_ceil(self.bram_bits).max(1) as usize;
        let bandwidth_blocks = parallel_reads
            .div_ceil(self.values_per_block_per_cycle(value_bits))
            .max(1);
        capacity_blocks.max(bandwidth_blocks)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::fpga()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fpga() {
        assert_eq!(CostModel::default(), CostModel::fpga());
    }

    #[test]
    fn values_per_block_depend_on_precision() {
        let cm = CostModel::fpga();
        assert_eq!(cm.values_per_block_per_cycle(8), 8);
        assert_eq!(cm.values_per_block_per_cycle(16), 4);
        assert_eq!(cm.values_per_block_per_cycle(32), 2);
    }

    #[test]
    fn blocks_for_takes_max_of_capacity_and_banking() {
        let cm = CostModel::fpga();
        // Tiny buffer but many parallel reads -> banking dominates.
        assert_eq!(cm.blocks_for(1_000, 64, 8), 8);
        // Large buffer, few reads -> capacity dominates.
        assert_eq!(cm.blocks_for(10 * 18 * 1024, 1, 8), 10);
    }

    #[test]
    fn asic_model_has_wider_ports() {
        let asic = CostModel::asic();
        assert!(
            asic.values_per_block_per_cycle(8) > CostModel::fpga().values_per_block_per_cycle(8)
        );
    }
}
