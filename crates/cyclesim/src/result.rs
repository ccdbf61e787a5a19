//! Simulation result types.

/// Per-stage simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSim {
    /// Stage name.
    pub name: String,
    /// Cycles the stage spends computing one frame (tile-quantized, with
    /// per-tile overhead).
    pub compute_cycles: u64,
    /// Cycles the stage spends stalled waiting for weights from external
    /// memory.
    pub weight_stall_cycles: u64,
    /// Cycles from frame start until this stage can begin (pipeline fill).
    pub start_offset_cycles: u64,
    /// DSPs occupied by one copy of the stage in the simulated
    /// implementation (includes address-generation overhead).
    pub dsp: usize,
}

impl StageSim {
    /// Total cycles the stage occupies per frame (compute plus stalls).
    pub fn busy_cycles(&self) -> u64 {
        self.compute_cycles + self.weight_stall_cycles
    }
}

/// Simulation outcome of one branch pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchSim {
    /// Branch name.
    pub name: String,
    /// Pipeline copies instantiated (batch size).
    pub batch_size: usize,
    /// Steady-state interval between completed frames of a single pipeline
    /// copy, in cycles.
    pub steady_interval_cycles: u64,
    /// Latency of the first frame through the pipeline (fill included), in
    /// cycles.
    pub first_frame_latency_cycles: u64,
    /// Measured throughput in frames per second (all copies).
    pub fps: f64,
    /// Measured hardware efficiency (Eq. 3 with measured throughput and
    /// implemented DSP count).
    pub efficiency: f64,
    /// DSPs occupied by the branch (all copies, including implementation
    /// overhead).
    pub dsp: usize,
    /// Operations per frame.
    pub ops_per_frame: u64,
    /// Per-stage details (single copy).
    pub stages: Vec<StageSim>,
}

/// Simulation outcome of a complete multi-branch accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorSim {
    /// Per-branch results in branch order.
    pub branches: Vec<BranchSim>,
    /// Throughput of the slowest branch.
    pub min_fps: f64,
    /// Overall efficiency across branches.
    pub overall_efficiency: f64,
    /// Total DSPs of the simulated implementation.
    pub dsp: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_cycles_add_compute_and_stall() {
        let stage = StageSim {
            name: "s".into(),
            compute_cycles: 100,
            weight_stall_cycles: 20,
            start_offset_cycles: 5,
            dsp: 4,
        };
        assert_eq!(stage.busy_cycles(), 120);
    }
}
