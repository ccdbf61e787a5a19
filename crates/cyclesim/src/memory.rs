//! Shared external-memory model.

/// A bandwidth-limited external memory shared by every pipeline stage.
///
/// Weight streams are the dominant external traffic of the layer-pipelined
/// architecture (activations stay on chip between stages), so the model
/// tracks how many bytes each consumer moves per frame and charges transfer
/// cycles at the effective per-cycle bandwidth. Contention is modeled by
/// derating each consumer's share proportionally to the total demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Peak bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fraction of the peak that is achievable (row activations, refresh,
    /// bus turnaround).
    pub efficiency: f64,
    /// Clock frequency of the accelerator, used to convert bandwidth into
    /// bytes per cycle.
    pub frequency_hz: f64,
}

impl MemoryModel {
    /// Creates a memory model with the default 80 % DRAM efficiency.
    pub fn new(bandwidth_bytes_per_sec: f64, frequency_hz: f64) -> Self {
        Self {
            bandwidth_bytes_per_sec,
            efficiency: 0.8,
            frequency_hz,
        }
    }

    /// Effective bytes transferred per accelerator cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        (self.bandwidth_bytes_per_sec * self.efficiency) / self.frequency_hz.max(1.0)
    }

    /// Cycles needed to transfer `bytes` when this consumer receives
    /// `share` (0–1] of the memory bandwidth.
    pub fn transfer_cycles(&self, bytes: u64, share: f64) -> u64 {
        let per_cycle = self.bytes_per_cycle() * share.clamp(1e-6, 1.0);
        (bytes as f64 / per_cycle.max(1e-9)).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_cycle_accounts_for_efficiency() {
        let mem = MemoryModel::new(12.8e9, 200e6);
        // 12.8 GB/s * 0.8 / 200 MHz = 51.2 bytes per cycle.
        assert!((mem.bytes_per_cycle() - 51.2).abs() < 1e-9);
    }

    #[test]
    fn transfer_cycles_scale_inversely_with_share() {
        let mem = MemoryModel::new(12.8e9, 200e6);
        let full = mem.transfer_cycles(1_000_000, 1.0);
        let half = mem.transfer_cycles(1_000_000, 0.5);
        assert!(half >= 2 * full - 2);
    }

    #[test]
    fn zero_share_is_clamped() {
        let mem = MemoryModel::new(12.8e9, 200e6);
        assert!(mem.transfer_cycles(1_000, 0.0) > 0);
    }
}
