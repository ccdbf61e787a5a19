//! Three-dimensional parallelism configuration of a basic architecture unit.

use crate::error::{Error, Result};
use crate::stage::ConvStage;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The 3D parallelism of one basic architecture unit (Sec. V-C):
///
/// * `cpf` — channel parallelism factor: MACs unrolled along input channels,
/// * `kpf` — kernel parallelism factor: compute engines unrolled along
///   output channels,
/// * `h` — H-partition: the input feature map is split into `h` horizontal
///   sections processed by independent engine groups.
///
/// The total number of MAC lanes is `cpf × kpf × h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism {
    /// Input-channel unroll factor.
    pub cpf: usize,
    /// Output-channel unroll factor.
    pub kpf: usize,
    /// Feature-map-height partition count.
    pub h: usize,
}

impl Parallelism {
    /// Creates a parallelism configuration. Factors of zero are clamped to 1.
    pub fn new(cpf: usize, kpf: usize, h: usize) -> Self {
        Self {
            cpf: cpf.max(1),
            kpf: kpf.max(1),
            h: h.max(1),
        }
    }

    /// The scalar (1, 1, 1) configuration.
    pub fn unit() -> Self {
        Self::new(1, 1, 1)
    }

    /// Total MAC lanes (`cpf × kpf × h`).
    pub fn total(&self) -> usize {
        self.cpf * self.kpf * self.h
    }

    /// The largest parallelism a stage supports: `cpf ≤ InCh`, `kpf ≤ OutCh`,
    /// `h ≤` output rows.
    pub fn max_for(stage: &ConvStage) -> Self {
        Self::new(stage.in_channels, stage.out_channels, stage.out_height)
    }

    /// Validates this configuration against a stage.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParallelism`] when any factor exceeds the
    /// corresponding stage dimension.
    pub fn validate_for(&self, stage: &ConvStage) -> Result<()> {
        let max = Self::max_for(stage);
        if self.cpf > max.cpf || self.kpf > max.kpf || self.h > max.h {
            return Err(Error::InvalidParallelism {
                stage: stage.name.clone(),
                reason: format!(
                    "requested {self} exceeds stage maximum {max} \
                     (InCh {}, OutCh {}, rows {})",
                    stage.in_channels, stage.out_channels, stage.out_height
                ),
            });
        }
        Ok(())
    }

    /// Clamps every factor to the stage's maximum.
    pub fn clamped_to(&self, stage: &ConvStage) -> Self {
        let max = Self::max_for(stage);
        Self::new(
            self.cpf.min(max.cpf),
            self.kpf.min(max.kpf),
            self.h.min(max.h),
        )
    }

    /// Derives a balanced 3D split for a target number of MAC lanes on a
    /// given stage — the `GetPF` step of Algorithm 2.
    ///
    /// Builds the stage's [`LaneTable`] and queries it once; see
    /// [`LaneTable::for_target`] for the selection rule. A caller that asks
    /// for many targets on one stage, like the in-branch search, should
    /// build the table once and query it directly.
    pub fn for_target(stage: &ConvStage, target_lanes: usize) -> Self {
        LaneTable::of(stage).for_target(target_lanes)
    }
}

/// The `GetPF` search space of one stage: every pair of channel unroll
/// factors `(cpf, kpf)` that divide the stage's channel counts, with the
/// channel quanta `InCh/cpf × OutCh/kpf` each leaves, stably sorted by
/// `cpf × kpf`.
#[derive(Debug, Clone)]
pub struct LaneTable {
    max_h: usize,
    ideal_cycles: f64,
    cycles_per_quantum: f64,
    splits: Vec<ChannelSplit>,
}

/// One `(cpf, kpf)` pair of a [`LaneTable`]; 16 bytes.
#[derive(Debug, Clone, Copy)]
struct ChannelSplit {
    cpf: u32,
    kpf: u32,
    channel_quanta: usize,
}

impl ChannelSplit {
    fn channel_lanes(&self) -> usize {
        self.cpf as usize * self.kpf as usize
    }
}

impl LaneTable {
    /// Builds the table of `stage`.
    ///
    /// # Panics
    ///
    /// When a channel count exceeds `u32::MAX`.
    pub fn of(stage: &ConvStage) -> Self {
        let max = Parallelism::max_for(stage);
        let ideal_cycles = stage.macs.max(1) as f64;
        let (cpfs, kpfs) = (divisors(max.cpf), divisors(max.kpf));
        let mut splits = Vec::with_capacity(cpfs.len() * kpfs.len());
        for &cpf in &cpfs {
            for &kpf in &kpfs {
                splits.push(ChannelSplit {
                    cpf: u32::try_from(cpf).expect("input channels fit in u32"),
                    kpf: u32::try_from(kpf).expect("output channels fit in u32"),
                    channel_quanta: max.cpf.div_ceil(cpf) * max.kpf.div_ceil(kpf),
                });
            }
        }
        // Stable: two candidates of `for_target` tie only with equal
        // `cpf × kpf`, and then the first in (cpf, kpf) order must win.
        splits.sort_by_key(ChannelSplit::channel_lanes);
        Self {
            max_h: max.h,
            ideal_cycles,
            cycles_per_quantum: ideal_cycles / (max.cpf * max.kpf * max.h) as f64,
            splits,
        }
    }

    /// [`Parallelism::for_target`] on the table's stage.
    ///
    /// Channel unroll factors are chosen among the divisors of the channel
    /// counts (so the unrolled loops stay balanced) and the H-partition
    /// supplies whatever the channels cannot; among all such combinations
    /// the one whose total lane count is closest to the target is selected,
    /// preferring channel unrolling (which reuses buffered data best) on
    /// ties. Channel splits of more than twice the target are not
    /// considered. The result never exceeds the stage's maximum
    /// parallelism; it may deliver fewer lanes than requested when the
    /// target exceeds that maximum.
    pub fn for_target(&self, target_lanes: usize) -> Parallelism {
        let target = target_lanes.max(1) as f64;
        let max_h = self.max_h;
        let mut best = Parallelism::unit();
        let mut best_score = (f64::INFINITY, 0usize);
        for split in &self.splits {
            let channel_lanes = split.channel_lanes();
            // Sorted by `cpf × kpf`: every later split overshoots too.
            if channel_lanes as f64 > target * 2.0 && channel_lanes > 1 {
                break;
            }
            let h_ideal = (target / channel_lanes as f64).round() as usize;
            for h in [
                h_ideal,
                h_ideal.saturating_add(1),
                h_ideal.saturating_sub(1),
            ] {
                let h = h.clamp(1, max_h);
                // Score by the *effective* lanes the candidate delivers once
                // loop quantization is taken into account: a factor that
                // mis-divides its dimension (e.g. 43 partitions of 55 rows)
                // wastes cycles that raw lane counting hides.
                let quantized_cycles =
                    (split.channel_quanta * max_h.div_ceil(h)) as f64 * self.cycles_per_quantum;
                let effective_lanes = self.ideal_cycles / quantized_cycles.max(1.0);
                let distance = (effective_lanes - target).abs();
                // Prefer the closest effective throughput; on ties prefer
                // more channel unrolling (better data reuse).
                let score = (distance, usize::MAX - channel_lanes);
                if score.0 < best_score.0 || (score.0 == best_score.0 && score.1 < best_score.1) {
                    best_score = score;
                    best = Parallelism::new(split.cpf as usize, split.kpf as usize, h);
                }
            }
        }
        best
    }
}

/// All divisors of `n` in ascending order (just `[1]` for zero).
fn divisors(n: usize) -> Vec<usize> {
    if n == 0 {
        return vec![1];
    }
    let mut out = Vec::new();
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            out.push(i);
            if i != n / i {
                out.push(n / i);
            }
        }
        i += 1;
    }
    out.sort_unstable();
    out
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(cpf {}, kpf {}, h {})", self.cpf, self.kpf, self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage() -> ConvStage {
        ConvStage::synthetic("s", 16, 32, 64, 64, 3, 1)
    }

    #[test]
    fn total_is_product_of_factors() {
        assert_eq!(Parallelism::new(2, 3, 4).total(), 24);
        assert_eq!(Parallelism::unit().total(), 1);
    }

    #[test]
    fn zero_factors_are_clamped() {
        let p = Parallelism::new(0, 0, 0);
        assert_eq!(p.total(), 1);
    }

    #[test]
    fn max_for_follows_stage_dimensions() {
        let max = Parallelism::max_for(&stage());
        assert_eq!(max.cpf, 16);
        assert_eq!(max.kpf, 32);
        assert_eq!(max.h, 64);
    }

    #[test]
    fn validate_rejects_oversized_factors() {
        let s = stage();
        assert!(Parallelism::new(16, 32, 64).validate_for(&s).is_ok());
        assert!(Parallelism::new(17, 1, 1).validate_for(&s).is_err());
        assert!(Parallelism::new(1, 33, 1).validate_for(&s).is_err());
        assert!(Parallelism::new(1, 1, 65).validate_for(&s).is_err());
    }

    #[test]
    fn clamping_respects_stage_limits() {
        let p = Parallelism::new(100, 100, 100).clamped_to(&stage());
        assert_eq!(p, Parallelism::new(16, 32, 64));
    }

    #[test]
    fn for_target_prefers_channel_unrolling() {
        let s = stage();
        let p = Parallelism::for_target(&s, 64);
        assert!(p.total() >= 64, "delivered {} lanes", p.total());
        // The 64 lanes should come from channel dimensions alone.
        assert_eq!(p.h, 1);
        assert!(p.cpf <= 16 && p.kpf <= 32);
    }

    #[test]
    fn for_target_uses_h_partition_beyond_channel_limits() {
        // The paper's motivating case: a 16x16-channel layer cannot exceed
        // 256 lanes with two-level parallelism; the H-partition unlocks more.
        let conv7 = ConvStage::synthetic("conv7", 16, 16, 512, 512, 3, 1);
        let p = Parallelism::for_target(&conv7, 1024);
        assert_eq!(p.cpf, 16);
        assert_eq!(p.kpf, 16);
        assert_eq!(p.h, 4);
        assert_eq!(p.total(), 1024);
    }

    #[test]
    fn for_target_saturates_at_usize_max() {
        // The `h_ideal + 1` candidate must saturate, not overflow.
        let s = stage();
        assert_eq!(
            Parallelism::for_target(&s, usize::MAX),
            Parallelism::max_for(&s)
        );
    }

    #[test]
    fn lane_table_entries_stay_at_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<ChannelSplit>(), 16);
        let table = LaneTable::of(&stage());
        // 5 divisors of 16 times 6 of 32, at exact capacity.
        assert_eq!(table.splits.len(), 30);
        assert_eq!(table.splits.capacity(), 30);
        assert!(table
            .splits
            .windows(2)
            .all(|w| w[0].channel_lanes() <= w[1].channel_lanes()));
    }

    #[test]
    fn for_target_never_exceeds_stage_maximum() {
        let tiny = ConvStage::synthetic("tiny", 2, 2, 4, 4, 3, 1);
        let p = Parallelism::for_target(&tiny, 1_000_000);
        assert!(p.validate_for(&tiny).is_ok());
        assert_eq!(p.total(), 2 * 2 * 4);
    }
}
