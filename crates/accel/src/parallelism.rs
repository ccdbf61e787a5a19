//! Three-dimensional parallelism configuration of a basic architecture unit.

use crate::error::{Error, Result};
use crate::stage::ConvStage;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The `GetPF` search space of one stage: the pairs of channel unroll
/// factors `(cpf, kpf)` that divide the stage's channel counts, one per
/// channel-lane count `cpf × kpf` (the pair with the smallest `cpf`), with
/// the channel quanta `InCh/cpf × OutCh/kpf` each leaves, sorted by
/// `cpf × kpf`.
///
/// Pairs of equal `cpf × kpf` leave equal channel quanta, because the
/// factors divide the channel counts, so they score alike and only the
/// first in `(cpf, kpf)` order could win; the table keeps that one.
#[derive(Debug, Clone)]
pub struct LaneTable {
    max_h: usize,
    ideal_cycles: f64,
    cycles_per_quantum: f64,
    splits: Vec<ChannelSplit>,
}

/// The channel unroll factors of one [`LaneTable`] entry: the
/// smallest-`cpf` pair of its `cpf × kpf`, and the channel quanta it
/// leaves; 16 bytes.
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
        // Stable, so the pairs of one `cpf × kpf` stay in ascending `cpf`
        // order and the dedup keeps the smallest: the pair the full scan's
        // tie rule picks among candidates that score alike.
        splits.sort_by_key(ChannelSplit::channel_lanes);
        splits.dedup_by_key(|split| split.channel_lanes());
        Self {
            max_h: max.h,
            ideal_cycles,
            cycles_per_quantum: ideal_cycles / (max.cpf * max.kpf * max.h) as f64,
            // A copy at exact capacity: shrinking the pair list in place
            // leaves odd-sized heap fragments, which raised the peak RSS of
            // repeated DSE flows (by about 0.07 MB on perfbench's
            // dse_classic).
            splits: splits.to_vec(),
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
    ///
    /// The scan visits the table from the largest `cpf × kpf` at or below
    /// the cut-off downwards and stops as soon as no entry left can come
    /// as close to the target as the best found, so it returns what a scan
    /// of every `(cpf, kpf)` pair would.
    pub fn for_target(&self, target_lanes: usize) -> Parallelism {
        self.scan(target_lanes).0
    }

    /// Two-level unrolling within `lanes` MAC lanes, as DNNBuilder maps a
    /// layer: the table's entry with the most channel lanes `cpf × kpf` at
    /// or below `lanes` (the `(1, 1)` split when `lanes` is 0), with
    /// `h = 1`. Among the pairs of that product it is the smallest-`cpf`
    /// one, as in [`for_target`](Self::for_target).
    pub fn channel_split_at_most(&self, lanes: usize) -> Parallelism {
        let end = self
            .splits
            .partition_point(|split| split.channel_lanes() <= lanes.max(1));
        let split = self.splits[..end]
            .last()
            .expect("the (1, 1) split fits any budget of at least one lane");
        Parallelism::new(split.cpf as usize, split.kpf as usize, 1)
    }

    /// [`for_target`](Self::for_target)'s choice, the number of table
    /// entries it visited and the number of candidates it scored.
    ///
    /// Why it picks what a full ascending scan of every `(cpf, kpf)` pair
    /// with the score `(distance, usize::MAX − cpf × kpf)` picks, where the
    /// full scan scores the candidates `h` in `[r, r + 1, r − 1]` of each
    /// pair (clamped to `[1, max_h]`, `r` the rounded ideal):
    ///
    /// 1. The table holds one entry per `cpf × kpf`, the smallest-`cpf`
    ///    pair ([`LaneTable`]): the full scan's other pairs of that product
    ///    yield the same `(h, effective lanes)` candidates and, under its
    ///    strict tie rule, cannot displace the first.
    /// 2. The full scan's winner is the least `(distance, larger
    ///    cpf × kpf, first h in [r, r + 1, r − 1])`. Visiting entries in
    ///    descending `cpf × kpf` and replacing only on a strictly smaller
    ///    distance keeps the first candidate of least distance, which is
    ///    that winner.
    /// 3. IEEE rounding is monotone, so as computed here an entry's
    ///    effective lanes do not fall as `h` grows, and their value at
    ///    `h = max_h` does not fall as `cpf × kpf` grows (fewer quanta).
    ///    Once `target − effective lanes at max_h` exceeds the best
    ///    distance, every candidate of this entry and of every entry below
    ///    it is strictly farther from the target, so the scan stops.
    /// 4. By point 3 and the monotone clamp, when `r` delivers fewer lanes
    ///    than the target, `r − 1` delivers no more and is no closer; when
    ///    it delivers more, `r + 1` is no closer; when it hits the target,
    ///    neither is closer. A candidate no closer than `r`, which was
    ///    scored first, cannot win under the strict rule, so the scan
    ///    scores `r` and then only the neighbour on the target's side.
    fn scan(&self, target_lanes: usize) -> (Parallelism, usize, usize) {
        let target = target_lanes.max(1) as f64;
        let max_h = self.max_h;
        // Channel splits of more than twice the target overshoot; the
        // (1, 1) split is always a candidate.
        let end = self.splits.partition_point(|split| {
            let channel_lanes = split.channel_lanes();
            channel_lanes as f64 <= target * 2.0 || channel_lanes <= 1
        });
        let mut best = Parallelism::unit();
        let mut best_distance = f64::INFINITY;
        let (mut visited, mut scored) = (0, 0);
        for split in self.splits[..end].iter().rev() {
            // The most effective lanes any `h` gives this split (point 3).
            let lanes_at_max_h = self.ideal_cycles
                / (split.channel_quanta as f64 * self.cycles_per_quantum).max(1.0);
            if target - lanes_at_max_h > best_distance {
                break;
            }
            visited += 1;
            // Scores the candidate `h` and returns its effective lanes.
            let mut score = |h: usize| {
                let h = h.clamp(1, max_h);
                // Score by the *effective* lanes the candidate delivers once
                // loop quantization is taken into account: a factor that
                // mis-divides its dimension (e.g. 43 partitions of 55 rows)
                // wastes cycles that raw lane counting hides.
                let quantized_cycles =
                    (split.channel_quanta * max_h.div_ceil(h)) as f64 * self.cycles_per_quantum;
                let effective_lanes = self.ideal_cycles / quantized_cycles.max(1.0);
                let distance = (effective_lanes - target).abs();
                scored += 1;
                // Prefer the closest effective throughput; on ties prefer
                // more channel unrolling (better data reuse): entries come
                // in descending `cpf × kpf`, so a tie keeps the earlier.
                if distance < best_distance {
                    best_distance = distance;
                    best = Parallelism::new(split.cpf as usize, split.kpf as usize, h);
                }
                effective_lanes
            };
            let h_ideal = (target / split.channel_lanes() as f64).round() as usize;
            // Only the neighbour on the target's side can come closer
            // (point 4).
            let lanes = score(h_ideal);
            if lanes < target {
                score(h_ideal.saturating_add(1));
            } else if lanes > target {
                score(h_ideal.saturating_sub(1));
            }
        }
        (best, visited, scored)
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
        // The 30 divisor pairs of 16 × 32 reach 10 products; each keeps
        // its smallest-`cpf` pair, at exact capacity.
        let pairs: Vec<(u32, u32)> = table.splits.iter().map(|s| (s.cpf, s.kpf)).collect();
        assert_eq!(
            pairs,
            [
                (1, 1),
                (1, 2),
                (1, 4),
                (1, 8),
                (1, 16),
                (1, 32),
                (2, 32),
                (4, 32),
                (8, 32),
                (16, 32)
            ]
        );
        assert_eq!(table.splits.capacity(), 10);
        assert!(table
            .splits
            .windows(2)
            .all(|w| w[0].channel_lanes() < w[1].channel_lanes()));
        assert!(table
            .splits
            .iter()
            .all(|s| s.channel_quanta == (16 / s.cpf as usize) * (32 / s.kpf as usize)));
    }

    /// The table entries `for_target` scores over a fixed grid of decoder
    /// stages and targets: every power of two and three times every power
    /// of two up to four times each stage's maximum lanes, which spans the
    /// DSE's optimistic targets. A count, so it repeats on every host.
    #[test]
    fn for_target_visits_are_pinned_on_the_decoder_stages() {
        use fcad_nnir::models::targeted_decoder;
        use fcad_profiler::NetworkProfile;

        let profile = NetworkProfile::of(&targeted_decoder());
        let (mut calls, mut visited, mut scored) = (0usize, 0usize, 0usize);
        for stage in profile
            .branches()
            .iter()
            .flat_map(ConvStage::stages_of_branch)
        {
            let table = LaneTable::of(&stage);
            let max = Parallelism::max_for(&stage).total();
            for k in 0..usize::BITS {
                for target in [1usize << k, 3usize << k] {
                    if target <= 4 * max {
                        let (_, entries, candidates) = table.scan(target);
                        calls += 1;
                        visited += entries;
                        scored += candidates;
                    }
                }
            }
        }
        // A full ascending scan of every `(cpf, kpf)` pair scores 47,602
        // entries on this grid, and the deduplicated table without the
        // bound 16,139. Scoring all three `h` candidates of each visited
        // entry scores 21,516.
        assert_eq!((calls, visited, scored), (807, 7_172, 12_373));
    }

    #[test]
    fn channel_split_at_most_matches_a_scan_of_every_divisor_pair() {
        let divisors = |n: usize| (1..=n).filter(move |&d| n.is_multiple_of(d));
        for (cin, cout) in [(16, 32), (72, 32), (3, 64), (12, 18), (64, 3), (1, 1)] {
            let stage = ConvStage::synthetic("s", cin, cout, 32, 32, 3, 1);
            let table = LaneTable::of(&stage);
            for lanes in [0, 1, 2, 3, 5, 7, 16, 24, 100, 511, 512, 4096, usize::MAX] {
                // The first pair in `(cpf, kpf)` order of the largest
                // product at or below the budget.
                let mut best = (1, 1);
                for cpf in divisors(cin) {
                    for kpf in divisors(cout) {
                        if cpf * kpf <= lanes && cpf * kpf > best.0 * best.1 {
                            best = (cpf, kpf);
                        }
                    }
                }
                assert_eq!(
                    table.channel_split_at_most(lanes),
                    Parallelism::new(best.0, best.1, 1),
                    "{cin} x {cout} channels within {lanes} lanes"
                );
            }
        }
    }

    #[test]
    fn for_target_never_exceeds_stage_maximum() {
        let tiny = ConvStage::synthetic("tiny", 2, 2, 4, 4, 3, 1);
        let p = Parallelism::for_target(&tiny, 1_000_000);
        assert!(p.validate_for(&tiny).is_ok());
        assert_eq!(p.total(), 2 * 2 * 4);
    }
}
