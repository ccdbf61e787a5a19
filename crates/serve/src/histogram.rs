//! Fixed-bucket latency histogram with percentile extraction (the
//! tail-behaviour bookkeeping idiom of the WIND bench harness).

use crate::cast::{f64_to_u64, u64_to_f64, u64_to_usize, usize_to_u64};

/// Number of fixed-width buckets; latencies beyond the last bucket land in
/// an overflow bucket and are reported as the observed maximum.
const BUCKETS: usize = 8192;

/// Width of one bucket, µs (2 ms — avatar frame times are milliseconds and
/// overload queueing reaches seconds, so the histogram covers ~16 s before
/// overflowing).
const BUCKET_WIDTH_US: u64 = 2_000;

/// A latency histogram with `BUCKETS` fixed 2 ms buckets plus overflow.
///
/// Percentiles are read from the cumulative distribution and reported as
/// the upper edge of the bucket where the requested rank falls, which makes
/// `percentile(p)` monotone in `p` by construction (p99 ≥ p95 ≥ p50).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LatencyHistogram {
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            overflow: 0,
            total: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Records one latency observation, µs.
    pub(crate) fn record(&mut self, latency_us: u64) {
        let bucket = u64_to_usize(latency_us / BUCKET_WIDTH_US);
        if bucket < BUCKETS {
            self.counts[bucket] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum_us += latency_us;
        self.max_us = self.max_us.max(latency_us);
    }

    /// Folds another histogram into this one. Bucket widths are fixed, so
    /// the merge is exact: the merged histogram is identical to recording
    /// both observation streams into one histogram, and its count is the
    /// sum of the two counts.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The `p`-th percentile (0 < p ≤ 100), in milliseconds: the upper edge
    /// of the bucket containing the rank, or the observed maximum for ranks
    /// in the overflow bucket. Returns 0 for an empty histogram.
    pub(crate) fn percentile_ms(&self, p: f64) -> f64 {
        debug_assert!(
            p > 0.0 && p <= 100.0,
            "percentile {p} outside the documented domain 0 < p <= 100"
        );
        if self.total == 0 {
            return 0.0;
        }
        let rank = f64_to_u64(((p / 100.0) * u64_to_f64(self.total)).ceil().max(1.0));
        let mut seen = 0;
        for (bucket, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Clamp to the observed maximum so a percentile can never
                // exceed `max_ms` when every observation sits low in its
                // bucket.
                let edge_ms = u64_to_f64((usize_to_u64(bucket) + 1) * BUCKET_WIDTH_US) / 1_000.0;
                return edge_ms.min(self.max_ms());
            }
        }
        self.max_ms()
    }

    /// Mean latency, milliseconds (0 when empty).
    pub(crate) fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            u64_to_f64(self.sum_us) / u64_to_f64(self.total) / 1_000.0
        }
    }

    /// Maximum observed latency, milliseconds.
    pub(crate) fn max_ms(&self) -> f64 {
        u64_to_f64(self.max_us) / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_ms(50.0), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for latency_ms in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 200] {
            h.record(latency_ms * 1_000);
        }
        let p50 = h.percentile_ms(50.0);
        let p95 = h.percentile_ms(95.0);
        let p99 = h.percentile_ms(99.0);
        assert!(p50 <= p95 && p95 <= p99, "p50 {p50} p95 {p95} p99 {p99}");
        assert!(p99 <= h.max_ms() + 2.0);
    }

    #[test]
    fn rank_lands_in_the_right_bucket() {
        let mut h = LatencyHistogram::new();
        // 99 fast observations, one slow outlier.
        for _ in 0..99 {
            h.record(500);
        }
        h.record(100_000);
        assert_eq!(h.percentile_ms(50.0), 2.0); // upper edge of bucket 0
        assert_eq!(h.percentile_ms(99.0), 2.0);
        assert_eq!(h.percentile_ms(100.0), 100.0); // bucket edge clamped to max
    }

    #[test]
    fn percentiles_never_exceed_the_observed_max() {
        let mut h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(500); // all observations low in bucket 0
        }
        assert_eq!(h.percentile_ms(50.0), 0.5);
        assert_eq!(h.percentile_ms(99.0), 0.5);
    }

    #[test]
    fn overflow_falls_back_to_the_observed_max() {
        let mut h = LatencyHistogram::new();
        h.record(60_000_000); // 60 s, beyond the 16.4 s histogram range
        assert_eq!(h.percentile_ms(99.0), 60_000.0);
        assert_eq!(h.max_ms(), 60_000.0);
    }

    #[test]
    fn merging_equals_recording_both_streams() {
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for (i, latency_us) in [500u64, 3_000, 7_500, 60_000_000, 12_000]
            .iter()
            .enumerate()
        {
            if i % 2 == 0 {
                left.record(*latency_us);
            } else {
                right.record(*latency_us);
            }
            combined.record(*latency_us);
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, combined);
    }

    // ---- merge-order audit for the windowed engine's tally fold ----
    //
    // The windowed engine accumulates one histogram per worker and folds
    // the worker histograms in whatever order the workers finish their
    // shards on disjoint strides; `finalize` then merges per-shard
    // histograms in shard-id order. Both are only exact because `merge`
    // is a pure element-wise integer add: commutative, associative, with
    // the empty histogram as identity. These tests pin that contract.

    fn shard_histograms() -> Vec<LatencyHistogram> {
        (0..8u64)
            .map(|shard| {
                let mut h = LatencyHistogram::new();
                for i in 0..(shard + 1) * 3 {
                    // A spread per shard: in-range, bucket-boundary and
                    // overflow observations.
                    h.record(shard * 1_999 + i * 977);
                    h.record(BUCKET_WIDTH_US * (shard + i));
                }
                if shard % 3 == 0 {
                    h.record(60_000_000 + shard);
                }
                h
            })
            .collect()
    }

    #[test]
    fn merge_is_commutative() {
        let shards = shard_histograms();
        let mut ab = shards[2].clone();
        ab.merge(&shards[5]);
        let mut ba = shards[5].clone();
        ba.merge(&shards[2]);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let shards = shard_histograms();
        let mut left_first = shards[0].clone();
        left_first.merge(&shards[1]);
        left_first.merge(&shards[2]);
        let mut right_first = shards[1].clone();
        right_first.merge(&shards[2]);
        let mut outer = shards[0].clone();
        outer.merge(&right_first);
        assert_eq!(left_first, outer);
    }

    #[test]
    fn merging_the_empty_histogram_is_identity() {
        let shards = shard_histograms();
        let mut merged = shards[3].clone();
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, shards[3]);
        let mut from_empty = LatencyHistogram::new();
        from_empty.merge(&shards[3]);
        assert_eq!(from_empty, shards[3]);
    }

    #[test]
    fn merge_order_across_shards_is_irrelevant() {
        // Fold the same eight shard histograms in shard-id order, reverse
        // order and a strided (worker-interleaved) order: identical
        // structs, hence identical percentiles in the merged report.
        let shards = shard_histograms();
        let mut forward = LatencyHistogram::new();
        for h in &shards {
            forward.merge(h);
        }
        let mut reverse = LatencyHistogram::new();
        for h in shards.iter().rev() {
            reverse.merge(h);
        }
        let mut strided = LatencyHistogram::new();
        for worker in 0..3 {
            for h in shards.iter().skip(worker).step_by(3) {
                strided.merge(h);
            }
        }
        assert_eq!(forward, reverse);
        assert_eq!(forward, strided);
        assert_eq!(forward.percentile_ms(99.0), strided.percentile_ms(99.0));
    }

    #[test]
    fn percentile_rank_edges_are_exact() {
        // Four observations, one per bucket: rank edges 25/50/75/100 land
        // exactly on each observation's bucket, and any p in (0, 25] maps
        // to rank 1 (ceil semantics — never rank 0).
        let mut h = LatencyHistogram::new();
        for bucket in 0u64..4 {
            h.record(bucket * BUCKET_WIDTH_US + 1_000);
        }
        assert_eq!(h.percentile_ms(0.1), 2.0);
        assert_eq!(h.percentile_ms(25.0), 2.0);
        assert_eq!(h.percentile_ms(25.1), 4.0);
        assert_eq!(h.percentile_ms(50.0), 4.0);
        assert_eq!(h.percentile_ms(75.0), 6.0);
        assert_eq!(h.percentile_ms(100.0), 7.0); // clamped to the max (7 ms)
    }

    #[test]
    #[should_panic(expected = "outside the documented domain")]
    #[cfg(debug_assertions)]
    fn out_of_domain_percentile_panics_in_debug() {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        let _ = h.percentile_ms(0.0);
    }

    #[test]
    #[should_panic(expected = "outside the documented domain")]
    #[cfg(debug_assertions)]
    fn percentile_above_one_hundred_panics_in_debug() {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        let _ = h.percentile_ms(100.1);
    }

    #[test]
    fn mean_tracks_the_sum() {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        h.record(3_000);
        assert_eq!(h.mean_ms(), 2.0);
    }
}
