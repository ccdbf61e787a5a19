//! Checked numeric conversions for the serve stack.
//!
//! `fcad-lint`'s lossy-cast rule bans bare `as` casts everywhere in
//! `crates/serve` and `crates/obs`: reports, trace files and metrics
//! series promise bit-identical output for a fixed seed, and a silently
//! rounding `u64 → f64` (exact only below 2^53) or a truncating
//! `f64 → u64` is exactly the kind of hazard that survives review. Every
//! conversion instead goes through these helpers, which concentrate the
//! unavoidable casts in one audited module and `debug_assert!` the
//! precondition that makes each one lossless — zero release cost, loud
//! failure in every debug test run. Each is `#[inline]`, because
//! `fcad-serve` calls them across the crate boundary on its hot paths and
//! the workspace builds without link-time optimization.

/// Largest integer magnitude `f64` represents exactly (2^53).
const F64_EXACT: u64 = 1 << 53;

/// [`F64_EXACT`] as a float, spelled out so no cast is needed.
const F64_EXACT_F: f64 = 9_007_199_254_740_992.0;

/// `u64 → f64`, exact: counters, microsecond timestamps and busy-time sums
/// stay far below 2^53 (≈ 285 years in µs).
#[inline]
pub fn u64_to_f64(v: u64) -> f64 {
    debug_assert!(v <= F64_EXACT, "u64→f64 would round: {v} > 2^53");
    v as f64 // fcad-lint: allow(lossy-cast): asserted ≤ 2^53, exact in f64
}

/// `usize → f64`, exact (via [`u64_to_f64`]).
#[inline]
pub fn usize_to_f64(v: usize) -> f64 {
    u64_to_f64(usize_to_u64(v))
}

/// `usize → u64`: widening on every supported target (usize ≤ 64 bits).
#[inline]
pub fn usize_to_u64(v: usize) -> u64 {
    v as u64 // fcad-lint: allow(lossy-cast): usize is at most 64 bits on all supported targets
}

/// `u64 → usize`: asserts the value fits (trivially true on 64-bit
/// targets; loud on a hypothetical 32-bit port instead of silent wrap).
#[inline]
pub fn u64_to_usize(v: u64) -> usize {
    debug_assert!(
        usize::try_from(v).is_ok(),
        "u64→usize would truncate: {v} > usize::MAX"
    );
    v as usize // fcad-lint: allow(lossy-cast): asserted to fit usize above
}

/// `f64 → u64` by truncation toward zero: asserts the value is finite,
/// non-negative and exactly representable territory (≤ 2^53). Callers
/// apply their own `ceil` / `round` / `max` *before* converting, so the
/// truncation itself never discards anything they meant to keep.
#[inline]
pub fn f64_to_u64(v: f64) -> u64 {
    debug_assert!(
        v.is_finite() && (0.0..=F64_EXACT_F).contains(&v),
        "f64→u64 would saturate or truncate: {v}"
    );
    v as u64 // fcad-lint: allow(lossy-cast): asserted finite, non-negative, ≤ 2^53 above
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_exact_in_the_asserted_range() {
        assert_eq!(u64_to_f64(0), 0.0);
        assert_eq!(u64_to_f64(1 << 52), 4_503_599_627_370_496.0);
        assert_eq!(usize_to_f64(42), 42.0);
        assert_eq!(usize_to_u64(7), 7);
    }

    #[test]
    fn round_trips_are_exact_in_the_asserted_range() {
        for v in [0u64, 1, 999, 1 << 52, F64_EXACT] {
            assert_eq!(f64_to_u64(u64_to_f64(v)), v);
        }
        assert_eq!(usize_to_u64(usize::MIN), 0);
        assert_eq!(u64_to_usize(42), 42);
        assert_eq!(f64_to_u64(3.9), 3, "truncation toward zero");
    }

    #[test]
    #[should_panic(expected = "u64→f64 would round")]
    #[cfg(debug_assertions)]
    fn u64_beyond_2_53_is_caught_in_debug() {
        u64_to_f64(F64_EXACT + 1);
    }

    #[test]
    #[should_panic(expected = "f64→u64 would saturate")]
    #[cfg(debug_assertions)]
    fn negative_float_is_caught_in_debug() {
        f64_to_u64(-1.0);
    }

    #[test]
    #[should_panic(expected = "f64→u64 would saturate")]
    #[cfg(debug_assertions)]
    fn nan_is_caught_in_debug() {
        f64_to_u64(f64::NAN);
    }
}
