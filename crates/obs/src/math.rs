//! Transcendental functions written out in the crate, so that what they
//! return depends on nothing but this source.
//!
//! `f64::ln` and its kin call the platform's libm, whose last-bit rounding
//! differs between C libraries and their versions, so a draw that goes
//! through one ties fixed-seed ⇒ byte-identical output to the host it ran
//! on. Everything here is plain IEEE-754 arithmetic in a fixed order
//! (Rust never fuses a multiply and an add on its own), which rounds the
//! same way on every target. `fcad-lint`'s `host-libm` rule keeps the
//! libm methods out of first-party code.

/// `ln 2`'s leading 32 bits, so that `k · LN2_HI` is exact for every
/// binary exponent `k`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// The rest of `ln 2`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// 2^54, which scales a subnormal into the normal range.
const TWO54: f64 = f64::from_bits(0x4350_0000_0000_0000);
/// The minimax coefficients of `R(z) ≈ (ln((1 + s)/(1 − s)) − 2s)/s` in
/// `z = s²` on `[0, 0.1716]`.
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

/// The natural logarithm of `x`, within one unit in the last place of the
/// exact value: fdlibm's `__ieee754_log` (Sun Microsystems, 1993), the
/// algorithm most C libraries descend from.
///
/// `ln(1) = 0`, `ln(±0) = −∞`, `ln(+∞) = +∞`, and a negative `x` or a NaN
/// gives NaN.
///
/// # Method
///
/// Reduce `x` to `2^k · (1 + f)` with `√2/2 < 1 + f < √2`. Then
/// `ln x = k · ln 2 + ln(1 + f)`, and with `s = f/(2 + f)`,
/// `ln(1 + f) = 2s + s·R(s²)`, where `R` is a degree-7 polynomial in
/// `s²` accurate to 2^-58.45. It is computed as `f − (f²/2 − s·(f²/2 + R))`
/// (or `f − s·(f − R)` when `f` is small), so that the error stays in the
/// low-order terms.
pub fn ln(x: f64) -> f64 {
    let mut x = x;
    let mut hx = high_word(x);
    let mut k: i32 = 0;
    if hx < 0x0010_0000 {
        // Below 2^-1022: zero, a subnormal, or negative.
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if hx < 0 {
            return f64::NAN;
        }
        k -= 54;
        x *= TWO54;
        hx = high_word(x);
    }
    if hx >= 0x7ff0_0000 {
        // +∞ or NaN.
        return x + x;
    }
    k += (hx >> 20) - 1023;
    hx &= 0x000f_ffff;
    // Scale the mantissa into [√2/2, √2): halve it when it is at least √2.
    let i = (hx + 0x9_5f64) & 0x0010_0000;
    x = with_high_word(x, hx | (i ^ 0x3ff0_0000));
    k += i >> 20;
    let f = x - 1.0;
    // fdlibm spells out the `k = 0` cases; there the `dk` terms are exact
    // zeros, so the general expressions give the same bits.
    let dk = f64::from(k);
    if (0x000f_ffff & (2 + hx)) < 3 {
        // |f| < 2^-20.
        if f == 0.0 {
            return dk * LN2_HI + dk * LN2_LO;
        }
        let r = f * f * (0.5 - 0.333_333_333_333_333_3 * f);
        return dk * LN2_HI - ((r - dk * LN2_LO) - f);
    }
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    if ((hx - 0x6_147a) | (0x6_b851 - hx)) > 0 {
        // 1 + f lies in (1.38, 1.42) or (0.69, 0.72) of its range: keep
        // f²/2 apart.
        let hfsq = 0.5 * f * f;
        dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
    } else {
        dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f)
    }
}

/// The sign, the exponent and the top 20 mantissa bits of `x` (fdlibm's
/// `__HI(x)`).
fn high_word(x: f64) -> i32 {
    let [b0, b1, b2, b3, ..] = x.to_be_bytes();
    i32::from_be_bytes([b0, b1, b2, b3])
}

/// `x` with its high word replaced by `hi` (fdlibm's `__HI(x) = hi`).
fn with_high_word(x: f64, hi: i32) -> f64 {
    let [.., b4, b5, b6, b7] = x.to_be_bytes();
    let [b0, b1, b2, b3] = hi.to_be_bytes();
    f64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_values_are_exact() {
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(-0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        for x in [
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert!(ln(x).is_nan(), "ln({x})");
        }
        assert_eq!(ln(2.0), std::f64::consts::LN_2);
        assert_eq!(ln(std::f64::consts::E), 1.0);
        // The smallest subnormal, 2^-1074, and the largest, a hair below
        // 2^-1022, whose logarithm rounds to that of 2^-1022: ln 2 times
        // the exponent, rounded.
        assert_eq!(ln(f64::from_bits(1)), -744.440_071_921_381_2);
        assert_eq!(
            ln(f64::from_bits(0x000f_ffff_ffff_ffff)),
            -708.396_418_532_264_1
        );
        assert_eq!(ln(f64::MIN_POSITIVE), -708.396_418_532_264_1);
        assert_eq!(ln(f64::MAX), 709.782_712_893_384);
    }

    /// Distance in units in the last place between two finite floats of
    /// one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn a_seeded_sweep_stays_within_one_ulp_of_the_host_libm() {
        // SplitMix64, so the sweep needs no dependency.
        let mut state = 0x0f_cad_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..200_000 {
            let bits = next();
            // Any positive finite float, subnormals included; then the
            // `1 − u` of a Poisson gap, `u` uniform in [0, 1) on a 2^-53
            // grid; then a point near 1, where `f` is small.
            let any = f64::from_bits(bits % 0x7ff0_0000_0000_0000 + 1);
            let gap = 1.0 - (bits >> 11) as f64 / (1u64 << 53) as f64;
            let near_one = 1.0 + ((bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e-5;
            for x in [any, gap, near_one] {
                assert!(
                    ulps(ln(x), x.ln()) <= 1,
                    "ln({x:e}) = {} vs {}",
                    ln(x),
                    x.ln()
                );
            }
        }
    }
}
