// Fixture: float methods that call the host's libm, whose last bit
// differs between C libraries. Method and `f64::` path calls must all
// fire; the test module at the bottom is exempt.
pub fn draws(u: f64, x: f64, y: f32) -> [f64; 7] {
    [
        -(1.0 - u).ln(),
        x.log10() + x.exp_m1(),
        x.powf(1.5),
        f64::sin(x),
        x.atan2(u),
        f64::from(y.tanh()),
        x.cbrt() + x.hypot(u),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_compare_with_the_host_libm() {
        assert_eq!(1.0f64.ln(), 0.0);
    }
}
