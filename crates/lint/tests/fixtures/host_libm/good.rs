// Fixture: the logarithm comes from the repo's own `fcad_obs::math`, and
// the IEEE-754 operations that are exact on every host stay allowed, as
// do fields and functions that merely share a libm name.
use fcad_obs::math::ln;

pub struct Curve {
    pub exp: f64,
}

pub fn draws(u: f64, x: f64, curve: &Curve) -> [f64; 3] {
    let log = |v: f64| ln(v) / ln(10.0);
    [
        -ln(1.0 - u),
        x.sqrt().round() + x.floor() + x.ceil() + x.abs() + x.powi(2),
        log(x) * curve.exp,
    ]
}
