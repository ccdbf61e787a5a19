//! Quality-of-service classes: per-session latency budgets and scheduling
//! weights.
//!
//! F-CAD's whole argument is meeting a real-time latency budget for codec
//! avatar decoding, but not every session carries the same budget: an
//! interactive telepresence call must land every frame inside a tight
//! deadline, while a background/recording session tolerates seconds of
//! queueing. A [`QosClass`] makes that difference first-class: every
//! [`Request`](crate::Request) carries its session's class, the weighted
//! scheduler orders work by `class weight × branch priority`, the
//! admission policy ([`crate::AdmissionKind`]) sheds low classes
//! before queues saturate, and the report scores each class against its
//! own budget (`slo_attainment`).
//!
//! The legacy classless path is the everyone-is-[`QosClass::Standard`]
//! special case: `Standard` has weight exactly 1.0, so the weighted score
//! degenerates to the plain branch priority and the whole serve stack is
//! bit-identical to the pre-QoS engine under the admit-all policy.

use crate::cast::{u64_to_f64, usize_to_u64};

/// Number of QoS classes (the length of every per-class array).
pub(crate) const CLASS_COUNT: usize = 3;

/// A session's quality-of-service class: its latency budget (the SLO) and
/// its scheduling weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosClass {
    /// Live telepresence: a tight frame deadline and the highest
    /// scheduling weight (a paying, latency-critical tier).
    Interactive,
    /// The default tier — weight exactly 1.0, so an all-`Standard` run is
    /// bit-identical to the classless legacy engine.
    Standard,
    /// Background work (prefetch, recording, free tier): a loose budget
    /// and a small weight; the first tier shed under pressure.
    BestEffort,
}

impl QosClass {
    /// All classes, in descending weight order (also the per-class array
    /// index order).
    pub fn all() -> &'static [QosClass] {
        &[
            QosClass::Interactive,
            QosClass::Standard,
            QosClass::BestEffort,
        ]
    }

    /// Class name (used in reports).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Standard => "standard",
            QosClass::BestEffort => "best_effort",
        }
    }

    /// Index of this class into per-class arrays (the position in
    /// [`QosClass::all`]).
    pub(crate) fn index(&self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Standard => 1,
            QosClass::BestEffort => 2,
        }
    }

    /// Latency budget (the per-class SLO), µs: a completed request meets
    /// its SLO when `latency ≤ budget`.
    pub(crate) fn budget_us(&self) -> u64 {
        match self {
            QosClass::Interactive => 100_000,
            QosClass::Standard => 400_000,
            QosClass::BestEffort => 2_000_000,
        }
    }

    /// Latency budget, milliseconds (the unit the report quotes).
    pub fn budget_ms(&self) -> f64 {
        u64_to_f64(self.budget_us()) / 1_000.0
    }

    /// Scheduling weight: the weighted scheduler orders queue heads by
    /// `weight × branch priority` (plus aging). `Standard` is exactly 1.0
    /// so the classless path degenerates to plain branch priorities.
    pub fn weight(&self) -> f64 {
        match self {
            QosClass::Interactive => 4.0,
            QosClass::Standard => 1.0,
            QosClass::BestEffort => 0.25,
        }
    }
}

/// Stream constant separating the class draw from the per-session arrival
/// RNG seeds (both derive from the scenario seed through the crate's
/// shared SplitMix64 finalizer).
const CLASS_STREAM: u64 = 0xC1A5_55E5;

/// The per-scenario class mix: relative fractions of sessions per class,
/// drawn deterministically from the scenario seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Relative (unnormalized) session fractions, in [`QosClass::all`]
    /// order. Negative entries are treated as 0; an all-zero mix falls
    /// back to `Standard`.
    pub fractions: [f64; CLASS_COUNT],
}

impl ClassMix {
    /// A mix from explicit relative fractions.
    pub fn new(interactive: f64, standard: f64, best_effort: f64) -> Self {
        Self {
            fractions: [interactive, standard, best_effort],
        }
    }

    /// The legacy mix: every session is `Standard` (the classless
    /// special case every pre-QoS scenario keeps).
    pub fn standard_only() -> Self {
        Self::new(0.0, 1.0, 0.0)
    }

    /// A telepresence-shaped mix: half the sessions interactive, the rest
    /// split between standard and background tiers.
    pub fn telepresence() -> Self {
        Self::new(0.5, 0.3, 0.2)
    }

    /// The class at cumulative position `u ∈ [0, 1)` of the normalized
    /// mix.
    pub(crate) fn class_at(&self, u: f64) -> QosClass {
        let total: f64 = self.fractions.iter().map(|f| f.max(0.0)).sum();
        if total <= 0.0 {
            return QosClass::Standard;
        }
        let mut cumulative = 0.0;
        for class in QosClass::all() {
            cumulative += self.fractions[class.index()].max(0.0) / total;
            if u < cumulative {
                return *class;
            }
        }
        QosClass::BestEffort
    }

    /// Deterministic class draw for one session: the same `(seed,
    /// session)` always yields the same class, independent of the
    /// session's arrival stream (which mixes the seed differently).
    pub(crate) fn class_for_session(&self, seed: u64, session: usize) -> QosClass {
        let draw = crate::autoscale::mix(seed ^ CLASS_STREAM, usize_to_u64(session));
        // Upper 53 bits to a uniform f64 in [0, 1).
        let u = u64_to_f64(draw >> 11) / u64_to_f64(1u64 << 53);
        self.class_at(u)
    }
}

impl Default for ClassMix {
    fn default() -> Self {
        Self::standard_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_weights_and_budgets_are_consistent() {
        let all = QosClass::all();
        assert_eq!(all.len(), CLASS_COUNT);
        for (index, class) in all.iter().enumerate() {
            assert_eq!(class.index(), index);
        }
        // Weights strictly descend with the class order; budgets ascend.
        for pair in all.windows(2) {
            assert!(pair[0].weight() > pair[1].weight());
            assert!(pair[0].budget_us() < pair[1].budget_us());
        }
        // The classless special case hinges on Standard's weight being
        // exactly 1.0 (f64 multiplication by 1.0 is an identity).
        assert_eq!(QosClass::Standard.weight(), 1.0);
        assert_eq!(QosClass::Interactive.budget_ms(), 100.0);
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(QosClass::Interactive.name(), "interactive");
        assert_eq!(QosClass::Standard.name(), "standard");
        assert_eq!(QosClass::BestEffort.name(), "best_effort");
    }

    #[test]
    fn standard_only_mix_always_draws_standard() {
        let mix = ClassMix::standard_only();
        for session in 0..256 {
            for seed in [0u64, 7, 0xF_CAD] {
                assert_eq!(mix.class_for_session(seed, session), QosClass::Standard);
            }
        }
    }

    #[test]
    fn degenerate_mixes_fall_back_to_standard() {
        assert_eq!(
            ClassMix::new(0.0, 0.0, 0.0).class_at(0.5),
            QosClass::Standard
        );
        assert_eq!(
            ClassMix::new(-1.0, -2.0, 0.0).class_at(0.1),
            QosClass::Standard
        );
        // Negative entries are clamped out, not wrapped into weight.
        let mix = ClassMix::new(-5.0, 0.0, 1.0);
        assert_eq!(mix.class_at(0.0), QosClass::BestEffort);
    }

    #[test]
    fn class_draws_are_deterministic_and_follow_the_mix() {
        let mix = ClassMix::telepresence();
        let draws: Vec<QosClass> = (0..512).map(|s| mix.class_for_session(7, s)).collect();
        let again: Vec<QosClass> = (0..512).map(|s| mix.class_for_session(7, s)).collect();
        assert_eq!(draws, again);
        let interactive = draws
            .iter()
            .filter(|c| **c == QosClass::Interactive)
            .count();
        let best_effort = draws.iter().filter(|c| **c == QosClass::BestEffort).count();
        // 512 draws at 0.5 / 0.2: loose band, exact values pinned by the
        // determinism assertion above.
        assert!((150..=350).contains(&interactive), "{interactive}");
        assert!((50..=160).contains(&best_effort), "{best_effort}");
        // A different seed reshuffles the assignment.
        let reseeded: Vec<QosClass> = (0..512).map(|s| mix.class_for_session(8, s)).collect();
        assert_ne!(draws, reseeded);
    }

    #[test]
    fn cumulative_selection_covers_the_unit_interval() {
        let mix = ClassMix::new(1.0, 1.0, 1.0);
        assert_eq!(mix.class_at(0.0), QosClass::Interactive);
        assert_eq!(mix.class_at(0.5), QosClass::Standard);
        assert_eq!(mix.class_at(0.99), QosClass::BestEffort);
    }
}
