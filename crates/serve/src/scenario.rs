//! Serving scenarios: who connects, when requests arrive, and how much
//! queueing the front-end tolerates.
//!
//! Arrival generation is fully deterministic: every stochastic pattern draws
//! from a [`rand::rngs::StdRng`] seeded from the scenario seed and the
//! session index, so the same scenario always produces the same request
//! trace (the reproducibility idiom of the WIND bench harness). The engine
//! draws that trace lazily, as a stream that merges the per-session
//! generators in time order, so its memory does not grow with the number
//! of requests.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::cast::{f64_to_u64, u64_to_f64, usize_to_f64, usize_to_u64};
use crate::qos::{ClassMix, QosClass};
use crate::request::Request;
use fcad_obs::math::ln;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How session frame requests arrive over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Fixed inter-arrival time `1/rate`, sessions phase-staggered so N
    /// steady sessions do not all hit the accelerator in the same instant.
    Steady,
    /// Memoryless arrivals: exponential inter-arrival times at the session
    /// frame rate.
    Poisson,
    /// On/off bursts: Poisson arrivals at `factor ×` the base rate during
    /// the first `duty` fraction of every `period_sec` window, silence for
    /// the rest.
    Burst {
        /// Length of one on/off cycle, seconds.
        period_sec: f64,
        /// Fraction of the period that is "on" (0, 1].
        duty: f64,
        /// Rate multiplier while "on".
        factor: f64,
    },
    /// Deterministic diurnal ramp: the instantaneous rate climbs linearly
    /// from `start_factor ×` to `end_factor ×` the base rate across the
    /// scenario duration (a compressed day of traffic).
    DiurnalRamp {
        /// Rate multiplier at t = 0.
        start_factor: f64,
        /// Rate multiplier at t = duration.
        end_factor: f64,
    },
}

/// One serving scenario: N concurrent avatar sessions generating
/// branch-decode requests against a single shared accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in reports and logs).
    pub name: String,
    /// RNG seed; identical seeds reproduce identical request traces and
    /// therefore identical reports.
    pub seed: u64,
    /// Number of concurrent avatar sessions.
    pub sessions: usize,
    /// Per-session avatar frame rate, Hz (each frame issues one request per
    /// branch).
    pub frame_rate_hz: f64,
    /// Arrival-generation window, seconds. The simulation itself runs until
    /// the queue drains.
    pub duration_sec: f64,
    /// Arrival pattern.
    pub arrival: ArrivalPattern,
    /// Front-end queue capacity; arrivals that find the queue full are
    /// dropped.
    pub queue_capacity: usize,
    /// Optional per-branch priority override (higher = more important).
    /// `None` keeps the service model's priorities.
    pub priorities: Option<Vec<f64>>,
    /// QoS class mix: each session draws its class from these fractions,
    /// seeded by the scenario seed. [`ClassMix::standard_only`] (the
    /// default of every legacy scenario) reproduces the classless engine
    /// bit for bit.
    pub class_mix: ClassMix,
}

impl Scenario {
    /// `a1` — baseline: a single steady 10 Hz session, ample queue (the
    /// time-multiplexed fabric re-streams per-identity weights on every
    /// dispatch, so a single accelerator sustains roughly 12 avatar frames
    /// per second on the paper's decoder designs).
    pub fn a1() -> Self {
        Self {
            name: "a1_baseline".to_owned(),
            seed: 0xF_CAD,
            sessions: 1,
            frame_rate_hz: 10.0,
            duration_sec: 2.0,
            arrival: ArrivalPattern::Steady,
            queue_capacity: 256,
            priorities: None,
            class_mix: ClassMix::standard_only(),
        }
    }

    /// `a2` — fan-out: `sessions` steady 10 Hz sessions share the
    /// accelerator (the Table V multi-avatar scaling axis); five sessions
    /// deliberately oversubscribe the fabric, so the bounded queue sheds
    /// load.
    pub fn a2(sessions: usize) -> Self {
        Self {
            name: format!("a2_fanout_{sessions}"),
            sessions,
            queue_capacity: 120,
            ..Self::a1()
        }
    }

    /// `b1` — Poisson burst: two sessions with memoryless 15 Hz arrivals
    /// (about 1.5× the fabric's steady capacity in expectation).
    pub fn b1() -> Self {
        Self {
            name: "b1_poisson_burst".to_owned(),
            sessions: 2,
            frame_rate_hz: 15.0,
            arrival: ArrivalPattern::Poisson,
            ..Self::a1()
        }
    }

    /// `b2` — mixed-priority chaos: five bursty 10 Hz sessions on a tight
    /// queue, where the visual branches outrank the low-priority
    /// (audio-like) last branch, mirroring the paper's branch priorities.
    pub fn b2() -> Self {
        Self {
            name: "b2_mixed_priority_chaos".to_owned(),
            sessions: 5,
            duration_sec: 2.5,
            arrival: ArrivalPattern::Burst {
                period_sec: 0.5,
                duty: 0.5,
                factor: 1.5,
            },
            queue_capacity: 96,
            priorities: Some(vec![1.0, 1.0, 0.15]),
            ..Self::a1()
        }
    }

    /// `b2_qos` — the QoS burst: the `b2` on/off burst pattern with eight
    /// sessions drawing from the telepresence class mix (half
    /// interactive) on uniform branch priorities, so the class weight is
    /// the only thing separating tiers. The interactive demand alone
    /// oversubscribes one accelerator during the on-windows — the
    /// workload where admission policy, not scheduling, decides who
    /// meets the SLO.
    pub fn b2_qos() -> Self {
        Self {
            name: "b2_qos_burst".to_owned(),
            sessions: 8,
            priorities: None,
            class_mix: ClassMix::telepresence(),
            ..Self::b2()
        }
    }

    /// Diurnal ramp: four sessions whose rate climbs from 30 % to 160 % of
    /// the base rate over three seconds (a compressed day of traffic).
    pub(crate) fn diurnal() -> Self {
        Self {
            name: "diurnal_ramp".to_owned(),
            sessions: 4,
            duration_sec: 3.0,
            arrival: ArrivalPattern::DiurnalRamp {
                start_factor: 0.3,
                end_factor: 1.6,
            },
            queue_capacity: 384,
            ..Self::a1()
        }
    }

    /// `metropolis` — the million-session scale scenario: 1.05 M steady
    /// 1 Hz sessions, phase-staggered across a one-second window so each
    /// session contributes exactly one frame (3.15 M requests on a
    /// three-branch model), drawing from the telepresence class mix.
    /// Steady generation draws no RNG samples, so building the trace is
    /// pure arithmetic — the workload that exercises the event heaps and
    /// the windowed engine at fleet scale.
    pub fn metropolis() -> Self {
        Self {
            name: "metropolis".to_owned(),
            seed: 0xF_CAD,
            sessions: 1_050_000,
            frame_rate_hz: 1.0,
            duration_sec: 1.0,
            arrival: ArrivalPattern::Steady,
            queue_capacity: 512,
            priorities: None,
            class_mix: ClassMix::telepresence(),
        }
    }

    /// The standard four-scenario suite (`a1`, `a2` with 5 sessions, `b1`,
    /// `b2`) run by the example and `reproduce --serve`.
    pub fn suite() -> Vec<Scenario> {
        vec![Self::a1(), Self::a2(5), Self::b1(), Self::b2()]
    }

    /// `a1` scaled to a fleet: one steady 10 Hz session per shard, so an
    /// evenly balanced fleet stays as unloaded as the single-device `a1`.
    pub(crate) fn a1_fleet(shards: usize) -> Self {
        Self::a1().scaled_for_fleet(shards)
    }

    /// `a2` scaled to a fleet: five steady sessions per shard (the
    /// single-device overload point times the fleet size).
    pub fn a2_fleet(shards: usize) -> Self {
        Self::a2(5).scaled_for_fleet(shards)
    }

    /// `b1` scaled to a fleet: two 15 Hz Poisson sessions per shard.
    pub fn b1_fleet(shards: usize) -> Self {
        Self::b1().scaled_for_fleet(shards)
    }

    /// `b2` scaled to a fleet: five bursty mixed-priority sessions per
    /// shard on the same tight per-shard queue.
    pub fn b2_fleet(shards: usize) -> Self {
        Self::b2().scaled_for_fleet(shards)
    }

    /// The fleet counterpart of [`Scenario::suite`]: the four scenarios
    /// with their session counts scaled so each shard of an
    /// evenly balanced `shards`-device fleet sees the single-device load.
    pub fn fleet_suite(shards: usize) -> Vec<Scenario> {
        vec![
            Self::a1_fleet(shards),
            Self::a2_fleet(shards),
            Self::b1_fleet(shards),
            Self::b2_fleet(shards),
        ]
    }

    /// The diurnal ramp scaled to a fleet: four ramping sessions per
    /// shard, the canonical autoscaling workload — a fleet sized for the
    /// 160 % peak idles through the 30 % trough, so an elastic policy
    /// should retire shards early and spawn them back as the ramp climbs.
    pub fn diurnal_fleet(shards: usize) -> Self {
        Self::diurnal().scaled_for_fleet(shards)
    }

    /// `b2` stretched for failure injection: the same five bursty
    /// mixed-priority sessions per shard, but generated for 4 s so a
    /// mid-run shard kill leaves enough post-failure traffic to observe
    /// the re-placed sessions' tail recovering.
    pub fn b2_failover(shards: usize) -> Self {
        let mut scenario = Self::b2().scaled_for_fleet(shards);
        scenario.duration_sec = 4.0;
        scenario.name = format!("b2_failover_fleet{}", shards.max(1));
        scenario
    }

    /// Scales a base scenario to `shards` devices: the base session count
    /// per shard, with the fleet size recorded in the name. The queue
    /// capacity stays per-shard (each device fronts its own bounded
    /// queue), so total queue space scales with the fleet automatically.
    fn scaled_for_fleet(mut self, shards: usize) -> Self {
        let shards = shards.max(1);
        self.sessions *= shards;
        self.name = format!("{}_fleet{shards}", self.name);
        self
    }

    /// Returns this scenario with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns this scenario with a different session count.
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Returns this scenario with a different QoS class mix.
    pub fn with_class_mix(mut self, class_mix: ClassMix) -> Self {
        self.class_mix = class_mix;
        self
    }

    /// The QoS class of one session: a deterministic draw from the
    /// scenario's class mix, independent of the session's arrival stream.
    pub fn session_class(&self, session: usize) -> QosClass {
        self.class_mix.class_for_session(self.seed, session)
    }

    /// Generates the full request trace for `branches` branches, sorted by
    /// arrival time (ties broken by session then branch) with ids assigned
    /// in that order: the arrival stream the engine draws lazily,
    /// collected.
    pub fn generate(&self, branches: usize) -> Vec<Request> {
        self.arrivals(branches).collect()
    }

    /// The request trace for `branches` branches as a lazy stream, in the
    /// order and with the ids [`Scenario::generate`] returns.
    pub(crate) fn arrivals(&self, branches: usize) -> Arrivals<'_> {
        Arrivals::new(self, branches)
    }
}

/// A scenario's request trace, drawn one request at a time in
/// `(issued_at_us, session, branch)` order with ids assigned in that order.
///
/// Sessions are admitted lazily, in index order. That is exact because
/// every pattern's first tick is non-decreasing in the session index
/// (Steady's stagger is monotone; the other patterns start at 0), so the
/// next unadmitted session's first tick bounds every later session's.
/// Only admitted sessions with a later tick still pending sit in a
/// min-heap keyed on `(tick, session)`: a steady session that lands one
/// frame in the window never enters it.
pub(crate) struct Arrivals<'s> {
    scenario: &'s Scenario,
    /// The pattern's per-run constants; `None` when no session issues a
    /// frame (no branches, a non-positive rate or an empty window).
    pace: Option<Pace>,
    horizon_us: u64,
    branches: usize,
    /// The first session not yet admitted, and its first tick (`None` once
    /// no unadmitted session has a tick inside the window).
    next_session: usize,
    next_first_us: Option<u64>,
    pending: BinaryHeap<Reverse<SessionCursor>>,
    /// The next request the stream yields.
    head: Option<Request>,
}

/// An admitted session and its next tick; its class is drawn once, at
/// admission. Ordered by `(at_us, session)` alone.
struct SessionCursor {
    at_us: u64,
    session: usize,
    class: QosClass,
    rng: StdRng,
}

impl SessionCursor {
    fn key(&self) -> (u64, usize) {
        (self.at_us, self.session)
    }
}

impl PartialEq for SessionCursor {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for SessionCursor {}

impl PartialOrd for SessionCursor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SessionCursor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// An arrival pattern with its per-run constants resolved once: Steady's
/// tick interval and Burst's period, on-time and in-burst rate.
#[derive(Clone, Copy)]
enum Pace {
    Steady {
        sessions: f64,
        rate: f64,
        interval_us: u64,
    },
    Poisson {
        rate: f64,
    },
    Burst {
        period_us: u64,
        on_us: u64,
        rate: f64,
    },
    Ramp {
        rate: f64,
        start_factor: f64,
        end_factor: f64,
    },
}

impl Pace {
    fn of(scenario: &Scenario) -> Self {
        let rate = scenario.frame_rate_hz;
        match scenario.arrival {
            ArrivalPattern::Steady => Pace::Steady {
                sessions: usize_to_f64(scenario.sessions.max(1)),
                rate,
                interval_us: secs_to_us(1.0 / rate),
            },
            ArrivalPattern::Poisson => Pace::Poisson { rate },
            ArrivalPattern::Burst {
                period_sec,
                duty,
                factor,
            } => {
                let period_us = secs_to_us(period_sec);
                let on_us = f64_to_u64(u64_to_f64(period_us) * duty.clamp(0.0, 1.0));
                Pace::Burst {
                    period_us,
                    on_us: on_us.max(1),
                    rate: rate * factor.max(f64::MIN_POSITIVE),
                }
            }
            ArrivalPattern::DiurnalRamp {
                start_factor,
                end_factor,
            } => Pace::Ramp {
                rate,
                start_factor,
                end_factor,
            },
        }
    }

    /// A session's first tick: steady sessions start phase-staggered,
    /// stochastic ones at zero.
    fn first_tick_us(&self, session: usize) -> u64 {
        match *self {
            Pace::Steady { sessions, rate, .. } => {
                f64_to_u64(usize_to_f64(session) / sessions / rate * 1e6)
            }
            _ => 0,
        }
    }

    /// The tick after a frame at `at_us`, or `None` at or past the
    /// horizon: the pattern's gap, drawn from the session's own RNG where
    /// the pattern is stochastic, then — in a burst's off-time — on to
    /// the next on-window.
    fn next_tick_us(&self, at_us: u64, horizon_us: u64, rng: &mut StdRng) -> Option<u64> {
        let gap_us = match *self {
            Pace::Steady { interval_us, .. } => interval_us,
            Pace::Poisson { rate } | Pace::Burst { rate, .. } => exponential_us(rng, rate),
            Pace::Ramp {
                rate,
                start_factor,
                end_factor,
            } => {
                let progress = u64_to_f64(at_us) / u64_to_f64(horizon_us);
                let factor = start_factor + (end_factor - start_factor) * progress;
                secs_to_us(1.0 / (rate * factor.max(1e-3)))
            }
        };
        let mut t = at_us.saturating_add(gap_us.max(1));
        if let Pace::Burst {
            period_us, on_us, ..
        } = *self
        {
            while t < horizon_us && t % period_us >= on_us {
                // Silent until the next on-window opens.
                t += period_us - t % period_us;
            }
        }
        (t < horizon_us).then_some(t)
    }
}

impl<'s> Arrivals<'s> {
    fn new(scenario: &'s Scenario, branches: usize) -> Self {
        let horizon_us = f64_to_u64(scenario.duration_sec * 1e6);
        let silent = branches == 0 || scenario.frame_rate_hz <= 0.0 || horizon_us == 0;
        let mut stream = Self {
            scenario,
            pace: (!silent).then(|| Pace::of(scenario)),
            horizon_us,
            branches,
            next_session: 0,
            next_first_us: None,
            pending: BinaryHeap::new(),
            head: None,
        };
        stream.next_first_us = stream.first_tick_in_window(0);
        stream.head = stream.next_frame(0);
        stream
    }

    /// The next request, without drawing it.
    pub(crate) fn peek(&self) -> Option<Request> {
        self.head
    }

    /// Draws the next request if it arrives strictly before `cap_us`.
    pub(crate) fn next_before(&mut self, cap_us: u64) -> Option<Request> {
        if self.head?.issued_at_us >= cap_us {
            return None;
        }
        self.next()
    }

    /// `session`'s first tick, if it is a session and the tick falls
    /// inside the window.
    fn first_tick_in_window(&self, session: usize) -> Option<u64> {
        let pace = self.pace?;
        if session >= self.scenario.sessions {
            return None;
        }
        let at_us = pace.first_tick_us(session);
        (at_us < self.horizon_us).then_some(at_us)
    }

    /// The first request, numbered `id`, of the earliest pending frame —
    /// the heap's head or the next unadmitted session's first tick,
    /// whichever has the lower `(tick, session)` — with that session's
    /// following tick scheduled.
    fn next_frame(&mut self, id: u64) -> Option<Request> {
        let pace = self.pace?;
        let mut cursor = match (self.next_first_us, self.pending.peek()) {
            (Some(first_us), head)
                if head.is_none_or(|Reverse(head)| (first_us, self.next_session) < head.key()) =>
            {
                self.admit(first_us)
            }
            _ => self.pending.pop()?.0,
        };
        let request = Request {
            id,
            session: cursor.session,
            branch: 0,
            issued_at_us: cursor.at_us,
            class: cursor.class,
        };
        if let Some(next_us) = pace.next_tick_us(cursor.at_us, self.horizon_us, &mut cursor.rng) {
            cursor.at_us = next_us;
            self.pending.push(Reverse(cursor));
        }
        Some(request)
    }

    /// Admits the next session, whose first tick is `at_us`, drawing its
    /// class.
    fn admit(&mut self, at_us: u64) -> SessionCursor {
        let session = self.next_session;
        self.next_session += 1;
        self.next_first_us = self.first_tick_in_window(self.next_session);
        debug_assert!(
            self.next_first_us.is_none_or(|next_us| next_us >= at_us),
            "first ticks are non-decreasing in the session index"
        );
        SessionCursor {
            at_us,
            session,
            class: self.scenario.session_class(session),
            // One independent deterministic stream per session. The
            // session index is mixed through a SplitMix64-style finalizer:
            // a plain `seed ^ session * GOLDEN` would collide with the
            // RNG's own per-draw increment and turn sessions into shifted
            // copies of one stream.
            rng: StdRng::seed_from_u64(session_seed(self.scenario.seed, session)),
        }
    }
}

impl Iterator for Arrivals<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let request = self.head?;
        let id = request.id + 1;
        self.head = if request.branch + 1 < self.branches {
            Some(Request {
                id,
                branch: request.branch + 1,
                ..request
            })
        } else {
            self.next_frame(id)
        };
        Some(request)
    }
}

/// Derives an independent per-session RNG seed (the crate's shared
/// SplitMix64 finalizer).
fn session_seed(seed: u64, session: usize) -> u64 {
    crate::autoscale::mix(seed, usize_to_u64(session))
}

/// Exponential inter-arrival sample at `rate` events/second, µs, ≥ 1.
/// The logarithm is `fcad_obs::math::ln`, so the gaps do not depend on
/// the host's libm.
fn exponential_us(rng: &mut StdRng, rate: f64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    secs_to_us(-ln(1.0 - u) / rate)
}

fn secs_to_us(seconds: f64) -> u64 {
    f64_to_u64((seconds * 1e6).round().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        for scenario in Scenario::suite() {
            assert_eq!(scenario.generate(3), scenario.generate(3));
        }
        let a = Scenario::b1().with_seed(1).generate(3);
        let b = Scenario::b1().with_seed(2).generate(3);
        assert_ne!(a, b, "different seeds must shift Poisson arrivals");
    }

    #[test]
    fn every_frame_issues_one_request_per_branch() {
        let requests = Scenario::a1().generate(3);
        assert_eq!(requests.len() % 3, 0);
        // Steady 10 Hz for 2 s: ticks at 0, 0.1, …, all < 2 s = 20 frames.
        assert_eq!(requests.len(), 20 * 3);
    }

    #[test]
    fn ids_are_sequential_and_times_sorted() {
        let requests = Scenario::b2().generate(3);
        assert!(!requests.is_empty());
        for (i, pair) in requests.windows(2).enumerate() {
            assert_eq!(pair[0].id, i as u64);
            assert!(pair[0].issued_at_us <= pair[1].issued_at_us);
        }
    }

    #[test]
    fn burst_pattern_leaves_silent_windows() {
        let scenario = Scenario::b2();
        let (period_us, on_us) = match scenario.arrival {
            ArrivalPattern::Burst {
                period_sec, duty, ..
            } => {
                let period = (period_sec * 1e6) as u64;
                ((period), (period as f64 * duty) as u64)
            }
            _ => unreachable!(),
        };
        for request in scenario.generate(1) {
            assert!(
                request.issued_at_us % period_us <= on_us,
                "arrival at {} µs falls in an off window",
                request.issued_at_us
            );
        }
    }

    #[test]
    fn diurnal_ramp_accelerates_over_time() {
        let requests = Scenario::diurnal().with_sessions(1).generate(1);
        let horizon_us = (Scenario::diurnal().duration_sec * 1e6) as u64;
        let first_half = requests
            .iter()
            .filter(|r| r.issued_at_us < horizon_us / 2)
            .count();
        let second_half = requests.len() - first_half;
        assert!(
            second_half > first_half,
            "ramp-up must put more arrivals in the second half ({first_half} vs {second_half})"
        );
    }

    #[test]
    fn all_arrivals_respect_the_horizon() {
        for scenario in Scenario::suite() {
            let horizon_us = (scenario.duration_sec * 1e6) as u64;
            for request in scenario.generate(3) {
                assert!(request.issued_at_us < horizon_us);
            }
        }
    }

    #[test]
    fn fleet_variants_scale_sessions_with_the_shard_count() {
        for shards in [1usize, 2, 4, 8] {
            let suite = Scenario::fleet_suite(shards);
            assert_eq!(suite.len(), 4);
            assert_eq!(suite[0].sessions, shards); // a1: one per shard
            assert_eq!(suite[1].sessions, 5 * shards); // a2
            assert_eq!(suite[2].sessions, 2 * shards); // b1
            assert_eq!(suite[3].sessions, 5 * shards); // b2
            for (base, fleet) in Scenario::suite().iter().zip(&suite) {
                assert_eq!(fleet.name, format!("{}_fleet{shards}", base.name));
                assert_eq!(fleet.queue_capacity, base.queue_capacity);
                assert_eq!(fleet.arrival, base.arrival);
                assert_eq!(fleet.priorities, base.priorities);
                assert_eq!(fleet.class_mix, base.class_mix);
            }
        }
        // Degenerate shard counts clamp to one device.
        assert_eq!(Scenario::b2_fleet(0).sessions, 5);
    }

    #[test]
    fn legacy_scenarios_stay_classless_and_the_qos_burst_mixes() {
        for scenario in Scenario::suite() {
            assert_eq!(scenario.class_mix, ClassMix::standard_only());
            for request in scenario.generate(2) {
                assert_eq!(request.class, QosClass::Standard);
            }
        }
        let qos = Scenario::b2_qos();
        assert_eq!(qos.sessions, 8);
        assert_eq!(qos.priorities, None);
        assert_eq!(qos.arrival, Scenario::b2().arrival);
        assert_eq!(qos.class_mix, ClassMix::telepresence());
        // Class assignment is per session: every request of a session
        // carries the session's class, and the mix actually lands more
        // than one class across the eight sessions.
        let requests = qos.generate(3);
        for request in &requests {
            assert_eq!(request.class, qos.session_class(request.session));
        }
        let distinct: std::collections::BTreeSet<usize> =
            requests.iter().map(|r| r.class.index()).collect();
        assert!(distinct.len() >= 2, "the mix must produce mixed classes");
        // The class draw rides the scenario seed, not the arrival RNG:
        // reseeding shifts Poisson arrivals *and* may reshuffle classes,
        // but the same seed is always bit-identical.
        assert_eq!(qos.generate(3), qos.generate(3));
    }

    #[test]
    fn metropolis_sessions_issue_exactly_one_staggered_frame() {
        // Downscaled session count; the stagger math is identical. Every
        // steady 1 Hz session phase-staggered across the 1 s window lands
        // exactly one frame, carrying its session's class draw.
        let scenario = Scenario::metropolis().with_sessions(2_000);
        let requests = scenario.generate(3);
        assert_eq!(requests.len(), 2_000 * 3);
        for request in &requests {
            assert_eq!(request.class, scenario.session_class(request.session));
        }
        assert_eq!(scenario.class_mix, ClassMix::telepresence());
        let full = Scenario::metropolis();
        assert_eq!(full.sessions, 1_050_000);
        assert_eq!(full.name, "metropolis");
    }

    #[test]
    fn first_ticks_are_non_decreasing_in_the_session_index() {
        // The stream admits sessions in index order on this invariant.
        let patterns = [
            ArrivalPattern::Steady,
            ArrivalPattern::Poisson,
            Scenario::b2().arrival,
            Scenario::diurnal().arrival,
        ];
        for arrival in patterns {
            for rate in [1.0 / 60.0, 0.3, 1.0, 7.5, 30.0] {
                for sessions in [1usize, 3, 7, 40, 2_000] {
                    let scenario = Scenario {
                        arrival,
                        frame_rate_hz: rate,
                        ..Scenario::a1().with_sessions(sessions)
                    };
                    let pace = Pace::of(&scenario);
                    let firsts: Vec<u64> = (0..sessions).map(|s| pace.first_tick_us(s)).collect();
                    assert!(
                        firsts.windows(2).all(|pair| pair[0] <= pair[1]),
                        "{arrival:?} at {rate} Hz over {sessions} sessions"
                    );
                }
            }
        }
    }

    #[test]
    fn the_stream_peeks_what_it_draws_and_stops_at_the_cap() {
        let scenario = Scenario::b2_qos();
        let mut stream = scenario.arrivals(3);
        let cap_us = 1_000_000;
        let mut drawn = Vec::new();
        while let Some(peeked) = stream.peek() {
            match stream.next_before(cap_us) {
                Some(request) => {
                    assert_eq!(request, peeked);
                    drawn.push(request);
                }
                None => break,
            }
        }
        assert!(drawn.iter().all(|r| r.issued_at_us < cap_us));
        assert!(stream.peek().is_some_and(|r| r.issued_at_us >= cap_us));
        drawn.extend(stream);
        assert_eq!(drawn, scenario.generate(3));
    }

    #[test]
    fn silent_scenarios_issue_nothing() {
        let mut idle = Scenario::b1();
        idle.frame_rate_hz = 0.0;
        assert!(idle.generate(3).is_empty());
        idle.frame_rate_hz = -1.0;
        assert!(idle.generate(3).is_empty());
        let mut instant = Scenario::a2(5);
        instant.duration_sec = 0.0;
        assert!(instant.generate(3).is_empty());
    }

    #[test]
    fn availability_scenarios_scale_and_stretch_their_bases() {
        let diurnal = Scenario::diurnal_fleet(3);
        assert_eq!(diurnal.sessions, 12);
        assert_eq!(diurnal.name, "diurnal_ramp_fleet3");
        assert_eq!(diurnal.arrival, Scenario::diurnal().arrival);
        let failover = Scenario::b2_failover(2);
        assert_eq!(failover.sessions, 10);
        assert_eq!(failover.name, "b2_failover_fleet2");
        assert_eq!(failover.duration_sec, 4.0);
        assert_eq!(failover.priorities, Scenario::b2().priorities);
        assert_eq!(Scenario::b2_failover(0).name, "b2_failover_fleet1");
    }
}
