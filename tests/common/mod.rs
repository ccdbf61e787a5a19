//! Shared fixtures for the repo-level serving tests. Not every test
//! target uses every helper, hence the `dead_code` allowances.

use fcad_serve::{
    simulate_windowed_traced, AdmissionKind, ArrivalPattern, BranchService, ClassMix, FleetConfig,
    FleetEvent, FleetEventKind, Request, RequestEventKind, Scenario, SchedulerKind, ServeReport,
    ServeSpec, ServiceModel, TraceEvent, TraceSink, WindowPlan,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The default spec under the discipline `kind`.
#[allow(dead_code)]
pub fn spec_for(kind: SchedulerKind) -> ServeSpec {
    ServeSpec {
        scheduler: kind,
        ..ServeSpec::default()
    }
}

/// `spec` on the windows-disabled driver, every event delivered to `sink`:
/// the zero-length plan opens no window, so every event steps through
/// `EngineCore::step`, one at a time — the sequential comparator of the
/// windowed grids. `spec.workers` is ignored.
#[allow(dead_code)]
pub fn serve_sequential(
    config: &FleetConfig,
    scenario: &Scenario,
    spec: &ServeSpec,
    sink: &mut dyn TraceSink,
) -> ServeReport {
    simulate_windowed_traced(
        config,
        scenario,
        spec.scheduler,
        &spec.autoscaler,
        &spec.failures,
        spec.admission,
        spec.deadline,
        sink,
        &WindowPlan::new(1).with_window_us(0),
    )
}

/// The synthetic three-branch service model (no DSE run needed) used across
/// the serve/fleet test suites: two visual branches and a cheap
/// low-priority audio-like branch. One definition keeps every suite
/// testing the same model.
#[allow(dead_code)]
pub fn three_branch_model() -> ServiceModel {
    ServiceModel {
        branches: vec![
            BranchService {
                name: "geometry".to_owned(),
                frame_time_us: 9_000,
                fill_time_us: 8_000,
                max_batch: 1,
                priority: 1.0,
            },
            BranchService {
                name: "texture".to_owned(),
                frame_time_us: 5_000,
                fill_time_us: 7_000,
                max_batch: 2,
                priority: 1.0,
            },
            BranchService {
                name: "audio".to_owned(),
                frame_time_us: 1_500,
                fill_time_us: 2_000,
                max_batch: 4,
                priority: 0.2,
            },
        ],
    }
}

/// Every arrival pattern the property suites exercise, with one fixed
/// parameterization per stochastic pattern.
#[allow(dead_code)]
pub fn pattern_strategy() -> impl Strategy<Value = ArrivalPattern> {
    prop_oneof![
        Just(ArrivalPattern::Steady),
        Just(ArrivalPattern::Poisson),
        Just(ArrivalPattern::Burst {
            period_sec: 0.4,
            duty: 0.5,
            factor: 2.0,
        }),
        Just(ArrivalPattern::DiurnalRamp {
            start_factor: 0.4,
            end_factor: 1.8,
        }),
    ]
}

/// Every built-in scheduling discipline.
#[allow(dead_code)]
pub fn scheduler_strategy() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Fifo),
        Just(SchedulerKind::PriorityByBranch),
        Just(SchedulerKind::BatchAggregating),
        Just(SchedulerKind::Deadline),
    ]
}

/// Every built-in admission policy.
#[allow(dead_code)]
pub fn admission_strategy() -> impl Strategy<Value = AdmissionKind> {
    prop_oneof![
        Just(AdmissionKind::AdmitAll),
        Just(AdmissionKind::QueueThreshold),
        Just(AdmissionKind::BudgetAware),
    ]
}

/// QoS class mixes from the classless special case to heavy-interactive.
#[allow(dead_code)]
pub fn class_mix_strategy() -> impl Strategy<Value = ClassMix> {
    prop_oneof![
        Just(ClassMix::standard_only()),
        Just(ClassMix::telepresence()),
        Just(ClassMix::new(1.0, 1.0, 1.0)),
        Just(ClassMix::new(0.8, 0.0, 0.2)),
        Just(ClassMix::new(0.0, 0.0, 1.0)),
    ]
}

/// Audits a recorded trace against the report of the same run: the trace
/// must tell the same story as the counters. Checks
///
/// - one `Arrival` per issued request, one `Replace` per re-placement;
/// - terminal events (`Complete`/`Drop`/`Lost`/`Shed`/`Expired`) match the
///   report's completed/dropped/lost/shed/expired — fleet-wide, per
///   branch, per class, and (for the shard-attributed outcomes) per shard;
/// - every batch dispatch lands inside its shard's live lifecycle
///   interval: after the warm-up of a spawned shard, before any
///   failure/retirement;
/// - the fleet events on the trace are the report's `scale_events`, in
///   the same order.
///
/// Panics with a labelled assertion on the first violation.
#[allow(dead_code)]
pub fn check_trace_against_report(events: &[TraceEvent], report: &ServeReport) {
    let branches = report.branches.len();
    let classes = report.classes.len();
    let shards = report.shards.len();
    let mut arrivals = 0u64;
    let mut replaces = 0u64;
    // Terminal tallies: [completed, dropped, lost, shed, expired] per
    // dimension.
    let mut fleet = [0u64; 5];
    let mut per_branch = vec![[0u64; 5]; branches];
    let mut per_class = vec![[0u64; 5]; classes];
    let mut per_shard = vec![[0u64; 5]; shards];
    for event in events {
        let TraceEvent::Request(e) = event else {
            continue;
        };
        assert!(e.branch < branches, "branch index out of range");
        assert!(e.class < classes, "class index out of range");
        let outcome = match e.kind {
            RequestEventKind::Arrival => {
                arrivals += 1;
                continue;
            }
            RequestEventKind::Replace { from_shard } => {
                assert_ne!(Some(from_shard), e.shard, "replace must change shards");
                replaces += 1;
                continue;
            }
            RequestEventKind::Complete { .. } => 0,
            RequestEventKind::Drop => 1,
            RequestEventKind::Lost { .. } => 2,
            RequestEventKind::Shed => 3,
            RequestEventKind::Expired => 4,
            _ => continue,
        };
        fleet[outcome] += 1;
        per_branch[e.branch][outcome] += 1;
        per_class[e.class][outcome] += 1;
        match e.shard {
            Some(shard) => {
                assert!(shard < shards, "shard index out of range");
                per_shard[shard][outcome] += 1;
            }
            None => assert_eq!(outcome, 2, "only lost requests belong to no shard"),
        }
    }
    assert_eq!(arrivals, report.issued, "one Arrival per issued request");
    assert_eq!(replaces, report.replaced, "one Replace per re-placement");
    let expect_fleet = [
        report.completed,
        report.dropped,
        report.lost,
        report.shed,
        report.expired,
    ];
    assert_eq!(fleet, expect_fleet, "fleet-wide terminal counts");
    for (index, branch) in report.branches.iter().enumerate() {
        assert_eq!(
            per_branch[index],
            [
                branch.completed,
                branch.dropped,
                branch.lost,
                branch.shed,
                branch.expired,
            ],
            "branch {index} terminal counts"
        );
    }
    for (index, class) in report.classes.iter().enumerate() {
        assert_eq!(
            per_class[index],
            [
                class.completed,
                class.dropped,
                class.lost,
                class.shed,
                class.expired,
            ],
            "class {index} terminal counts"
        );
    }
    for (index, shard) in report.shards.iter().enumerate() {
        // Lost requests are attributed to no shard, so the shard row has
        // no lost term to compare.
        assert_eq!(
            [
                per_shard[index][0],
                per_shard[index][1],
                per_shard[index][3],
                per_shard[index][4]
            ],
            [shard.completed, shard.dropped, shard.shed, shard.expired],
            "shard {index} terminal counts"
        );
        assert_eq!(per_shard[index][2], 0, "no lost event names a shard");
    }

    let fleet_events: Vec<FleetEvent> = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Fleet(f) => Some(*f),
            _ => None,
        })
        .collect();
    assert_eq!(
        fleet_events, report.scale_events,
        "trace fleet events must be the report's scale_events, in order"
    );

    // Lifecycle intervals: a spawned shard dispatches only once warm, and
    // no shard dispatches at or after its failure/retirement instant.
    let mut up_at = vec![None; shards];
    let mut warm_at = vec![None; shards];
    let mut dead_at = vec![None; shards];
    for f in &fleet_events {
        match f.kind {
            FleetEventKind::Up => up_at[f.shard] = Some(f.at_us),
            FleetEventKind::Warm => warm_at[f.shard] = Some(f.at_us),
            FleetEventKind::Fail | FleetEventKind::Retire => dead_at[f.shard] = Some(f.at_us),
            FleetEventKind::Drain => {}
        }
    }
    for event in events {
        let TraceEvent::Batch(b) = event else {
            continue;
        };
        if let Some(spawned) = up_at[b.shard] {
            let warm = warm_at[b.shard]
                .unwrap_or_else(|| panic!("shard {} dispatched but never warmed", b.shard));
            assert!(spawned <= warm, "warm-up follows the spawn");
            assert!(
                b.at_us >= warm,
                "shard {} dispatched at {} µs before its warm-up at {} µs",
                b.shard,
                b.at_us,
                warm
            );
        }
        if let Some(dead) = dead_at[b.shard] {
            assert!(
                b.at_us < dead,
                "shard {} dispatched at {} µs at/after its death at {} µs",
                b.shard,
                b.at_us,
                dead
            );
        }
    }
}

/// One-second scenario from randomized property-test parameters.
#[allow(dead_code)]
pub fn prop_scenario(
    seed: u64,
    sessions: usize,
    rate: usize,
    capacity: usize,
    arrival: ArrivalPattern,
) -> Scenario {
    Scenario {
        name: "prop".to_owned(),
        seed,
        sessions,
        frame_rate_hz: rate as f64,
        duration_sec: 1.0,
        arrival,
        queue_capacity: capacity,
        priorities: None,
        class_mix: ClassMix::standard_only(),
    }
}

/// The request trace a scenario promises, built by brute force and apart
/// from the crate's generator: every session's ticks walked one by one
/// with a `match` on the pattern, `branches` requests per tick, then one
/// sort on `(issued_at_us, session, branch)` and ids in that order. Only
/// the class draw comes from the crate, through the public
/// [`Scenario::session_class`], and the Poisson gaps' logarithm, from
/// `fcad_obs::math::ln` as in the generator.
#[allow(dead_code)]
pub fn brute_force_trace(scenario: &Scenario, branches: usize) -> Vec<Request> {
    let horizon_us = (scenario.duration_sec * 1e6) as u64;
    let rate = scenario.frame_rate_hz;
    let mut requests = Vec::new();
    if rate <= 0.0 || horizon_us == 0 {
        return requests;
    }
    let us = |seconds: f64| (seconds * 1e6).round().max(1.0) as u64;
    let exponential_us = |rng: &mut StdRng, rate: f64| {
        let u: f64 = rng.gen_range(0.0..1.0);
        us(-fcad_obs::math::ln(1.0 - u) / rate)
    };
    for session in 0..scenario.sessions {
        let class = scenario.session_class(session);
        let mut rng = StdRng::seed_from_u64(splitmix(scenario.seed, session as u64));
        let mut t = match scenario.arrival {
            ArrivalPattern::Steady => {
                (session as f64 / scenario.sessions.max(1) as f64 / rate * 1e6) as u64
            }
            _ => 0,
        };
        while t < horizon_us {
            let gap_us = match scenario.arrival {
                ArrivalPattern::Steady => us(1.0 / rate),
                ArrivalPattern::Poisson => exponential_us(&mut rng, rate),
                ArrivalPattern::Burst {
                    period_sec,
                    duty,
                    factor,
                } => {
                    let period_us = us(period_sec);
                    let on_us = (period_us as f64 * duty.clamp(0.0, 1.0)) as u64;
                    let phase = t % period_us;
                    if phase >= on_us.max(1) {
                        t += period_us - phase;
                        continue;
                    }
                    exponential_us(&mut rng, rate * factor.max(f64::MIN_POSITIVE))
                }
                ArrivalPattern::DiurnalRamp {
                    start_factor,
                    end_factor,
                } => {
                    let progress = t as f64 / horizon_us as f64;
                    let factor = start_factor + (end_factor - start_factor) * progress;
                    us(1.0 / (rate * factor.max(1e-3)))
                }
            };
            for branch in 0..branches {
                requests.push(Request {
                    id: 0,
                    session,
                    branch,
                    issued_at_us: t,
                    class,
                });
            }
            t = t.saturating_add(gap_us.max(1));
        }
    }
    requests.sort_by_key(|r| (r.issued_at_us, r.session, r.branch));
    for (id, request) in requests.iter_mut().enumerate() {
        request.id = id as u64;
    }
    requests
}

/// The SplitMix64 finalizer over `(seed, stream)` that seeds each
/// session's RNG.
fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
