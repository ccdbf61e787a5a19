//! Golden snapshots of the `ServeReport` single-line JSON rendering — the
//! format `reproduce --serve`/`--fleet`/`--autoscale`/`--qos` and the
//! serving examples emit. Any field rename, reorder, precision change or
//! dropped section (including the fleet's per-shard stats, the
//! availability tail and the QoS class rows) fails these tests instead of
//! silently drifting.
//!
//! Format-growth contract: new fields are only ever *appended* — at the
//! end of the top line and at the end of each branch/shard/class
//! sub-object — so consumers indexing existing keys keep working. Three
//! snapshots pin this: a fixed-fleet report (availability fields all
//! idle, everything in the `standard` class row), an autoscaled run with
//! a failure (scale events, lost/re-placed counts and the pre/post-failure
//! tails populated), and a QoS run under budget-aware admission (mixed
//! class rows, shed counts and per-class SLO attainment populated).

use fcad_serve::{
    serve, AdmissionKind, Autoscaler, BranchServeStats, ClassServeStats, FailurePlan, FleetConfig,
    FleetEvent, FleetEventKind, LatencySummary, LoadBalancerKind, Off, QosClass, Scenario,
    SchedulerKind, ServeReport, ServeSpec, ServiceModel, ShardState, ShardStats,
};

fn latency() -> LatencySummary {
    LatencySummary {
        p50_ms: 12.0,
        p95_ms: 40.0,
        p99_ms: 64.0,
        mean_ms: 18.25,
        max_ms: 96.5,
    }
}

/// Class rows with every request in the `standard` row — the shape every
/// classless (legacy) run reports.
fn standard_only_classes(
    issued: u64,
    completed: u64,
    dropped: u64,
    lost: u64,
    slo_attainment: f64,
) -> Vec<ClassServeStats> {
    QosClass::all()
        .iter()
        .map(|class| {
            let hit = *class == QosClass::Standard;
            ClassServeStats {
                class: *class,
                budget_ms: class.budget_ms(),
                weight: class.weight(),
                issued: if hit { issued } else { 0 },
                completed: if hit { completed } else { 0 },
                dropped: if hit { dropped } else { 0 },
                lost: if hit { lost } else { 0 },
                shed: 0,
                expired: 0,
                slo_attainment: if hit { slo_attainment } else { 1.0 },
                latency: if hit {
                    latency()
                } else {
                    LatencySummary::default()
                },
            }
        })
        .collect()
}

/// A fully hand-built two-shard report, independent of the simulator, so
/// the snapshot pins the *rendering* and nothing else.
fn report() -> ServeReport {
    ServeReport {
        scenario: "b2_mixed_priority_chaos_fleet2".into(),
        scheduler: "batch".into(),
        balancer: "least_loaded".into(),
        seed: 7,
        sessions: 10,
        issued: 100,
        completed: 90,
        dropped: 10,
        drop_rate: 0.1,
        makespan_sec: 2.5,
        throughput_rps: 36.0,
        utilization: 0.875,
        imbalance: 0.25,
        latency: latency(),
        branches: vec![
            BranchServeStats {
                name: "geometry".into(),
                priority: 1.0,
                issued: 50,
                completed: 45,
                dropped: 5,
                lost: 0,
                shed: 0,
                expired: 0,
                latency: latency(),
            },
            BranchServeStats {
                name: "warp".into(),
                priority: 0.15,
                issued: 50,
                completed: 45,
                dropped: 5,
                lost: 0,
                shed: 0,
                expired: 0,
                latency: latency(),
            },
        ],
        shards: vec![
            ShardStats {
                issued: 60,
                completed: 55,
                dropped: 5,
                shed: 0,
                expired: 0,
                state: ShardState::Active,
                utilization: 1.0,
                latency: latency(),
            },
            ShardStats {
                issued: 40,
                completed: 35,
                dropped: 5,
                shed: 0,
                expired: 0,
                state: ShardState::Active,
                utilization: 0.75,
                latency: latency(),
            },
        ],
        replaced: 0,
        lost: 0,
        availability: 0.9,
        latency_pre_failure: LatencySummary::default(),
        latency_post_failure: LatencySummary::default(),
        scale_events: Vec::new(),
        shed: 0,
        admission: "admit_all".into(),
        slo_attainment: 0.9,
        classes: standard_only_classes(100, 90, 10, 0, 0.9),
        expired: 0,
        // 0.875 utilization across two shards over the 2.5 s makespan.
        fabric_busy_us: 4_375_000,
        slo_per_busy_sec: 0.9 / 4.375,
        trace_summary: None,
    }
}

/// The same rendering with the dynamic-fleet sections live: shard 1 died
/// mid-run (9 of its queued requests re-placed onto shard 0, 10 lost), a
/// replacement shard spawned, warmed and was still warming — never
/// admitted anything — when the traffic ended. Books balance: 86
/// completed + 4 dropped + 10 lost = 100 issued, and the shard front
/// doors (54 + 36 + 0) run exactly the 10 lost requests short.
fn autoscaled_report() -> ServeReport {
    ServeReport {
        scenario: "b2_failover_fleet2".into(),
        scheduler: "batch".into(),
        balancer: "least_loaded".into(),
        seed: 7,
        sessions: 10,
        issued: 100,
        completed: 86,
        dropped: 4,
        drop_rate: 0.04,
        makespan_sec: 2.5,
        throughput_rps: 34.4,
        utilization: 0.875,
        imbalance: 0.25,
        latency: latency(),
        branches: vec![
            BranchServeStats {
                name: "geometry".into(),
                priority: 1.0,
                issued: 50,
                completed: 43,
                dropped: 3,
                lost: 4,
                shed: 0,
                expired: 0,
                latency: latency(),
            },
            BranchServeStats {
                name: "warp".into(),
                priority: 0.15,
                issued: 50,
                completed: 43,
                dropped: 1,
                lost: 6,
                shed: 0,
                expired: 0,
                latency: latency(),
            },
        ],
        shards: vec![
            ShardStats {
                issued: 54,
                completed: 53,
                dropped: 1,
                shed: 0,
                expired: 0,
                state: ShardState::Active,
                utilization: 1.0,
                latency: latency(),
            },
            ShardStats {
                issued: 36,
                completed: 33,
                dropped: 3,
                shed: 0,
                expired: 0,
                state: ShardState::Failed,
                utilization: 0.75,
                latency: latency(),
            },
            ShardStats {
                issued: 0,
                completed: 0,
                dropped: 0,
                shed: 0,
                expired: 0,
                state: ShardState::Warming,
                utilization: 0.0,
                latency: LatencySummary::default(),
            },
        ],
        replaced: 9,
        lost: 10,
        availability: 0.86,
        latency_pre_failure: LatencySummary {
            p50_ms: 10.0,
            p95_ms: 30.0,
            p99_ms: 48.0,
            mean_ms: 14.5,
            max_ms: 60.0,
        },
        latency_post_failure: latency(),
        scale_events: vec![
            FleetEvent {
                at_us: 1_500_000,
                kind: FleetEventKind::Fail,
                shard: 1,
                active_after: 1,
            },
            FleetEvent {
                at_us: 1_500_000,
                kind: FleetEventKind::Up,
                shard: 2,
                active_after: 1,
            },
            FleetEvent {
                at_us: 1_525_000,
                kind: FleetEventKind::Warm,
                shard: 2,
                active_after: 2,
            },
        ],
        shed: 0,
        admission: "admit_all".into(),
        slo_attainment: 0.75,
        classes: standard_only_classes(100, 86, 4, 10, 0.75),
        expired: 0,
        // Shards 0 and 1 at 1.0 / 0.75 utilization over 2.5 s, shard 2
        // still warming and never busy.
        fabric_busy_us: 4_375_000,
        slo_per_busy_sec: 0.75 / 4.375,
        trace_summary: None,
    }
}

/// The QoS sections live: a mixed class population under budget-aware
/// admission on a two-shard fleet — 18 requests shed at the front doors,
/// each class scored against its own budget. Books balance (100 completed
/// plus 2 dropped plus 18 shed = 120 issued) in total, per branch, per
/// class and per shard.
fn qos_report() -> ServeReport {
    ServeReport {
        scenario: "b2_qos_burst".into(),
        scheduler: "priority".into(),
        balancer: "least_loaded".into(),
        seed: 7,
        sessions: 8,
        issued: 120,
        completed: 100,
        dropped: 2,
        drop_rate: 0.0167,
        makespan_sec: 2.5,
        throughput_rps: 40.0,
        utilization: 0.9,
        imbalance: 0.1,
        latency: latency(),
        branches: vec![
            BranchServeStats {
                name: "geometry".into(),
                priority: 1.0,
                issued: 60,
                completed: 52,
                dropped: 1,
                lost: 0,
                shed: 7,
                expired: 0,
                latency: latency(),
            },
            BranchServeStats {
                name: "warp".into(),
                priority: 1.0,
                issued: 60,
                completed: 48,
                dropped: 1,
                lost: 0,
                shed: 11,
                expired: 0,
                latency: latency(),
            },
        ],
        shards: vec![
            ShardStats {
                issued: 70,
                completed: 60,
                dropped: 1,
                shed: 9,
                expired: 0,
                state: ShardState::Active,
                utilization: 1.0,
                latency: latency(),
            },
            ShardStats {
                issued: 50,
                completed: 40,
                dropped: 1,
                shed: 9,
                expired: 0,
                state: ShardState::Active,
                utilization: 0.8,
                latency: latency(),
            },
        ],
        replaced: 0,
        lost: 0,
        availability: 0.8333,
        latency_pre_failure: LatencySummary::default(),
        latency_post_failure: LatencySummary::default(),
        scale_events: Vec::new(),
        shed: 18,
        admission: "budget_aware".into(),
        slo_attainment: 0.88,
        classes: vec![
            ClassServeStats {
                class: QosClass::Interactive,
                budget_ms: 100.0,
                weight: 4.0,
                issued: 40,
                completed: 38,
                dropped: 0,
                lost: 0,
                shed: 2,
                expired: 0,
                slo_attainment: 1.0,
                latency: LatencySummary {
                    p50_ms: 8.0,
                    p95_ms: 20.0,
                    p99_ms: 28.0,
                    mean_ms: 10.5,
                    max_ms: 44.0,
                },
            },
            ClassServeStats {
                class: QosClass::Standard,
                budget_ms: 400.0,
                weight: 1.0,
                issued: 50,
                completed: 46,
                dropped: 2,
                lost: 0,
                shed: 2,
                expired: 0,
                slo_attainment: 0.9565,
                latency: latency(),
            },
            ClassServeStats {
                class: QosClass::BestEffort,
                budget_ms: 2000.0,
                weight: 0.25,
                issued: 30,
                completed: 16,
                dropped: 0,
                lost: 0,
                shed: 14,
                expired: 0,
                slo_attainment: 0.75,
                latency: LatencySummary {
                    p50_ms: 420.0,
                    p95_ms: 1650.0,
                    p99_ms: 1810.0,
                    mean_ms: 612.5,
                    max_ms: 2300.0,
                },
            },
        ],
        expired: 0,
        // 1.0 + 0.8 shard utilization over the 2.5 s makespan.
        fabric_busy_us: 4_500_000,
        slo_per_busy_sec: 0.88 / 4.5,
        trace_summary: None,
    }
}

const GOLDEN: &str = concat!(
    "{\"scenario\":\"b2_mixed_priority_chaos_fleet2\",\"scheduler\":\"batch\",",
    "\"balancer\":\"least_loaded\",\"seed\":7,\"sessions\":10,\"issued\":100,",
    "\"completed\":90,\"dropped\":10,\"drop_rate\":0.1000,\"makespan_sec\":2.5000,",
    "\"throughput_rps\":36.0000,\"utilization\":0.8750,\"imbalance\":0.2500,",
    "\"p50_ms\":12.0000,\"p95_ms\":40.0000,\"p99_ms\":64.0000,\"mean_ms\":18.2500,",
    "\"max_ms\":96.5000,\"branches\":[{\"name\":\"geometry\",\"priority\":1.0000,",
    "\"issued\":50,\"completed\":45,\"dropped\":5,\"p50_ms\":12.0000,",
    "\"p99_ms\":64.0000,\"max_ms\":96.5000,\"lost\":0,\"shed\":0,\"expired\":0},",
    "{\"name\":\"warp\",\"priority\":0.1500,\"issued\":50,\"completed\":45,",
    "\"dropped\":5,\"p50_ms\":12.0000,\"p99_ms\":64.0000,\"max_ms\":96.5000,",
    "\"lost\":0,\"shed\":0,\"expired\":0}],\"shards\":[{\"issued\":60,",
    "\"completed\":55,\"dropped\":5,\"utilization\":1.0000,\"p50_ms\":12.0000,",
    "\"p99_ms\":64.0000,\"max_ms\":96.5000,\"state\":\"active\",\"shed\":0,",
    "\"expired\":0},{\"issued\":40,\"completed\":35,\"dropped\":5,",
    "\"utilization\":0.7500,\"p50_ms\":12.0000,\"p99_ms\":64.0000,",
    "\"max_ms\":96.5000,\"state\":\"active\",\"shed\":0,\"expired\":0}],",
    "\"replaced\":0,\"lost\":0,\"availability\":0.9000,",
    "\"pre_failure_p99_ms\":0.0000,\"post_failure_p99_ms\":0.0000,",
    "\"scale_events\":[],\"shed\":0,\"admission\":\"admit_all\",",
    "\"slo_attainment\":0.9000,\"classes\":[{\"class\":\"interactive\",",
    "\"budget_ms\":100.0000,\"weight\":4.0000,\"issued\":0,\"completed\":0,",
    "\"dropped\":0,\"lost\":0,\"shed\":0,\"slo_attainment\":1.0000,\"p50_ms\":0.0000,",
    "\"p99_ms\":0.0000,\"max_ms\":0.0000,\"expired\":0},{\"class\":\"standard\",",
    "\"budget_ms\":400.0000,\"weight\":1.0000,\"issued\":100,\"completed\":90,",
    "\"dropped\":10,\"lost\":0,\"shed\":0,\"slo_attainment\":0.9000,",
    "\"p50_ms\":12.0000,\"p99_ms\":64.0000,\"max_ms\":96.5000,\"expired\":0},",
    "{\"class\":\"best_effort\",\"budget_ms\":2000.0000,\"weight\":0.2500,",
    "\"issued\":0,\"completed\":0,\"dropped\":0,\"lost\":0,\"shed\":0,",
    "\"slo_attainment\":1.0000,\"p50_ms\":0.0000,\"p99_ms\":0.0000,",
    "\"max_ms\":0.0000,\"expired\":0}],\"expired\":0,\"fabric_busy_us\":4375000,",
    "\"slo_per_busy_sec\":0.2057}",
);

const GOLDEN_AUTOSCALED: &str = concat!(
    "{\"scenario\":\"b2_failover_fleet2\",\"scheduler\":\"batch\",",
    "\"balancer\":\"least_loaded\",\"seed\":7,\"sessions\":10,\"issued\":100,",
    "\"completed\":86,\"dropped\":4,\"drop_rate\":0.0400,\"makespan_sec\":2.5000,",
    "\"throughput_rps\":34.4000,\"utilization\":0.8750,\"imbalance\":0.2500,",
    "\"p50_ms\":12.0000,\"p95_ms\":40.0000,\"p99_ms\":64.0000,\"mean_ms\":18.2500,",
    "\"max_ms\":96.5000,\"branches\":[{\"name\":\"geometry\",\"priority\":1.0000,",
    "\"issued\":50,\"completed\":43,\"dropped\":3,\"p50_ms\":12.0000,",
    "\"p99_ms\":64.0000,\"max_ms\":96.5000,\"lost\":4,\"shed\":0,\"expired\":0},",
    "{\"name\":\"warp\",\"priority\":0.1500,\"issued\":50,\"completed\":43,",
    "\"dropped\":1,\"p50_ms\":12.0000,\"p99_ms\":64.0000,\"max_ms\":96.5000,",
    "\"lost\":6,\"shed\":0,\"expired\":0}],\"shards\":[{\"issued\":54,",
    "\"completed\":53,\"dropped\":1,\"utilization\":1.0000,\"p50_ms\":12.0000,",
    "\"p99_ms\":64.0000,\"max_ms\":96.5000,\"state\":\"active\",\"shed\":0,",
    "\"expired\":0},{\"issued\":36,\"completed\":33,\"dropped\":3,",
    "\"utilization\":0.7500,\"p50_ms\":12.0000,\"p99_ms\":64.0000,",
    "\"max_ms\":96.5000,\"state\":\"failed\",\"shed\":0,\"expired\":0},",
    "{\"issued\":0,\"completed\":0,\"dropped\":0,\"utilization\":0.0000,",
    "\"p50_ms\":0.0000,\"p99_ms\":0.0000,\"max_ms\":0.0000,\"state\":\"warming\",",
    "\"shed\":0,\"expired\":0}],\"replaced\":9,\"lost\":10,\"availability\":0.8600,",
    "\"pre_failure_p99_ms\":48.0000,\"post_failure_p99_ms\":64.0000,",
    "\"scale_events\":[{\"at_sec\":1.5000,\"kind\":\"fail\",\"shard\":1,",
    "\"active_after\":1},{\"at_sec\":1.5000,\"kind\":\"up\",\"shard\":2,",
    "\"active_after\":1},{\"at_sec\":1.5250,\"kind\":\"warm\",\"shard\":2,",
    "\"active_after\":2}],\"shed\":0,\"admission\":\"admit_all\",",
    "\"slo_attainment\":0.7500,\"classes\":[{\"class\":\"interactive\",",
    "\"budget_ms\":100.0000,\"weight\":4.0000,\"issued\":0,\"completed\":0,",
    "\"dropped\":0,\"lost\":0,\"shed\":0,\"slo_attainment\":1.0000,\"p50_ms\":0.0000,",
    "\"p99_ms\":0.0000,\"max_ms\":0.0000,\"expired\":0},{\"class\":\"standard\",",
    "\"budget_ms\":400.0000,\"weight\":1.0000,\"issued\":100,\"completed\":86,",
    "\"dropped\":4,\"lost\":10,\"shed\":0,\"slo_attainment\":0.7500,",
    "\"p50_ms\":12.0000,\"p99_ms\":64.0000,\"max_ms\":96.5000,\"expired\":0},",
    "{\"class\":\"best_effort\",\"budget_ms\":2000.0000,\"weight\":0.2500,",
    "\"issued\":0,\"completed\":0,\"dropped\":0,\"lost\":0,\"shed\":0,",
    "\"slo_attainment\":1.0000,\"p50_ms\":0.0000,\"p99_ms\":0.0000,",
    "\"max_ms\":0.0000,\"expired\":0}],\"expired\":0,\"fabric_busy_us\":4375000,",
    "\"slo_per_busy_sec\":0.1714}",
);

const GOLDEN_QOS: &str = concat!(
    "{\"scenario\":\"b2_qos_burst\",\"scheduler\":\"priority\",",
    "\"balancer\":\"least_loaded\",\"seed\":7,\"sessions\":8,\"issued\":120,",
    "\"completed\":100,\"dropped\":2,\"drop_rate\":0.0167,\"makespan_sec\":2.5000,",
    "\"throughput_rps\":40.0000,\"utilization\":0.9000,\"imbalance\":0.1000,",
    "\"p50_ms\":12.0000,\"p95_ms\":40.0000,\"p99_ms\":64.0000,\"mean_ms\":18.2500,",
    "\"max_ms\":96.5000,\"branches\":[{\"name\":\"geometry\",\"priority\":1.0000,",
    "\"issued\":60,\"completed\":52,\"dropped\":1,\"p50_ms\":12.0000,",
    "\"p99_ms\":64.0000,\"max_ms\":96.5000,\"lost\":0,\"shed\":7,\"expired\":0},",
    "{\"name\":\"warp\",\"priority\":1.0000,\"issued\":60,\"completed\":48,",
    "\"dropped\":1,\"p50_ms\":12.0000,\"p99_ms\":64.0000,\"max_ms\":96.5000,",
    "\"lost\":0,\"shed\":11,\"expired\":0}],\"shards\":[{\"issued\":70,",
    "\"completed\":60,\"dropped\":1,\"utilization\":1.0000,\"p50_ms\":12.0000,",
    "\"p99_ms\":64.0000,\"max_ms\":96.5000,\"state\":\"active\",\"shed\":9,",
    "\"expired\":0},{\"issued\":50,\"completed\":40,\"dropped\":1,",
    "\"utilization\":0.8000,\"p50_ms\":12.0000,\"p99_ms\":64.0000,",
    "\"max_ms\":96.5000,\"state\":\"active\",\"shed\":9,\"expired\":0}],",
    "\"replaced\":0,\"lost\":0,\"availability\":0.8333,",
    "\"pre_failure_p99_ms\":0.0000,\"post_failure_p99_ms\":0.0000,",
    "\"scale_events\":[],\"shed\":18,\"admission\":\"budget_aware\",",
    "\"slo_attainment\":0.8800,\"classes\":[{\"class\":\"interactive\",",
    "\"budget_ms\":100.0000,\"weight\":4.0000,\"issued\":40,\"completed\":38,",
    "\"dropped\":0,\"lost\":0,\"shed\":2,\"slo_attainment\":1.0000,\"p50_ms\":8.0000,",
    "\"p99_ms\":28.0000,\"max_ms\":44.0000,\"expired\":0},{\"class\":\"standard\",",
    "\"budget_ms\":400.0000,\"weight\":1.0000,\"issued\":50,\"completed\":46,",
    "\"dropped\":2,\"lost\":0,\"shed\":2,\"slo_attainment\":0.9565,",
    "\"p50_ms\":12.0000,\"p99_ms\":64.0000,\"max_ms\":96.5000,\"expired\":0},",
    "{\"class\":\"best_effort\",\"budget_ms\":2000.0000,\"weight\":0.2500,",
    "\"issued\":30,\"completed\":16,\"dropped\":0,\"lost\":0,\"shed\":14,",
    "\"slo_attainment\":0.7500,\"p50_ms\":420.0000,\"p99_ms\":1810.0000,",
    "\"max_ms\":2300.0000,\"expired\":0}],\"expired\":0,",
    "\"fabric_busy_us\":4500000,\"slo_per_busy_sec\":0.1956}",
);

#[test]
fn serve_report_json_line_matches_the_golden_snapshot() {
    assert_eq!(report().to_json_line(), GOLDEN);
}

#[test]
fn autoscaled_report_json_line_matches_its_golden_snapshot() {
    let report = autoscaled_report();
    assert!(
        report.conserves_requests(),
        "the autoscaled fixture must keep the books straight"
    );
    assert_eq!(report.to_json_line(), GOLDEN_AUTOSCALED);
}

#[test]
fn qos_report_json_line_matches_its_golden_snapshot() {
    let report = qos_report();
    assert!(
        report.conserves_requests(),
        "the QoS fixture must keep the books straight (shed included)"
    );
    assert_eq!(report.to_json_line(), GOLDEN_QOS);
}

#[test]
fn golden_snapshots_are_single_structurally_balanced_lines() {
    for golden in [GOLDEN, GOLDEN_AUTOSCALED, GOLDEN_QOS] {
        assert!(!golden.contains('\n'));
        assert_eq!(golden.matches('{').count(), golden.matches('}').count());
        assert_eq!(golden.matches('[').count(), golden.matches(']').count());
    }
}

#[test]
fn later_goldens_only_append_to_the_fixed_key_order() {
    // Every key of the fixed-fleet snapshot appears in the autoscaled and
    // QoS ones in the same order: the availability and QoS sections grow
    // the line at the end (and at the end of sub-objects), never in the
    // middle. A quoted string is a key exactly when a ':' follows its
    // closing quote (the goldens contain no escaped quotes).
    let keys = |golden: &str| -> Vec<String> {
        let mut keys = Vec::new();
        let mut rest = golden;
        while let Some(open) = rest.find('"') {
            let body = &rest[open + 1..];
            let close = body.find('"').expect("quotes come in pairs");
            if body[close + 1..].starts_with(':') {
                keys.push(body[..close].to_owned());
            }
            rest = &body[close + 1..];
        }
        keys
    };
    for grown in [GOLDEN_AUTOSCALED, GOLDEN_QOS] {
        let grown_keys = keys(grown);
        let mut cursor = 0;
        for key in keys(GOLDEN) {
            let at = grown_keys[cursor..]
                .iter()
                .position(|k| *k == key)
                .unwrap_or_else(|| panic!("key {key} missing or reordered in the grown line"));
            cursor += at + 1;
        }
    }
}

/// A real simulation must emit the same keys in the same order as the
/// snapshots (values differ): walk the golden keys and check each appears
/// after the previous one.
fn assert_key_order(line: &str, keys: &[&str]) {
    let mut cursor = 0;
    for key in keys {
        let at = line[cursor..]
            .find(key)
            .unwrap_or_else(|| panic!("missing or out-of-order key {key} in {line}"));
        cursor += at + key.len();
    }
}

const TOP_LEVEL_KEYS: [&str; 33] = [
    "\"scenario\":",
    "\"scheduler\":",
    "\"balancer\":",
    "\"seed\":",
    "\"sessions\":",
    "\"issued\":",
    "\"completed\":",
    "\"dropped\":",
    "\"drop_rate\":",
    "\"makespan_sec\":",
    "\"throughput_rps\":",
    "\"utilization\":",
    "\"imbalance\":",
    "\"p50_ms\":",
    "\"p95_ms\":",
    "\"p99_ms\":",
    "\"mean_ms\":",
    "\"max_ms\":",
    "\"branches\":[",
    "\"lost\":",
    "\"shards\":[",
    "\"state\":",
    "\"replaced\":",
    "\"availability\":",
    "\"pre_failure_p99_ms\":",
    "\"post_failure_p99_ms\":",
    "\"scale_events\":[",
    "\"admission\":",
    "\"slo_attainment\":",
    "\"classes\":[",
    "\"expired\":",
    "\"fabric_busy_us\":",
    "\"slo_per_busy_sec\":",
];

fn one_branch_model() -> ServiceModel {
    ServiceModel {
        branches: vec![fcad_serve::BranchService {
            name: "texture".to_owned(),
            frame_time_us: 4_000,
            fill_time_us: 1_000,
            max_batch: 2,
            priority: 1.0,
        }],
    }
}

#[test]
fn simulated_fleet_reports_render_with_the_golden_key_order() {
    let config =
        FleetConfig::uniform(one_branch_model(), 2).with_balancer(LoadBalancerKind::LeastLoaded);
    let line = serve(&config, &Scenario::a1(), &ServeSpec::default(), &mut Off).to_json_line();
    assert_key_order(&line, &TOP_LEVEL_KEYS);
    assert_key_order(
        &line,
        &[
            "\"classes\":[",
            "\"class\":\"interactive\"",
            "\"budget_ms\":",
            "\"class\":\"standard\"",
            "\"class\":\"best_effort\"",
        ],
    );
}

#[test]
fn simulated_autoscaled_reports_render_with_the_golden_key_order() {
    let config =
        FleetConfig::uniform(one_branch_model(), 2).with_balancer(LoadBalancerKind::LeastLoaded);
    let spec = ServeSpec {
        autoscaler: Autoscaler::reactive(2, 4),
        failures: FailurePlan::scheduled(&[(1_500_000, 1)]),
        ..ServeSpec::default()
    };
    let report = serve(&config, &Scenario::b2_failover(2), &spec, &mut Off);
    let line = report.to_json_line();
    assert_key_order(&line, &TOP_LEVEL_KEYS);
    assert_key_order(
        &line,
        &[
            "\"scale_events\":[",
            "\"at_sec\":",
            "\"kind\":\"fail\"",
            "\"shard\":",
            "\"active_after\":",
        ],
    );
}

#[test]
fn simulated_qos_reports_render_with_the_golden_key_order() {
    let spec = ServeSpec {
        scheduler: SchedulerKind::PriorityByBranch,
        admission: AdmissionKind::BudgetAware,
        ..ServeSpec::default()
    };
    let config = FleetConfig::uniform(one_branch_model(), 1);
    let report = serve(&config, &Scenario::b2_qos(), &spec, &mut Off);
    let line = report.to_json_line();
    assert_key_order(&line, &TOP_LEVEL_KEYS);
    assert_key_order(
        &line,
        &[
            "\"admission\":\"budget_aware\"",
            "\"slo_attainment\":",
            "\"classes\":[",
            "\"weight\":",
            "\"shed\":",
        ],
    );
}
