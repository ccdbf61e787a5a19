//! Serving-run reports: throughput, utilization, drops and latency
//! percentiles, per accelerator and per branch.

use crate::autoscale::ShardState;
use crate::cast::{u64_to_f64, usize_to_u64};
use crate::histogram::LatencyHistogram;
use crate::json::{array, JsonObject};
use crate::qos::QosClass;
use fcad_obs::{FleetEvent, TraceSummary};

/// Latency summary extracted from a fixed-bucket histogram, milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Maximum observed latency.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Reads the summary out of a histogram.
    pub fn of(histogram: &LatencyHistogram) -> Self {
        Self {
            p50_ms: histogram.percentile_ms(50.0),
            p95_ms: histogram.percentile_ms(95.0),
            p99_ms: histogram.percentile_ms(99.0),
            mean_ms: histogram.mean_ms(),
            max_ms: histogram.max_ms(),
        }
    }
}

/// Serving statistics of one branch.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchServeStats {
    /// Branch name.
    pub name: String,
    /// Effective priority weight the run used for this branch.
    pub priority: f64,
    /// Requests issued for this branch.
    pub issued: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped at admission (queue full).
    pub dropped: u64,
    /// Requests lost to shard failure (orphaned by a dead shard and not
    /// admitted by the balancer's re-placement pick, or arriving while no
    /// shard was placeable).
    pub lost: u64,
    /// Requests shed by the admission policy (0 under admit-all).
    pub shed: u64,
    /// Requests retired in-queue by the deadline policy (0 when the
    /// policy is off — every legacy path).
    pub expired: u64,
    /// Latency summary over completed requests.
    pub latency: LatencySummary,
}

/// Serving statistics of one QoS class, scored against its own budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassServeStats {
    /// The class.
    pub class: QosClass,
    /// The class's latency budget (its SLO), milliseconds.
    pub budget_ms: f64,
    /// The class's scheduling weight.
    pub weight: f64,
    /// Requests issued by sessions of this class.
    pub issued: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped at a full queue.
    pub dropped: u64,
    /// Requests lost to shard failure.
    pub lost: u64,
    /// Requests shed by the admission policy.
    pub shed: u64,
    /// Requests of this class retired in-queue by the deadline policy.
    pub expired: u64,
    /// Fraction of this class's completed requests that finished within
    /// the class budget. A class that issued traffic but completed
    /// nothing scores 0.0; only a class with no traffic at all scores a
    /// vacuous 1.0.
    pub slo_attainment: f64,
    /// Latency summary over this class's completed requests.
    pub latency: LatencySummary,
}

/// Serving statistics of one fleet shard (one accelerator device).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Requests the balancer routed to this shard (admitted + dropped).
    pub issued: u64,
    /// Requests this shard completed.
    pub completed: u64,
    /// Requests dropped at this shard's full queue.
    pub dropped: u64,
    /// Requests the admission policy shed at this shard's front door.
    pub shed: u64,
    /// Requests retired from this shard's queue by the deadline policy.
    pub expired: u64,
    /// The shard's lifecycle state at the end of the run (every shard of
    /// a fixed fleet stays active).
    pub state: ShardState,
    /// This shard's busy time over the fleet makespan (1.0 = busy the
    /// whole run).
    pub utilization: f64,
    /// Latency summary over this shard's completed requests.
    pub latency: LatencySummary,
}

/// The outcome of one serving simulation: one scenario, one scheduler, one
/// fleet of accelerator shards (a single device is the one-shard fleet).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scenario name.
    pub scenario: String,
    /// Scheduling discipline name.
    pub scheduler: String,
    /// Load-balancing policy name (`round_robin` for a single device,
    /// where every policy is equivalent).
    pub balancer: String,
    /// Scenario seed (same seed + same scenario ⇒ identical report).
    pub seed: u64,
    /// Concurrent avatar sessions.
    pub sessions: usize,
    /// Requests issued by the generators.
    pub issued: u64,
    /// Requests completed by the accelerator.
    pub completed: u64,
    /// Requests dropped at admission.
    pub dropped: u64,
    /// `dropped / issued` (0 when nothing was issued).
    pub drop_rate: f64,
    /// Time from simulation start (t = 0) to the last completion,
    /// seconds.
    pub makespan_sec: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Mean shard occupancy over the makespan (1.0 = every shard busy the
    /// whole run).
    pub utilization: f64,
    /// Busy-time imbalance across the fleet:
    /// `(max − min) / mean` shard busy time, 0 for a single shard or an
    /// idle fleet. 0 means perfectly even work; 1 means the busiest shard
    /// did a full mean-share more work than the idlest.
    pub imbalance: f64,
    /// Latency summary over all completed requests (the merge of every
    /// shard's histogram).
    pub latency: LatencySummary,
    /// Per-branch statistics, in branch order, merged across shards.
    pub branches: Vec<BranchServeStats>,
    /// Per-shard statistics covering every shard that ever existed, in
    /// spawn order (one entry for a single device; autoscaled runs append
    /// spawned shards after the initial ones).
    pub shards: Vec<ShardStats>,
    /// Requests re-placed onto surviving shards after a failure (each
    /// migration counts once, so a twice-orphaned request counts twice).
    pub replaced: u64,
    /// Requests lost to shard failure: orphaned by a dead shard and not
    /// admitted by the balancer's re-placement pick, or arriving while no
    /// shard was placeable. Load-aware balancers steer re-placement to
    /// queues with space, so their losses mean real exhaustion; static
    /// policies (round-robin, branch-sharded) can lose requests while
    /// capacity remains elsewhere.
    pub lost: u64,
    /// `completed / issued` — the fraction of decode requests that made it
    /// out (1.0 for an empty run). `1 − availability` is the drop rate
    /// plus the loss rate.
    pub availability: f64,
    /// Latency of completions strictly before the first scheduled failure
    /// (all zeros when the run injects no failure).
    pub latency_pre_failure: LatencySummary,
    /// Latency of completions at or after the first scheduled failure
    /// (all zeros when the run injects no failure).
    pub latency_post_failure: LatencySummary,
    /// Fleet lifecycle log — spawns, warm-ups, drains, retirements and
    /// failures in time order, the same events a tracing run records;
    /// empty for a fixed fleet. Each event's `shard` indexes
    /// [`shards`](Self::shards): every `up` adds an alive shard, every
    /// `retire`/`fail` removes one, `warm` moves one to active.
    pub scale_events: Vec<FleetEvent>,
    /// Requests shed by the admission policy — the fourth terminal
    /// outcome: `completed + dropped + lost + shed == issued`. Always 0
    /// under admit-all (the legacy paths).
    pub shed: u64,
    /// Admission policy name (`admit_all` on the legacy paths).
    pub admission: String,
    /// Fraction of completed requests that finished within their class
    /// budget. A run that issued traffic but completed nothing scores
    /// 0.0; only a run with no traffic at all scores a vacuous 1.0. The
    /// SLO headline: policies are compared on this, not raw p99.
    pub slo_attainment: f64,
    /// Per-class statistics, in [`QosClass::all`] order (a classless run
    /// carries everything in the `standard` row).
    pub classes: Vec<ClassServeStats>,
    /// Requests retired in-queue by the deadline policy — the fifth
    /// terminal outcome, distinct from `shed` (rejected *before* the
    /// queue): `completed + dropped + lost + shed + expired == issued`.
    /// Always 0 when [`DeadlinePolicy::Off`](crate::DeadlinePolicy::Off)
    /// — every legacy path.
    pub expired: u64,
    /// Total fabric busy time summed over shards, microseconds — the
    /// denominator for SLO-per-busy-time comparisons.
    pub fabric_busy_us: u64,
    /// `slo_attainment` per second of fabric busy time — how much SLO a
    /// discipline buys per unit of fabric it burns (0 for an idle run).
    /// Culling expired work raises this even when raw attainment ties.
    pub slo_per_busy_sec: f64,
    /// Event counts of the trace captured alongside this run, when the
    /// caller attached a recording sink via [`with_trace_summary`]
    /// (`None` otherwise — the engine itself never sets it, so traced and
    /// untraced runs of the same scenario stay byte-identical).
    ///
    /// [`with_trace_summary`]: ServeReport::with_trace_summary
    pub trace_summary: Option<TraceSummary>,
}

impl ServeReport {
    /// Sanity invariant: every issued request is accounted for — in total
    /// (completed, dropped at a full queue, lost to failure, or shed by
    /// admission), per branch, per QoS class, and per shard. Every
    /// request is routed to exactly one shard's front door — lost
    /// requests to none — so shard totals also sum back to the fleet
    /// totals, and the class rows partition every fleet counter.
    pub fn conserves_requests(&self) -> bool {
        let sums = |f: fn(&ClassServeStats) -> u64| self.classes.iter().map(f).sum::<u64>();
        self.completed + self.dropped + self.lost + self.shed + self.expired == self.issued
            && self
                .branches
                .iter()
                .all(|b| b.completed + b.dropped + b.lost + b.shed + b.expired == b.issued)
            && self
                .classes
                .iter()
                .all(|c| c.completed + c.dropped + c.lost + c.shed + c.expired == c.issued)
            && sums(|c| c.issued) == self.issued
            && sums(|c| c.completed) == self.completed
            && sums(|c| c.dropped) == self.dropped
            && sums(|c| c.lost) == self.lost
            && sums(|c| c.shed) == self.shed
            && sums(|c| c.expired) == self.expired
            && self
                .shards
                .iter()
                .all(|s| s.completed + s.dropped + s.shed + s.expired == s.issued)
            && self.shards.iter().map(|s| s.issued).sum::<u64>() + self.lost == self.issued
            && self.shards.iter().map(|s| s.completed).sum::<u64>() == self.completed
    }

    /// Number of shards the run used.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Statistics of the branch with the given index.
    pub fn branch(&self, index: usize) -> Option<&BranchServeStats> {
        self.branches.get(index)
    }

    /// Statistics of one QoS class.
    pub fn class(&self, class: QosClass) -> Option<&ClassServeStats> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Attaches the summary of the trace recorded alongside this run, so
    /// the JSON line documents how many events the sink captured.
    pub fn with_trace_summary(mut self, summary: TraceSummary) -> Self {
        self.trace_summary = Some(summary);
        self
    }

    /// Renders the report as one machine-readable JSON line. New fields
    /// are only ever appended at the end of each object, so consumers that
    /// index existing keys (or cut the line positionally up to `shards`)
    /// keep working across format growth.
    pub fn to_json_line(&self) -> String {
        let branches: Vec<String> = self
            .branches
            .iter()
            .map(|b| {
                JsonObject::new()
                    .str("name", &b.name)
                    .f64("priority", b.priority)
                    .u64("issued", b.issued)
                    .u64("completed", b.completed)
                    .u64("dropped", b.dropped)
                    .f64("p50_ms", b.latency.p50_ms)
                    .f64("p99_ms", b.latency.p99_ms)
                    .f64("max_ms", b.latency.max_ms)
                    .u64("lost", b.lost)
                    .u64("shed", b.shed)
                    .u64("expired", b.expired)
                    .render()
            })
            .collect();
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                JsonObject::new()
                    .u64("issued", s.issued)
                    .u64("completed", s.completed)
                    .u64("dropped", s.dropped)
                    .f64("utilization", s.utilization)
                    .f64("p50_ms", s.latency.p50_ms)
                    .f64("p99_ms", s.latency.p99_ms)
                    .f64("max_ms", s.latency.max_ms)
                    .str("state", s.state.name())
                    .u64("shed", s.shed)
                    .u64("expired", s.expired)
                    .render()
            })
            .collect();
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                JsonObject::new()
                    .str("class", c.class.name())
                    .f64("budget_ms", c.budget_ms)
                    .f64("weight", c.weight)
                    .u64("issued", c.issued)
                    .u64("completed", c.completed)
                    .u64("dropped", c.dropped)
                    .u64("lost", c.lost)
                    .u64("shed", c.shed)
                    .f64("slo_attainment", c.slo_attainment)
                    .f64("p50_ms", c.latency.p50_ms)
                    .f64("p99_ms", c.latency.p99_ms)
                    .f64("max_ms", c.latency.max_ms)
                    .u64("expired", c.expired)
                    .render()
            })
            .collect();
        let scale_events: Vec<String> = self
            .scale_events
            .iter()
            .map(|e| {
                JsonObject::new()
                    .f64("at_sec", u64_to_f64(e.at_us) / 1e6)
                    .str("kind", e.kind.name())
                    .u64("shard", usize_to_u64(e.shard))
                    .u64("active_after", usize_to_u64(e.active_after))
                    .render()
            })
            .collect();
        let trace_summary = self.trace_summary.as_ref().map(|t| {
            JsonObject::new()
                .u64("events", t.events)
                .u64("request_events", t.request_events)
                .u64("batch_events", t.batch_events)
                .u64("fleet_events", t.fleet_events)
                .render()
        });
        let mut line = JsonObject::new()
            .str("scenario", &self.scenario)
            .str("scheduler", &self.scheduler)
            .str("balancer", &self.balancer)
            .u64("seed", self.seed)
            .u64("sessions", usize_to_u64(self.sessions))
            .u64("issued", self.issued)
            .u64("completed", self.completed)
            .u64("dropped", self.dropped)
            .f64("drop_rate", self.drop_rate)
            .f64("makespan_sec", self.makespan_sec)
            .f64("throughput_rps", self.throughput_rps)
            .f64("utilization", self.utilization)
            .f64("imbalance", self.imbalance)
            .f64("p50_ms", self.latency.p50_ms)
            .f64("p95_ms", self.latency.p95_ms)
            .f64("p99_ms", self.latency.p99_ms)
            .f64("mean_ms", self.latency.mean_ms)
            .f64("max_ms", self.latency.max_ms)
            .raw("branches", &array(&branches))
            .raw("shards", &array(&shards))
            .u64("replaced", self.replaced)
            .u64("lost", self.lost)
            .f64("availability", self.availability)
            .f64("pre_failure_p99_ms", self.latency_pre_failure.p99_ms)
            .f64("post_failure_p99_ms", self.latency_post_failure.p99_ms)
            .raw("scale_events", &array(&scale_events))
            .u64("shed", self.shed)
            .str("admission", &self.admission)
            .f64("slo_attainment", self.slo_attainment)
            .raw("classes", &array(&classes))
            .u64("expired", self.expired)
            .u64("fabric_busy_us", self.fabric_busy_us)
            .f64("slo_per_busy_sec", self.slo_per_busy_sec);
        // Optional tail: appended strictly after every unconditional key,
        // so untraced lines are byte-identical to the pre-tracing format.
        if let Some(trace) = trace_summary {
            line = line.raw("trace_summary", &trace);
        }
        line.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ServeReport {
        ServeReport {
            scenario: "a1_baseline".into(),
            scheduler: "batch".into(),
            balancer: "round_robin".into(),
            seed: 7,
            sessions: 1,
            issued: 10,
            completed: 9,
            dropped: 1,
            drop_rate: 0.1,
            makespan_sec: 1.0,
            throughput_rps: 9.0,
            utilization: 0.5,
            imbalance: 0.0,
            latency: LatencySummary::default(),
            branches: vec![BranchServeStats {
                name: "texture".into(),
                priority: 1.0,
                issued: 10,
                completed: 9,
                dropped: 1,
                lost: 0,
                shed: 0,
                expired: 0,
                latency: LatencySummary::default(),
            }],
            shards: vec![ShardStats {
                issued: 10,
                completed: 9,
                dropped: 1,
                shed: 0,
                expired: 0,
                state: ShardState::Active,
                utilization: 0.5,
                latency: LatencySummary::default(),
            }],
            replaced: 0,
            lost: 0,
            availability: 0.9,
            latency_pre_failure: LatencySummary::default(),
            latency_post_failure: LatencySummary::default(),
            scale_events: Vec::new(),
            shed: 0,
            admission: "admit_all".into(),
            slo_attainment: 1.0,
            classes: standard_only_classes(10, 9, 1, 0, 0),
            expired: 0,
            fabric_busy_us: 500_000,
            slo_per_busy_sec: 2.0,
            trace_summary: None,
        }
    }

    /// Class rows with everything in the `standard` row — the shape every
    /// classless run reports.
    fn standard_only_classes(
        issued: u64,
        completed: u64,
        dropped: u64,
        lost: u64,
        shed: u64,
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
                    shed: if hit { shed } else { 0 },
                    expired: 0,
                    slo_attainment: 1.0,
                    latency: LatencySummary::default(),
                }
            })
            .collect()
    }

    #[test]
    fn conservation_checks_totals_and_branches() {
        let mut r = report();
        assert!(r.conserves_requests());
        r.completed = 8;
        assert!(!r.conserves_requests());
    }

    #[test]
    fn json_line_is_single_line_and_carries_key_fields() {
        let line = report().to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        for key in [
            "\"scenario\":\"a1_baseline\"",
            "\"scheduler\":\"batch\"",
            "\"balancer\":\"round_robin\"",
            "\"issued\":10",
            "\"p99_ms\":",
            "\"imbalance\":",
            "\"branches\":[{",
            "\"shards\":[{",
            "\"replaced\":0",
            "\"lost\":0",
            "\"availability\":0.9000",
            "\"scale_events\":[]",
            "\"state\":\"active\"",
            "\"shed\":0",
            "\"admission\":\"admit_all\"",
            "\"slo_attainment\":1.0000",
            "\"classes\":[{\"class\":\"interactive\"",
            "\"budget_ms\":400.0000",
            "\"weight\":0.2500",
            "\"expired\":0",
            "\"fabric_busy_us\":500000",
            "\"slo_per_busy_sec\":2.0000",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    #[test]
    fn conservation_also_checks_the_shard_totals() {
        let mut r = report();
        r.shards[0].completed = 8;
        assert!(!r.conserves_requests(), "shard totals must be checked");
        let mut split = report();
        split.shards[0].issued = 4;
        assert!(
            !split.conserves_requests(),
            "shard issued counts must sum to the fleet total"
        );
    }

    #[test]
    fn conservation_accounts_lost_requests_outside_the_shards() {
        // A request lost at failure belongs to no shard's front door: the
        // fleet totals carry it, the shard sums run `lost` short.
        let mut r = report();
        r.issued = 12;
        r.lost = 2;
        r.branches[0].issued = 12;
        r.branches[0].lost = 2;
        r.classes[1].issued = 12;
        r.classes[1].lost = 2;
        assert!(r.conserves_requests());
        r.lost = 1;
        assert!(!r.conserves_requests(), "fleet lost must match the books");
    }

    #[test]
    fn availability_fields_render_after_the_shard_section() {
        let line = report().to_json_line();
        let shards_at = line.find("\"shards\":[").expect("shards key");
        for key in [
            "\"replaced\":",
            "\"lost\":0,\"availability\":",
            "\"pre_failure_p99_ms\":",
            "\"post_failure_p99_ms\":",
            "\"scale_events\":",
        ] {
            let at = line.rfind(key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(at > shards_at, "{key} must render after the shard list");
        }
    }

    #[test]
    fn qos_fields_render_after_the_availability_tail() {
        // Append-only growth: the QoS section comes after everything the
        // availability refactor appended.
        let line = report().to_json_line();
        let events_at = line.rfind("\"scale_events\":").expect("scale_events");
        for key in ["\"admission\":", "\"slo_attainment\":", "\"classes\":["] {
            let at = line.rfind(key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(at > events_at, "{key} must render after the event log");
        }
    }

    #[test]
    fn conservation_checks_the_class_partition() {
        // Class rows must partition every fleet counter…
        let mut r = report();
        r.classes[1].issued = 9;
        r.classes[1].completed = 8;
        assert!(!r.conserves_requests(), "class sums must match the totals");
        // …and balance internally.
        let mut r = report();
        r.classes[1].completed = 8;
        r.classes[0].completed = 1;
        assert!(
            !r.conserves_requests(),
            "per-class books must balance even when the sums do"
        );
        // Shed requests are part of the partition.
        let mut r = report();
        r.issued = 12;
        r.shed = 2;
        r.branches[0].issued = 12;
        r.branches[0].shed = 2;
        r.shards[0].issued = 12;
        r.shards[0].shed = 2;
        r.classes[1].issued = 12;
        r.classes[1].shed = 2;
        assert!(r.conserves_requests());
        r.shards[0].shed = 1;
        assert!(!r.conserves_requests(), "shard shed must match its books");
    }

    #[test]
    fn conservation_checks_the_fifth_outcome() {
        // Expired requests balance the books at every level…
        let mut r = report();
        r.issued = 12;
        r.expired = 2;
        r.branches[0].issued = 12;
        r.branches[0].expired = 2;
        r.shards[0].issued = 12;
        r.shards[0].expired = 2;
        r.classes[1].issued = 12;
        r.classes[1].expired = 2;
        assert!(r.conserves_requests());
        // …and every level is audited independently.
        r.shards[0].expired = 1;
        assert!(
            !r.conserves_requests(),
            "shard expired must match its books"
        );
        let mut r = report();
        r.expired = 1;
        assert!(
            !r.conserves_requests(),
            "fleet expired must match the books"
        );
    }

    #[test]
    fn deadline_fields_render_after_the_qos_tail() {
        // Append-only growth: the deadline section comes after everything
        // the QoS refactor appended, and before the optional trace tail.
        let line = report().to_json_line();
        let classes_at = line.rfind("\"classes\":[").expect("classes");
        for key in ["\"expired\":0,\"fabric_busy_us\":", "\"slo_per_busy_sec\":"] {
            let at = line.rfind(key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(at > classes_at, "{key} must render after the class list");
        }
        assert!(line.ends_with("\"slo_per_busy_sec\":2.0000}"));
    }

    #[test]
    fn trace_summary_is_absent_by_default_and_renders_last() {
        let line = report().to_json_line();
        assert!(
            !line.contains("trace_summary"),
            "untraced reports must not mention the trace at all"
        );
        let traced = report()
            .with_trace_summary(TraceSummary {
                events: 42,
                request_events: 30,
                batch_events: 10,
                fleet_events: 2,
            })
            .to_json_line();
        assert!(traced.ends_with(
            "\"trace_summary\":{\"events\":42,\"request_events\":30,\
             \"batch_events\":10,\"fleet_events\":2}}"
        ));
    }

    #[test]
    fn class_lookup_finds_each_row() {
        let r = report();
        assert_eq!(
            r.class(QosClass::Standard).expect("standard row").issued,
            10
        );
        assert_eq!(
            r.class(QosClass::Interactive)
                .expect("interactive row")
                .issued,
            0
        );
    }
}
