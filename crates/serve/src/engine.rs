//! The deterministic discrete-event serving loop, from one accelerator to
//! a lifecycle-driven fleet of them, and its one front door: [`serve`]
//! under a [`ServeSpec`].
//!
//! Each shard is one accelerator serving its admitted sessions
//! time-multiplexed (Table V of the paper scales a single decoder
//! accelerator to 1/3/5 concurrent avatars). Each codec-avatar session
//! decodes with its own identity-specific weights, so a dispatch pays the
//! branch's fill time (weight streaming plus pipeline refill) before its
//! batch computes: `service = fill + batch × frame_time`. That fill term is
//! exactly where the disciplines differ — FIFO pays it on every request,
//! priority-by-branch spends it on the visual branches first, and batch
//! aggregation amortizes it over the DSE-chosen batch size.
//!
//! Events come from three sources, each already in its own order:
//! arrivals are drawn one at a time from the scenario's lazy arrival
//! stream, so no whole-trace vector is ever built; fleet *lifecycle*
//! events (scheduled failures, forced drains, warm-up completions, idle
//! checks) wait in a min-heap ordered by `(time, rank, push order)`; and
//! each shard's next dispatch waits in a min-heap ordered by
//! `(time, shard)`. [`EngineCore::next_event`] takes the earliest of the
//! three heads, and the lane order breaks a tie on the instant:
//! lifecycle events first (a shard that dies at `t` cannot admit the
//! arrival at `t`), then arrivals, then dispatches, lowest shard first —
//! so the whole simulation is a deterministic function of its inputs,
//! and bit-identical to the frozen linear-scan loop in
//! [`crate::reference`] (the equivalence battery pins this). Dispatch
//! entries are *lazily invalidated*: each shard carries an epoch that
//! bumps whenever its dispatch instant could have changed, and stale
//! entries are discarded when they reach the head.
//! Admission happens in arrival order against the chosen shard's live
//! state: the balancer picks among the *placeable* shards, the admission
//! policy accepts or sheds the request at that shard's front door, and
//! the shard's bounded queue takes the drop. Static fleets under a
//! load-oblivious balancer (round-robin, branch-sharded) additionally
//! skip the per-arrival placeable scan entirely — placement is O(1)
//! arithmetic until the first lifecycle event or spawn.
//!
//! [`serve`] drives this core through [`crate::window`]: one
//! [`EngineCore::step`] per event through every span that couples shards,
//! shard-local windows between them. The fixed fleet is the default
//! [`ServeSpec`] — [`Autoscaler::none`] and [`FailurePlan::none`], where
//! no lifecycle event ever fires and every shard stays
//! [`ShardState::Active`](crate::ShardState::Active) — and the single
//! device ([`simulate`]) is the one-shard fleet.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use fcad_obs::{
    BatchEvent, FleetEvent, FleetEventKind, Off, RequestEventKind, TraceEvent, TraceSink,
};

use crate::admission::{admit_traced, AdmissionKind, AdmissionView};
use crate::autoscale::{Autoscaler, FailurePlan, KillTarget, ShardState};
use crate::cast::{u64_to_f64, u64_to_usize, usize_to_f64, usize_to_u64};
use crate::deadline::DeadlinePolicy;
use crate::fleet::{Balancer, FleetConfig, LoadBalancerKind, ShardLoad};
use crate::histogram::LatencyHistogram;
use crate::model::ServiceModel;
use crate::qos::{QosClass, CLASS_COUNT};
use crate::report::{BranchServeStats, ClassServeStats, LatencySummary, ServeReport, ShardStats};
use crate::request::Request;
use crate::scenario::{Arrivals, Scenario};
use crate::scheduler::{Queue, SchedulerKind};
use crate::window::{drive, WindowPlan};

/// The window length [`serve`] runs at. On a 2-core host, 100 ms windows
/// ran the autoscaled 100k-session metropolis at one worker 7–12% slower
/// than 400 ms.
const SERVE_WINDOW_US: u64 = 400_000;

/// Everything about a serving run except the fleet and the traffic: the
/// policy on each axis and the worker count. [`Default`] is the legacy
/// run — batch aggregation, admit-all, no expiry culling, a fixed fleet
/// with no failures, one worker.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Dispatch discipline of every shard, spawned ones included.
    pub scheduler: SchedulerKind,
    /// Policy consulted at each shard's front door; rejected requests are
    /// counted `shed`.
    pub admission: AdmissionKind,
    /// Whether requests whose latency budget ran out while queued retire
    /// as `expired` at dispatch instead of being served.
    pub deadline: DeadlinePolicy,
    /// Scales the fleet at runtime: spawned shards clone shard 0's
    /// service model and pay the warm-up fill before serving.
    pub autoscaler: Autoscaler,
    /// Kills shards mid-run; their queued requests re-place through the
    /// live balancer or are counted `lost`.
    pub failures: FailurePlan,
    /// Workers for the shard-local windows, the calling thread included
    /// (`0` counts as `1`). Never changes the report.
    pub workers: usize,
}

impl Default for ServeSpec {
    fn default() -> Self {
        Self {
            scheduler: SchedulerKind::BatchAggregating,
            admission: AdmissionKind::AdmitAll,
            deadline: DeadlinePolicy::Off,
            autoscaler: Autoscaler::none(),
            failures: FailurePlan::none(),
            workers: 1,
        }
    }
}

/// Runs `scenario` against the fleet `config` under `spec`, delivering
/// every engine event to `sink` (pass [`Off`] to record nothing).
///
/// The engine chooses the execution path: shard-local spans run as
/// 400 ms windows on `spec.workers` workers, and everything that couples
/// shards (lifecycle events, the queue-depth autoscale trigger,
/// load-aware placement) steps sequentially. Identical inputs produce a
/// byte-identical report and trace stream at every worker count, and any
/// sink produces the report the [`Off`] sink does.
pub fn serve(
    config: &FleetConfig,
    scenario: &Scenario,
    spec: &ServeSpec,
    sink: &mut dyn TraceSink,
) -> ServeReport {
    serve_counted(config, scenario, spec, sink).0
}

/// [`serve`], with the [`WorkCounts`] of the run beside its report.
pub(crate) fn serve_counted(
    config: &FleetConfig,
    scenario: &Scenario,
    spec: &ServeSpec,
    sink: &mut dyn TraceSink,
) -> (ServeReport, WorkCounts) {
    let plan = WindowPlan::new(spec.workers).with_window_us(SERVE_WINDOW_US);
    drive(config, scenario, spec, sink, &plan)
}

/// The work a run did, counted where it happens: a deterministic function
/// of the run's inputs, kept beside the report and never inside its
/// bytes. Only `tallies` depends on the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkCounts {
    /// Events processed one at a time by [`EngineCore::step`].
    pub(crate) steps: usize,
    /// Windows that cleared the fan-out threshold and ran.
    pub(crate) windows: usize,
    /// Events processed inside those windows.
    pub(crate) window_events: usize,
    /// Arrivals and orphans placed through the dense snapshot.
    pub(crate) dense_placed: usize,
    /// Shards read by cross-shard code: window-edge re-sums and dispatch
    /// refreshes, placeable rebuilds and collections, seeded-kill scans.
    pub(crate) shard_reads: usize,
    /// [`Tally`]s built.
    pub(crate) tallies: usize,
    /// Pushes onto the lifecycle and dispatch heaps.
    pub(crate) calendar_pushes: usize,
    /// Stale dispatch entries discarded at the dispatch heap's head.
    pub(crate) stale_pops: usize,
}

/// [`serve`] on a single accelerator `model` under the discipline `kind`,
/// every other axis at its [`ServeSpec::default`].
pub fn simulate(model: &ServiceModel, scenario: &Scenario, kind: SchedulerKind) -> ServeReport {
    let spec = ServeSpec {
        scheduler: kind,
        ..ServeSpec::default()
    };
    serve(
        &FleetConfig::uniform(model.clone(), 1),
        scenario,
        &spec,
        &mut Off,
    )
}

/// The lane of shard lifecycle events, which win every same-instant tie.
pub(crate) const LANE_LIFECYCLE: u8 = 0;
/// The lane of arrivals, which win same-instant ties against dispatches.
pub(crate) const LANE_ARRIVAL: u8 = 1;
/// The lane of shard dispatches, which lose every same-instant tie.
pub(crate) const LANE_DISPATCH: u8 = 2;

/// A fleet lifecycle action against a shard.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Action {
    Fail(KillTarget),
    Drain,
    Warm,
    IdleCheck,
}

impl Action {
    fn rank(&self) -> u8 {
        match self {
            Action::Fail(_) => 0,
            Action::Drain => 1,
            Action::Warm => 2,
            Action::IdleCheck => 3,
        }
    }
}

/// A pending lifecycle event. The derived order is the frozen loop's
/// `(at_us, rank, seq)`: failures before drains before warm-ups before
/// idle checks at the same instant, push order last. `seq` is unique, so
/// the order never reaches `shard` or `action`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct LifeEvent {
    pub(crate) at_us: u64,
    rank: u8,
    seq: u64,
    shard: usize,
    action: Action,
}

/// One shard's full runtime state: its service model, scheduler, lifecycle
/// phase, fabric timing and serving statistics. `free_at_us` is the
/// instant the shard's fabric frees — its last dispatch completion or
/// weight-refill end, which is why the makespan reads straight off it;
/// `pending_since_us` is the arrival instant that made its queue non-empty
/// (a shard with queued work dispatches at `max(free_at, pending_since)`).
pub(crate) struct Shard {
    pub(crate) model: ServiceModel,
    pub(crate) scheduler: Queue,
    pub(crate) phase: ShardState,
    pub(crate) free_at_us: u64,
    pub(crate) pending_since_us: u64,
    pub(crate) busy_us: u64,
    /// The queued backlog split by QoS class (each request at its
    /// unbatched single-request cost) — the admission policy's view
    /// of how much work that can outrank a new arrival it waits behind.
    /// Its sum is the backlog the load-aware balancers read.
    pub(crate) class_backlog_us: [u64; CLASS_COUNT],
    /// Highest branch priority of this shard's model (fixed for the
    /// run), feeding the admission projection's worst-case score.
    pub(crate) max_priority: f64,
    /// Per-branch single-request service cost, resolved once at shard
    /// construction so the per-arrival admission view and the per-request
    /// backlog accounting are table lookups instead of recomputed
    /// `batch_service_us` calls.
    pub(crate) single_cost_us: Vec<u64>,
    /// Validity epoch for this shard's dispatch entry: bumped by
    /// [`EngineCore::refresh_dispatch`] whenever the dispatch instant
    /// could have changed; entries carrying an older epoch are stale and
    /// discarded when they reach the dispatch heap's head.
    pub(crate) dispatch_epoch: u64,
    pub(crate) issued: u64,
    pub(crate) completed: u64,
    pub(crate) dropped: u64,
    pub(crate) shed: u64,
    pub(crate) expired: u64,
    pub(crate) histogram: LatencyHistogram,
    /// Whether an idle check for this shard is already queued — one
    /// pending check per shard keeps the lifecycle event list from
    /// accumulating a duplicate per queue-emptying dispatch.
    pub(crate) idle_check_pending: bool,
}

impl Shard {
    pub(crate) fn new(model: ServiceModel, scheduler: Queue, phase: ShardState) -> Self {
        let max_priority = model
            .branches
            .iter()
            .map(|b| b.priority)
            .fold(0.0, f64::max);
        let single_cost_us = model.single_costs();
        Self {
            model,
            scheduler,
            phase,
            free_at_us: 0,
            pending_since_us: 0,
            busy_us: 0,
            class_backlog_us: [0; CLASS_COUNT],
            max_priority,
            single_cost_us,
            dispatch_epoch: 0,
            issued: 0,
            completed: 0,
            dropped: 0,
            shed: 0,
            expired: 0,
            histogram: LatencyHistogram::new(),
            idle_check_pending: false,
        }
    }

    fn admission_view(&self, capacity: usize, service_us: u64, branch: usize) -> AdmissionView {
        AdmissionView {
            queued: self.scheduler.queued(),
            capacity,
            free_at_us: self.free_at_us,
            class_backlog_us: self.class_backlog_us,
            service_us,
            priority: self.model.priority(branch),
            max_priority: self.max_priority,
        }
    }

    fn load(&self) -> ShardLoad {
        ShardLoad {
            queued: self.scheduler.queued(),
            free_at_us: self.free_at_us,
            backlog_us: self.class_backlog_us.iter().sum(),
        }
    }

    pub(crate) fn dispatch_at(&self) -> u64 {
        self.free_at_us.max(self.pending_since_us)
    }

    /// Queues `request` at `now_us`, charging its single-request cost to
    /// the backlog; a request entering an empty queue starts the wait the
    /// next dispatch is timed from.
    fn enqueue(&mut self, request: Request, now_us: u64) {
        if self.scheduler.queued() == 0 {
            self.pending_since_us = now_us;
        }
        let single_us = self.single_cost_us[request.branch];
        self.class_backlog_us[request.class.index()] += single_us;
        self.scheduler.enqueue(request);
    }

    /// Releases the backlog `request` was charged when it was queued here,
    /// once it leaves the queue served or culled.
    fn release(&mut self, request: &Request) {
        let single_us = self.single_cost_us[request.branch];
        let class = request.class.index();
        self.class_backlog_us[class] = self.class_backlog_us[class]
            .checked_sub(single_us)
            .expect("the class backlog holds the cost of every queued request of its class");
    }

    /// Takes `request` through this shard's front door at its arrival
    /// instant: counts it issued, then the `admission` policy may shed it,
    /// a full queue drops it, or it is queued. Tallies and traces the
    /// outcome; returns whether the request was queued.
    pub(crate) fn admit(
        &mut self,
        shard_id: usize,
        request: Request,
        capacity: usize,
        admission: AdmissionKind,
        tally: &mut Tally,
        sink: &mut dyn TraceSink,
    ) -> bool {
        let now_us = request.issued_at_us;
        let tracing = sink.enabled();
        let class = request.class.index();
        self.issued += 1;
        let single_us = self.single_cost_us[request.branch];
        let view = self.admission_view(capacity, single_us, request.branch);
        if !admit_traced(admission, &request, &view, now_us, shard_id, sink, tracing) {
            tally.shed[request.branch] += 1;
            tally.class_shed[class] += 1;
            self.shed += 1;
            return false;
        }
        if self.scheduler.queued() >= capacity {
            tally.dropped[request.branch] += 1;
            tally.class_dropped[class] += 1;
            self.dropped += 1;
            if tracing {
                sink.record(request.trace(now_us, Some(shard_id), RequestEventKind::Drop));
            }
            return false;
        }
        self.enqueue(request, now_us);
        if tracing {
            sink.record(request.trace(now_us, Some(shard_id), RequestEventKind::Enqueue));
        }
        true
    }

    /// Dispatches this shard's next batch at `now_us`. Under
    /// [`DeadlinePolicy::CullExpired`], popped requests whose deadline
    /// already passed while they queued retire as `expired` instead of
    /// being served; culling costs no fabric time, so a fully-dead batch
    /// is followed by another pop at the same instant. The served batch
    /// occupies the fabric for its service time and every request in it
    /// completes at the end of it.
    ///
    /// Returns the completion instant, or `None` when expiry drained the
    /// whole queue without touching the fabric.
    pub(crate) fn dispatch(
        &mut self,
        shard_id: usize,
        now_us: u64,
        deadline: DeadlinePolicy,
        split_us: Option<u64>,
        tally: &mut Tally,
        sink: &mut dyn TraceSink,
    ) -> Option<u64> {
        let tracing = sink.enabled();
        let batch = loop {
            let mut popped = self.scheduler.next_batch(&self.model, now_us);
            debug_assert!(!popped.is_empty(), "scheduler returned an empty batch");
            if deadline.culls() {
                popped.retain(|request| {
                    if now_us <= request.deadline_us() {
                        return true;
                    }
                    self.release(request);
                    self.expired += 1;
                    tally.expired[request.branch] += 1;
                    tally.class_expired[request.class.index()] += 1;
                    if tracing {
                        sink.record(request.trace(
                            now_us,
                            Some(shard_id),
                            RequestEventKind::Expired,
                        ));
                    }
                    false
                });
            }
            if !popped.is_empty() || self.scheduler.queued() == 0 {
                break popped;
            }
        };
        self.pending_since_us = 0;
        if batch.is_empty() {
            return None;
        }
        let branch = batch[0].branch;
        debug_assert!(batch.iter().all(|r| r.branch == branch));
        let service_us = self.model.batch_service_us(branch, batch.len());
        let done_us = now_us
            .checked_add(service_us)
            .expect("a batch completes within the u64 microsecond clock");
        self.busy_us += service_us;
        if tracing {
            sink.record(TraceEvent::Batch(BatchEvent {
                at_us: now_us,
                shard: shard_id,
                branch,
                len: batch.len(),
                service_us,
            }));
        }
        for request in &batch {
            let latency_us = request.latency_us(done_us);
            if tracing {
                sink.record(request.trace(now_us, Some(shard_id), RequestEventKind::ServiceStart));
                sink.record(request.trace(
                    done_us,
                    Some(shard_id),
                    RequestEventKind::Complete { latency_us },
                ));
            }
            let class = request.class.index();
            tally.branch_histograms[request.branch].record(latency_us);
            tally.completed[request.branch] += 1;
            tally.class_histograms[class].record(latency_us);
            tally.class_completed[class] += 1;
            if request.meets_slo(done_us) {
                tally.within_budget[class] += 1;
            }
            if let Some(split) = split_us {
                if done_us < split {
                    tally.pre_failure.record(latency_us);
                } else {
                    tally.post_failure.record(latency_us);
                }
            }
            self.histogram.record(latency_us);
            self.completed += 1;
            self.release(request);
        }
        self.free_at_us = done_us;
        Some(done_us)
    }
}

/// Shards per lifecycle phase, indexed by [`phase_slot`].
type PhaseCounts = [usize; 5];

/// `phase`'s index into [`PhaseCounts`].
fn phase_slot(phase: ShardState) -> usize {
    match phase {
        ShardState::Warming => 0,
        ShardState::Active => 1,
        ShardState::Draining => 2,
        ShardState::Retired => 3,
        ShardState::Failed => 4,
    }
}

/// Counts `shards` per lifecycle phase by a full scan.
fn count_phases(shards: &[Shard]) -> PhaseCounts {
    let mut counts = PhaseCounts::default();
    for shard in shards {
        counts[phase_slot(shard.phase)] += 1;
    }
    counts
}

/// The steppable engine: the run's whole state, advanced one event at a
/// time by [`EngineCore::step`] or one shard-local window at a time by
/// [`EngineCore::run_window`] — the driver ([`crate::window`]) picks
/// which. The arrival and dispatch arms keep only the cross-shard work;
/// what happens on the shard itself is [`Shard::admit`] and
/// [`Shard::dispatch`], shared with the windows.
pub(crate) struct EngineCore<'b> {
    pub(crate) scenario: &'b Scenario,
    pub(crate) balancer_kind: LoadBalancerKind,
    pub(crate) spec: &'b ServeSpec,
    pub(crate) sink: &'b mut dyn TraceSink,
    pub(crate) tracing: bool,
    /// The scenario's arrival stream, drawn in arrival order. Private:
    /// every draw goes through [`EngineCore::draw_before`], which counts
    /// the request issued.
    arrivals: Arrivals<'b>,
    /// Arrivals drawn ahead of the engine while [`EngineCore::run_window`]
    /// weighs a window against the plan's fan-out threshold: never more
    /// than that threshold, and empty whenever a window runs.
    pub(crate) lookahead: VecDeque<Request>,
    /// Per-shard arrival buffers of the current window, reused across
    /// windows. A window buffers at most its arrival cap (16,384, or 64
    /// per shard above 256 shards) plus the rest of the last arrival's
    /// instant, so the buffers stay cache-sized.
    pub(crate) window_arrivals: Vec<Vec<Request>>,
    pub(crate) shards: Vec<Shard>,
    /// Shards per lifecycle phase: written only by
    /// [`EngineCore::set_phase`] and [`EngineCore::spawn`], so fleet
    /// counts are reads rather than scans of `shards`.
    phase_counts: PhaseCounts,
    pub(crate) balancer: Balancer,
    pub(crate) capacity: usize,
    /// Pending lifecycle events, earliest first.
    pub(crate) life: BinaryHeap<Reverse<LifeEvent>>,
    /// The `seq` of the next lifecycle event pushed.
    life_seq: u64,
    /// Dispatch entries `(at_us, shard, epoch)`, earliest first and lowest
    /// shard first at one instant. An entry is live while `epoch` is its
    /// shard's [`Shard::dispatch_epoch`]; each shard has at most one live
    /// entry.
    pub(crate) dispatches: BinaryHeap<Reverse<(u64, usize, u64)>>,
    pub(crate) split_us: Option<u64>,
    pub(crate) last_scale_up: Option<u64>,
    /// Requests sitting in shard queues, fleet-wide: the O(1) termination
    /// check (the frozen loop re-summed every shard per iteration).
    pub(crate) queued_total: usize,
    /// Requests sitting in Active shards' queues: the queue-depth
    /// trigger's O(1) read, kept where work enters or leaves an Active
    /// queue and re-summed at window edges.
    pub(crate) active_queued: usize,
    pub(crate) loads: Vec<(usize, ShardLoad)>,
    /// Load-oblivious placement fast path: round-robin and branch-sharded
    /// placement are pure cursor arithmetic over the *placeable-id
    /// snapshot* — no per-arrival placeable scan. The snapshot is
    /// piecewise static: any lifecycle event or spawn marks it dirty and
    /// the next arrival rebuilds it, so placement stays O(1) through the
    /// static segments *between* scale actions, not just before the first
    /// one.
    pub(crate) dense: bool,
    pub(crate) placeable_ids: Vec<usize>,
    pub(crate) placeable_dirty: bool,
    pub(crate) tally: Tally,
    /// One tally per extra window worker (worker 0 tallies into `tally`),
    /// kept across windows and absorbed once, by
    /// [`EngineCore::finish`]: nothing reads a tally before then, and
    /// every merge is an exact integer add.
    pub(crate) worker_tallies: Vec<Tally>,
    pub(crate) counts: WorkCounts,
}

impl<'b> EngineCore<'b> {
    pub(crate) fn new(
        config: &'b FleetConfig,
        scenario: &'b Scenario,
        spec: &'b ServeSpec,
        sink: &'b mut dyn TraceSink,
    ) -> Self {
        config.assert_valid();
        let branch_count = config.branch_count();
        let mut balancer = Balancer::new(config.balancer);
        balancer.reserve_sessions(scenario.sessions);
        let capacity = scenario.queue_capacity;
        let tracing = sink.enabled();

        let shards: Vec<Shard> = config
            .shards
            .iter()
            .map(|model| {
                let model = match &scenario.priorities {
                    Some(priorities) => model.clone().with_priorities(priorities),
                    None => model.clone(),
                };
                Shard::new(model, Queue::new(spec.scheduler), ShardState::Active)
            })
            .collect();

        let shard_count = shards.len();

        let mut core = Self {
            scenario,
            balancer_kind: config.balancer,
            spec,
            sink,
            tracing,
            arrivals: scenario.arrivals(branch_count),
            lookahead: VecDeque::new(),
            window_arrivals: Vec::new(),
            phase_counts: count_phases(&shards),
            shards,
            balancer,
            capacity,
            life: BinaryHeap::new(),
            life_seq: 0,
            dispatches: BinaryHeap::new(),
            split_us: spec.failures.first_kill_us(),
            last_scale_up: None,
            queued_total: 0,
            active_queued: 0,
            loads: Vec::with_capacity(shard_count),
            dense: matches!(
                config.balancer,
                LoadBalancerKind::RoundRobin | LoadBalancerKind::BranchSharded
            ),
            placeable_ids: (0..shard_count).collect(),
            placeable_dirty: false,
            tally: Tally::new(branch_count),
            worker_tallies: Vec::new(),
            counts: WorkCounts {
                tallies: 1,
                ..WorkCounts::default()
            },
        };
        for kill in spec.failures.kills() {
            let shard = match kill.target {
                KillTarget::Shard(s) => s,
                KillTarget::Seeded(_) => usize::MAX, // resolved at fire time
            };
            core.push_life(kill.at_us, shard, Action::Fail(kill.target));
        }
        let policy = &spec.autoscaler;
        for &(at_us, shard) in &policy.drains {
            core.push_life(at_us, shard, Action::Drain);
        }
        if policy.idle_retire_us > 0 {
            for shard in 0..shard_count {
                core.shards[shard].idle_check_pending = true;
                core.push_life(policy.idle_retire_us, shard, Action::IdleCheck);
            }
        }
        core
    }

    /// Schedules `action` against `shard` at `at_us`.
    fn push_life(&mut self, at_us: u64, shard: usize, action: Action) {
        self.counts.calendar_pushes += 1;
        self.life.push(Reverse(LifeEvent {
            at_us,
            rank: action.rank(),
            seq: self.life_seq,
            shard,
            action,
        }));
        self.life_seq += 1;
    }

    /// The number of shards in `phase`.
    pub(crate) fn shards_in(&self, phase: ShardState) -> usize {
        self.phase_counts[phase_slot(phase)]
    }

    /// The number of shards still in the fleet: the phases
    /// [`ShardState::is_alive`] accepts.
    fn alive_shards(&self) -> usize {
        self.shards_in(ShardState::Warming)
            + self.shards_in(ShardState::Active)
            + self.shards_in(ShardState::Draining)
    }

    /// Moves `shard` into `phase`. Every phase write goes through here
    /// (a spawned shard enters the counts in [`EngineCore::spawn`]), so
    /// the phase counts always equal a recount of `shards` —
    /// [`EngineCore::finish`] checks that in debug builds. A shard's
    /// queue joins the Active total as it warms and leaves it as it
    /// fails, drains or retires, before a failure drains it.
    fn set_phase(&mut self, shard: usize, phase: ShardState) {
        let old = std::mem::replace(&mut self.shards[shard].phase, phase);
        self.phase_counts[phase_slot(old)] -= 1;
        self.phase_counts[phase_slot(phase)] += 1;
        let queued = self.shards[shard].scheduler.queued();
        if old == ShardState::Active {
            self.active_queued -= queued;
        }
        if phase == ShardState::Active {
            self.active_queued += queued;
        }
    }

    /// Checks [`EngineCore::active_queued`] against a recount of
    /// `shards`, in debug builds.
    fn debug_check_active_queued(&self) {
        debug_assert_eq!(
            self.active_queued,
            self.shards
                .iter()
                .filter(|s| s.phase == ShardState::Active)
                .map(|s| s.scheduler.queued())
                .sum::<usize>(),
            "the Active queue total drifted"
        );
    }

    /// The instant a shard whose fabric frees at `free_us` becomes idle
    /// long enough to retire.
    fn idle_until(&self, free_us: u64) -> u64 {
        free_us
            .checked_add(self.spec.autoscaler.idle_retire_us)
            .expect("an idle check falls within the u64 microsecond clock")
    }

    /// Picks `request`'s shard among the [`placeable`] ones, or `None`
    /// when none is placeable. Round-robin and branch-sharded place over
    /// the placeable-id snapshot, rebuilt first if a lifecycle event
    /// dirtied it; the load-aware balancers read every placeable shard's
    /// live load.
    fn place(&mut self, request: &Request, now_us: u64) -> Option<usize> {
        if self.dense {
            if self.placeable_dirty {
                self.rebuild_placeable();
            }
            let placed = self.balancer.place_dense(request, &self.placeable_ids);
            self.counts.dense_placed += usize::from(placed.is_some());
            return placed;
        }
        self.counts.shard_reads += self.shards.len();
        collect_placeable(&mut self.loads, &self.shards);
        (!self.loads.is_empty()).then(|| {
            self.balancer
                .place(request, &self.loads, now_us, self.capacity)
        })
    }

    /// Invalidates `shard`'s dispatch entry (by bumping its epoch) and
    /// re-schedules it if the shard still has dispatchable work. Called
    /// after every mutation that can move a shard's dispatch instant:
    /// dispatch completion, enqueue into an empty queue, orphan
    /// re-placement (the repay fill moves `free_at_us` even with a
    /// non-empty queue), failure drain, warm-up completion and the window
    /// edge.
    pub(crate) fn refresh_dispatch(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        s.dispatch_epoch += 1;
        if s.phase.dispatches() && s.scheduler.queued() > 0 {
            self.counts.calendar_pushes += 1;
            self.dispatches
                .push(Reverse((s.dispatch_at(), shard, s.dispatch_epoch)));
        }
    }

    /// Rebuilds the placeable-id snapshot after a lifecycle event: the
    /// global ids of the [`placeable`] shards in ascending order, exactly
    /// the candidate set [`collect_placeable`] hands the general path.
    pub(crate) fn rebuild_placeable(&mut self) {
        self.counts.shard_reads += self.shards.len();
        self.placeable_ids.clear();
        self.placeable_ids.extend(placeable(&self.shards));
        self.placeable_dirty = false;
    }

    /// The next arrival, without drawing it.
    pub(crate) fn due_arrival(&self) -> Option<Request> {
        self.lookahead
            .front()
            .copied()
            .or_else(|| self.arrivals.peek())
    }

    /// Draws the stream's next arrival if it arrives strictly before
    /// `cap`, counting it issued against its branch and class.
    pub(crate) fn draw_before(&mut self, cap: u64) -> Option<Request> {
        let request = self.arrivals.next_before(cap)?;
        self.tally.issued[request.branch] += 1;
        self.tally.class_issued[request.class.index()] += 1;
        Some(request)
    }

    /// Takes the next arrival: the lookahead's head, which
    /// [`EngineCore::run_window`] drew before the cap of the window it
    /// weighed, or else a fresh draw strictly before `cap`.
    pub(crate) fn take_before(&mut self, cap: u64) -> Option<Request> {
        match self.lookahead.pop_front() {
            Some(request) => Some(request),
            None => self.draw_before(cap),
        }
    }

    /// The instant of the earliest live dispatch entry, discarding stale
    /// entries (superseded epochs) on the way.
    fn live_dispatch(&mut self) -> Option<u64> {
        while let Some(&Reverse((at_us, shard, epoch))) = self.dispatches.peek() {
            if epoch == self.shards[shard].dispatch_epoch {
                return Some(at_us);
            }
            self.counts.stale_pops += 1;
            self.dispatches.pop();
        }
        None
    }

    /// The earliest pending event as `(at_us, lane)`: the least of the
    /// lifecycle head, the next arrival and the live dispatch head, a tie
    /// on the instant going to the lower lane. `None` when the run is
    /// complete (no arrival pending and no request queued) — the frozen
    /// loop's termination condition, verbatim.
    pub(crate) fn next_event(&mut self) -> Option<(u64, u8)> {
        let arrival = self
            .due_arrival()
            .map(|request| (request.issued_at_us, LANE_ARRIVAL));
        if arrival.is_none() && self.queued_total == 0 {
            return None;
        }
        let life = self
            .life
            .peek()
            .map(|Reverse(event)| (event.at_us, LANE_LIFECYCLE));
        let dispatch = self.live_dispatch().map(|at_us| (at_us, LANE_DISPATCH));
        let next = life.into_iter().chain(arrival).chain(dispatch).min();
        debug_assert!(next.is_some(), "stranded queued work with no pending event");
        next
    }

    /// Processes the single earliest pending event. Returns `false` when
    /// the run is complete.
    pub(crate) fn step(&mut self) -> bool {
        let Some((now_us, lane)) = self.next_event() else {
            return false;
        };
        self.counts.steps += 1;
        match lane {
            LANE_LIFECYCLE => {
                let Reverse(event) = self.life.pop().expect("the lifecycle head was just peeked");
                self.life_event(now_us, event.shard, event.action);
                self.debug_check_active_queued();
            }
            LANE_ARRIVAL => {
                let request = self
                    .take_before(u64::MAX)
                    .expect("the due arrival was just peeked");
                self.arrival_event(request);
            }
            _ => {
                let Reverse((_, shard, _)) = self
                    .dispatches
                    .pop()
                    .expect("the live dispatch head was just peeked");
                self.dispatch_event(now_us, shard);
            }
        }
        true
    }

    fn life_event(&mut self, now_us: u64, life_shard: usize, action: Action) {
        self.placeable_dirty = true;
        match action {
            Action::Fail(target) => {
                let victim = match target {
                    KillTarget::Shard(s)
                        if s < self.shards.len() && self.shards[s].phase.is_alive() =>
                    {
                        Some(s)
                    }
                    KillTarget::Shard(_) => None,
                    KillTarget::Seeded(hash) => {
                        self.counts.shard_reads += self.shards.len();
                        let actives: Vec<usize> = (0..self.shards.len())
                            .filter(|&s| self.shards[s].phase == ShardState::Active)
                            .collect();
                        if actives.is_empty() {
                            None
                        } else {
                            Some(actives[u64_to_usize(hash % usize_to_u64(actives.len()))])
                        }
                    }
                };
                let Some(victim) = victim else { return };
                self.set_phase(victim, ShardState::Failed);
                self.log_scale_event(now_us, FleetEventKind::Fail, victim);
                let mut orphans: Vec<Request> = Vec::new();
                {
                    let dead = &mut self.shards[victim];
                    while dead.scheduler.queued() > 0 {
                        let batch = dead.scheduler.next_batch(&dead.model, now_us);
                        debug_assert!(!batch.is_empty(), "scheduler returned an empty batch");
                        orphans.extend(batch);
                    }
                    dead.class_backlog_us = [0; CLASS_COUNT];
                    dead.pending_since_us = 0;
                    dead.issued -= usize_to_u64(orphans.len());
                }
                self.queued_total -= orphans.len();
                self.refresh_dispatch(victim);
                let policy = &self.spec.autoscaler;
                let respawn_to = policy.min_shards.min(policy.max_shards);
                while self.alive_shards() < respawn_to {
                    self.spawn(now_us);
                }
                for request in orphans {
                    let placed = self
                        .place(&request, now_us)
                        .filter(|&dst| self.shards[dst].scheduler.queued() < self.capacity);
                    let Some(dst) = placed else {
                        self.tally.lost[request.branch] += 1;
                        self.tally.class_lost[request.class.index()] += 1;
                        if self.tracing {
                            self.sink.record(request.trace(
                                now_us,
                                None,
                                RequestEventKind::Lost { orphaned: true },
                            ));
                        }
                        continue;
                    };
                    {
                        let target = &mut self.shards[dst];
                        if target.phase != ShardState::Warming {
                            let fill = target.model.branches[request.branch].fill_time_us;
                            let refilled = target.free_at_us.max(now_us).checked_add(fill);
                            target.free_at_us = refilled.expect(
                                "a re-placement refill ends within the u64 microsecond clock",
                            );
                            target.busy_us += fill;
                        }
                        target.enqueue(request, now_us);
                        target.issued += 1;
                        if target.phase == ShardState::Active {
                            self.active_queued += 1;
                        }
                    }
                    self.queued_total += 1;
                    // Unconditional: the repay fill can move
                    // `free_at_us` even when the queue was
                    // already non-empty.
                    self.refresh_dispatch(dst);
                    self.balancer.note_admitted(request.session, dst);
                    self.tally.replaced += 1;
                    if self.tracing {
                        self.sink.record(request.trace(
                            now_us,
                            Some(dst),
                            RequestEventKind::Replace { from_shard: victim },
                        ));
                    }
                }
            }
            Action::Drain => {
                let shard = life_shard;
                if shard >= self.shards.len() || self.shards[shard].phase != ShardState::Active {
                    return;
                }
                let floor = self.spec.autoscaler.min_shards.max(1);
                if self.shards_in(ShardState::Active) <= floor {
                    return;
                }
                self.set_phase(shard, ShardState::Draining);
                self.log_scale_event(now_us, FleetEventKind::Drain, shard);
                if self.shards[shard].scheduler.queued() == 0 {
                    self.retire(now_us, shard);
                }
            }
            Action::Warm => {
                let shard = life_shard;
                if self.shards[shard].phase == ShardState::Warming {
                    self.set_phase(shard, ShardState::Active);
                    self.shards[shard].free_at_us = self.shards[shard].free_at_us.max(now_us);
                    self.log_scale_event(now_us, FleetEventKind::Warm, shard);
                    // The warm-up raised `free_at_us`, and the
                    // shard may have queued work placed while
                    // warming — it becomes dispatchable now.
                    self.refresh_dispatch(shard);
                }
            }
            Action::IdleCheck => {
                let shard = life_shard;
                if shard >= self.shards.len() {
                    return;
                }
                self.shards[shard].idle_check_pending = false;
                if self.shards[shard].phase != ShardState::Active
                    || self.shards[shard].scheduler.queued() > 0
                {
                    return;
                }
                let idle_until = self.idle_until(self.shards[shard].free_at_us);
                if idle_until > now_us {
                    self.shards[shard].idle_check_pending = true;
                    self.push_life(idle_until, shard, Action::IdleCheck);
                    return;
                }
                let floor = self.spec.autoscaler.min_shards.max(1);
                if self.shards_in(ShardState::Active) <= floor {
                    return;
                }
                self.retire(now_us, shard);
            }
        }
    }

    fn dispatch_event(&mut self, now_us: u64, shard: usize) {
        let s = &mut self.shards[shard];
        let queued_before = s.scheduler.queued();
        let done_us = s.dispatch(
            shard,
            now_us,
            self.spec.deadline,
            self.split_us,
            &mut self.tally,
            &mut *self.sink,
        );
        let removed = queued_before - s.scheduler.queued();
        self.queued_total -= removed;
        if s.phase == ShardState::Active {
            self.active_queued -= removed;
        }
        self.refresh_dispatch(shard);
        // The fabric frees when the batch completes, or right away when
        // expiry drained the whole queue; a shard left idle owes its drain
        // or idle-retirement housekeeping from that instant.
        let free_us = done_us.unwrap_or(now_us);
        let idle_retire_us = self.spec.autoscaler.idle_retire_us;
        let s = &mut self.shards[shard];
        if s.scheduler.queued() > 0 {
            return;
        }
        if s.phase == ShardState::Draining {
            self.retire(free_us, shard);
        } else if s.phase == ShardState::Active && idle_retire_us > 0 && !s.idle_check_pending {
            s.idle_check_pending = true;
            self.push_life(self.idle_until(free_us), shard, Action::IdleCheck);
        }
    }

    fn arrival_event(&mut self, request: Request) {
        let now_us = request.issued_at_us;
        let placed = self.place(&request, now_us);
        if self.tracing {
            self.sink
                .record(request.trace(now_us, placed, RequestEventKind::Arrival));
        }
        let Some(shard) = placed else {
            self.tally.lost[request.branch] += 1;
            self.tally.class_lost[request.class.index()] += 1;
            if self.tracing {
                self.sink.record(request.trace(
                    now_us,
                    None,
                    RequestEventKind::Lost { orphaned: false },
                ));
            }
            return;
        };
        let target = &mut self.shards[shard];
        if target.admit(
            shard,
            request,
            self.capacity,
            self.spec.admission,
            &mut self.tally,
            &mut *self.sink,
        ) {
            // A request queued alone makes the shard dispatchable.
            let into_empty = target.scheduler.queued() == 1;
            self.queued_total += 1;
            if target.phase == ShardState::Active {
                self.active_queued += 1;
            }
            self.balancer.note_admitted(request.session, shard);
            if into_empty {
                self.refresh_dispatch(shard);
            }
        }
        let policy = &self.spec.autoscaler;
        if policy.scale_up_queue_depth > 0 {
            let actives = self.shards_in(ShardState::Active);
            if actives > 0
                && self.active_queued >= policy.scale_up_queue_depth * actives
                && self.alive_shards() < policy.max_shards
                && self
                    .last_scale_up
                    .is_none_or(|t| now_us >= t.saturating_add(policy.cooldown_us))
            {
                self.spawn(now_us);
            }
        }
    }

    /// Spawns one warming shard cloned from shard 0's service model,
    /// schedules its warm-up completion (plus its first idle check) and
    /// restarts the trigger cooldown. The shard dispatches nothing until
    /// the `Warm` event fires — the warm-up handler raises `free_at_us` to
    /// the warm instant, so even work queued while warming cannot complete
    /// before the weight fill ends.
    fn spawn(&mut self, now_us: u64) {
        let spec = self.spec;
        let policy = &spec.autoscaler;
        let shard = self.shards.len();
        let template = self.shards[0].model.clone();
        self.shards.push(Shard::new(
            template,
            Queue::new(spec.scheduler),
            ShardState::Warming,
        ));
        self.phase_counts[phase_slot(ShardState::Warming)] += 1;
        let warm_at = now_us
            .checked_add(policy.warmup_us)
            .expect("a spawned shard warms within the u64 microsecond clock");
        self.push_life(warm_at, shard, Action::Warm);
        if policy.idle_retire_us > 0 {
            self.shards[shard].idle_check_pending = true;
            self.push_life(self.idle_until(warm_at), shard, Action::IdleCheck);
        }
        self.log_scale_event(now_us, FleetEventKind::Up, shard);
        self.placeable_dirty = true;
        self.last_scale_up = Some(now_us);
    }

    /// Decommissions a shard (from Draining, or straight from Active on
    /// idle retirement — its queue is already empty) and logs the
    /// retirement.
    fn retire(&mut self, at_us: u64, shard: usize) {
        self.set_phase(shard, ShardState::Retired);
        self.log_scale_event(at_us, FleetEventKind::Retire, shard);
    }

    /// Appends a fleet event with the post-event active-shard count to the
    /// report's log and, when tracing, records the same event as an
    /// instant on the trace timeline so fleet transitions line up with the
    /// request spans they explain.
    fn log_scale_event(&mut self, at_us: u64, kind: FleetEventKind, shard: usize) {
        let event = FleetEvent {
            at_us,
            shard,
            kind,
            active_after: self.shards_in(ShardState::Active),
        };
        self.tally.scale_events.push(event);
        if self.tracing {
            self.sink.record(TraceEvent::Fleet(event));
        }
    }

    /// Consumes the core: absorbs the window workers' tallies, then folds
    /// the per-shard state into the final report — the old loop's
    /// epilogue, verbatim — and returns it with the run's work counts.
    pub(crate) fn finish(mut self) -> (ServeReport, WorkCounts) {
        debug_assert_eq!(
            self.phase_counts,
            count_phases(&self.shards),
            "a shard changed phase outside set_phase"
        );
        self.debug_check_active_queued();
        for tally in &self.worker_tallies {
            self.tally.absorb(tally);
        }
        let report = finalize(
            self.scenario,
            self.balancer_kind.name(),
            self.spec.admission.name(),
            self.tally,
            &self.shards,
        );
        (report, self.counts)
    }
}

/// Fleet-wide accumulators: every per-branch / per-class / availability
/// counter and histogram that is not per-shard. All fields are
/// exact-merge (integer sums and fixed-bucket histogram adds), which is
/// what makes folding the windowed engine's per-worker tallies with
/// [`Tally::absorb`] bit-identical to the sequential run in any order.
pub(crate) struct Tally {
    pub(crate) issued: Vec<u64>,
    pub(crate) completed: Vec<u64>,
    pub(crate) dropped: Vec<u64>,
    pub(crate) lost: Vec<u64>,
    pub(crate) shed: Vec<u64>,
    pub(crate) expired: Vec<u64>,
    pub(crate) branch_histograms: Vec<LatencyHistogram>,
    pub(crate) class_issued: [u64; CLASS_COUNT],
    pub(crate) class_completed: [u64; CLASS_COUNT],
    pub(crate) class_dropped: [u64; CLASS_COUNT],
    pub(crate) class_lost: [u64; CLASS_COUNT],
    pub(crate) class_shed: [u64; CLASS_COUNT],
    pub(crate) class_expired: [u64; CLASS_COUNT],
    pub(crate) within_budget: [u64; CLASS_COUNT],
    pub(crate) class_histograms: [LatencyHistogram; CLASS_COUNT],
    pub(crate) pre_failure: LatencyHistogram,
    pub(crate) post_failure: LatencyHistogram,
    pub(crate) scale_events: Vec<FleetEvent>,
    pub(crate) replaced: u64,
}

impl Tally {
    pub(crate) fn new(branch_count: usize) -> Self {
        Self {
            issued: vec![0; branch_count],
            completed: vec![0; branch_count],
            dropped: vec![0; branch_count],
            lost: vec![0; branch_count],
            shed: vec![0; branch_count],
            expired: vec![0; branch_count],
            branch_histograms: (0..branch_count).map(|_| LatencyHistogram::new()).collect(),
            class_issued: [0; CLASS_COUNT],
            class_completed: [0; CLASS_COUNT],
            class_dropped: [0; CLASS_COUNT],
            class_lost: [0; CLASS_COUNT],
            class_shed: [0; CLASS_COUNT],
            class_expired: [0; CLASS_COUNT],
            within_budget: [0; CLASS_COUNT],
            class_histograms: std::array::from_fn(|_| LatencyHistogram::new()),
            pre_failure: LatencyHistogram::new(),
            post_failure: LatencyHistogram::new(),
            scale_events: Vec::new(),
            replaced: 0,
        }
    }

    /// Folds another tally into this one. Every merge is exact (integer
    /// addition, fixed-bucket histogram merge), so folding per-worker
    /// tallies reproduces the sequential loop's accumulators bit for bit.
    pub(crate) fn absorb(&mut self, other: &Tally) {
        for (mine, theirs) in self.issued.iter_mut().zip(&other.issued) {
            *mine += theirs;
        }
        for (mine, theirs) in self.completed.iter_mut().zip(&other.completed) {
            *mine += theirs;
        }
        for (mine, theirs) in self.dropped.iter_mut().zip(&other.dropped) {
            *mine += theirs;
        }
        for (mine, theirs) in self.lost.iter_mut().zip(&other.lost) {
            *mine += theirs;
        }
        for (mine, theirs) in self.shed.iter_mut().zip(&other.shed) {
            *mine += theirs;
        }
        for (mine, theirs) in self.expired.iter_mut().zip(&other.expired) {
            *mine += theirs;
        }
        for (mine, theirs) in self
            .branch_histograms
            .iter_mut()
            .zip(&other.branch_histograms)
        {
            mine.merge(theirs);
        }
        for index in 0..CLASS_COUNT {
            self.class_issued[index] += other.class_issued[index];
            self.class_completed[index] += other.class_completed[index];
            self.class_dropped[index] += other.class_dropped[index];
            self.class_lost[index] += other.class_lost[index];
            self.class_shed[index] += other.class_shed[index];
            self.class_expired[index] += other.class_expired[index];
            self.within_budget[index] += other.within_budget[index];
            self.class_histograms[index].merge(&other.class_histograms[index]);
        }
        self.pre_failure.merge(&other.pre_failure);
        self.post_failure.merge(&other.post_failure);
        self.scale_events.extend(other.scale_events.iter().cloned());
        self.replaced += other.replaced;
    }
}

/// Assembles the [`ServeReport`] from the run's accumulators — the exact
/// arithmetic (and floating-point operation order) of the frozen loop's
/// report tail. Shard 0's (priority-override-applied) service model
/// names the branches.
fn finalize(
    scenario: &Scenario,
    balancer_name: &str,
    admission_name: &str,
    mut tally: Tally,
    shards: &[Shard],
) -> ServeReport {
    tally.scale_events.sort_by_key(|e| e.at_us);

    let shard_count = shards.len();
    let total_issued: u64 = tally.issued.iter().sum();
    let total_completed: u64 = tally.completed.iter().sum();
    let total_dropped: u64 = tally.dropped.iter().sum();
    let total_lost: u64 = tally.lost.iter().sum();
    let total_shed: u64 = tally.shed.iter().sum();
    let total_expired: u64 = tally.expired.iter().sum();
    let total_within: u64 = tally.within_budget.iter().sum();
    let total_busy_us: u64 = shards.iter().map(|s| s.busy_us).sum();
    let makespan_us = shards.iter().map(|s| s.free_at_us).max().unwrap_or(0);
    let makespan_sec = u64_to_f64(makespan_us) / 1e6;
    let mut overall = LatencyHistogram::new();
    for shard in shards {
        overall.merge(&shard.histogram);
    }
    let branches = shards[0]
        .model
        .branches
        .iter()
        .enumerate()
        .map(|(index, service)| BranchServeStats {
            name: service.name.clone(),
            priority: service.priority,
            issued: tally.issued[index],
            completed: tally.completed[index],
            dropped: tally.dropped[index],
            lost: tally.lost[index],
            shed: tally.shed[index],
            expired: tally.expired[index],
            latency: LatencySummary::of(&tally.branch_histograms[index]),
        })
        .collect();
    let classes: Vec<ClassServeStats> = QosClass::all()
        .iter()
        .map(|class| {
            let index = class.index();
            ClassServeStats {
                class: *class,
                budget_ms: class.budget_ms(),
                weight: class.weight(),
                issued: tally.class_issued[index],
                completed: tally.class_completed[index],
                dropped: tally.class_dropped[index],
                lost: tally.class_lost[index],
                shed: tally.class_shed[index],
                expired: tally.class_expired[index],
                slo_attainment: attainment(
                    tally.within_budget[index],
                    tally.class_completed[index],
                    tally.class_issued[index],
                ),
                latency: LatencySummary::of(&tally.class_histograms[index]),
            }
        })
        .collect();
    let shard_stats: Vec<ShardStats> = shards
        .iter()
        .map(|s| ShardStats {
            issued: s.issued,
            completed: s.completed,
            dropped: s.dropped,
            shed: s.shed,
            expired: s.expired,
            state: s.phase,
            utilization: if makespan_us > 0 {
                u64_to_f64(s.busy_us) / u64_to_f64(makespan_us)
            } else {
                0.0
            },
            latency: LatencySummary::of(&s.histogram),
        })
        .collect();
    let imbalance = {
        let max = shards.iter().map(|s| s.busy_us).max().unwrap_or(0);
        let min = shards.iter().map(|s| s.busy_us).min().unwrap_or(0);
        let mean = u64_to_f64(total_busy_us) / usize_to_f64(shard_count);
        if mean > 0.0 {
            u64_to_f64(max - min) / mean
        } else {
            0.0
        }
    };
    let slo_attainment = attainment(total_within, total_completed, total_issued);
    let slo_per_busy_sec = if total_busy_us > 0 {
        slo_attainment / (u64_to_f64(total_busy_us) / 1e6)
    } else {
        0.0
    };
    let report = ServeReport {
        scenario: scenario.name.clone(),
        scheduler: shards[0].scheduler.name().to_owned(),
        balancer: balancer_name.to_owned(),
        seed: scenario.seed,
        sessions: scenario.sessions,
        issued: total_issued,
        completed: total_completed,
        dropped: total_dropped,
        drop_rate: if total_issued == 0 {
            0.0
        } else {
            u64_to_f64(total_dropped) / u64_to_f64(total_issued)
        },
        makespan_sec,
        throughput_rps: if makespan_sec > 0.0 {
            u64_to_f64(total_completed) / makespan_sec
        } else {
            0.0
        },
        utilization: if makespan_us > 0 {
            u64_to_f64(total_busy_us) / u64_to_f64(usize_to_u64(shard_count) * makespan_us)
        } else {
            0.0
        },
        imbalance,
        latency: LatencySummary::of(&overall),
        branches,
        shards: shard_stats,
        replaced: tally.replaced,
        lost: total_lost,
        availability: if total_issued == 0 {
            1.0
        } else {
            u64_to_f64(total_completed) / u64_to_f64(total_issued)
        },
        latency_pre_failure: LatencySummary::of(&tally.pre_failure),
        latency_post_failure: LatencySummary::of(&tally.post_failure),
        scale_events: tally.scale_events,
        shed: total_shed,
        admission: admission_name.to_owned(),
        slo_attainment,
        classes,
        expired: total_expired,
        fabric_busy_us: total_busy_us,
        slo_per_busy_sec,
        trace_summary: None,
    };
    debug_assert!(report.conserves_requests(), "request conservation violated");
    report
}

/// Attainment over completions, with issued traffic deciding the vacuous
/// case: a class (or run) that issued nothing scores 1.0 — there was no
/// SLO to miss — while one that issued traffic but completed nothing
/// scores 0.0 (every request missed its budget by never finishing).
fn attainment(within: u64, completed: u64, issued: u64) -> f64 {
    if issued == 0 {
        1.0
    } else if completed == 0 {
        0.0
    } else {
        u64_to_f64(within) / u64_to_f64(completed)
    }
}

/// The global ids of the shards placement may choose, ascending: the
/// active shards, or — only when none is active — the warming ones
/// (their queues hold until warmed, but the work is not lost).
fn placeable(shards: &[Shard]) -> impl Iterator<Item = usize> + '_ {
    let wanted = if shards.iter().any(|s| s.phase == ShardState::Active) {
        ShardState::Active
    } else {
        ShardState::Warming
    };
    shards
        .iter()
        .enumerate()
        .filter(move |(_, s)| s.phase == wanted)
        .map(|(index, _)| index)
}

/// Fills `loads` with the [`placeable`] shards' `(global id, load)` pairs.
fn collect_placeable(loads: &mut Vec<(usize, ShardLoad)>, shards: &[Shard]) {
    loads.clear();
    loads.extend(placeable(shards).map(|index| (index, shards[index].load())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::LoadBalancerKind;
    use crate::model::test_model;

    #[test]
    fn every_scheduler_conserves_requests_on_the_whole_suite() {
        let model = test_model();
        for scenario in Scenario::suite() {
            for &kind in SchedulerKind::all() {
                let report = simulate(&model, &scenario, kind);
                assert!(
                    report.conserves_requests(),
                    "{} / {}: {} completed + {} dropped != {} issued",
                    report.scenario,
                    report.scheduler,
                    report.completed,
                    report.dropped,
                    report.issued
                );
                assert!(report.utilization <= 1.0 + 1e-9);
                assert!(report.latency.p99_ms >= report.latency.p50_ms);
                assert_eq!(report.shard_count(), 1);
                assert_eq!(report.imbalance, 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "a batch completes within the u64 microsecond clock")]
    fn a_dispatch_past_the_u64_clock_panics_on_the_invariant() {
        let model = test_model();
        let mut shard = Shard::new(model, Queue::new(SchedulerKind::Fifo), ShardState::Active);
        // Branch 0 serves in 5 ms, so a batch started 100 µs before the
        // clock's end would complete past it.
        let now_us = u64::MAX - 100;
        let request = Request {
            id: 0,
            session: 0,
            branch: 0,
            issued_at_us: now_us,
            class: QosClass::Standard,
        };
        shard.enqueue(request, now_us);
        let mut tally = Tally::new(shard.model.branch_count());
        shard.dispatch(0, now_us, DeadlinePolicy::Off, None, &mut tally, &mut Off);
    }

    /// Queues one branch-0 request on `shard` at `now_us`, as an arrival
    /// into an empty queue would.
    fn queue_at(core: &mut EngineCore, shard: usize, now_us: u64) {
        let request = Request {
            id: 0,
            session: 0,
            branch: 0,
            issued_at_us: now_us,
            class: QosClass::Standard,
        };
        core.shards[shard].enqueue(request, now_us);
        core.queued_total += 1;
        core.active_queued += 1;
        core.refresh_dispatch(shard);
    }

    #[test]
    fn one_instant_steps_lifecycle_then_arrivals_then_dispatch() {
        let config = FleetConfig::uniform(test_model(), 1);
        let scenario = Scenario::a1();
        let spec = ServeSpec::default();
        let mut sink = Off;
        let mut core = EngineCore::new(&config, &scenario, &spec, &mut sink);
        let now_us = core.due_arrival().expect("a1 issues requests").issued_at_us;
        // A drain of a shard that does not exist: a no-op at the instant
        // of the first arrivals. The first arrival schedules a dispatch at
        // that instant too, ahead of the other branches' arrivals.
        core.push_life(now_us, 9, Action::Drain);
        let mut lanes = Vec::new();
        while let Some((_, lane)) = core.next_event().filter(|&(at_us, _)| at_us == now_us) {
            lanes.push(lane);
            assert!(core.step());
        }
        assert_eq!(lanes.len(), 5, "{lanes:?}");
        lanes.dedup();
        assert_eq!(lanes, [LANE_LIFECYCLE, LANE_ARRIVAL, LANE_DISPATCH]);
    }

    #[test]
    fn lifecycle_events_at_one_instant_pop_by_rank_then_push_order() {
        let config = FleetConfig::uniform(test_model(), 1);
        let scenario = Scenario::a1();
        let spec = ServeSpec::default();
        let mut sink = Off;
        let mut core = EngineCore::new(&config, &scenario, &spec, &mut sink);
        // Pushed in reverse rank order, each labelled by its shard field,
        // the labels descending so that they cannot stand in for push order.
        core.push_life(7, 6, Action::IdleCheck);
        core.push_life(7, 5, Action::Warm);
        core.push_life(7, 4, Action::Drain);
        core.push_life(7, 3, Action::Fail(KillTarget::Shard(0)));
        core.push_life(7, 2, Action::IdleCheck);
        core.push_life(7, 1, Action::Fail(KillTarget::Seeded(0)));
        core.push_life(7, 0, Action::Fail(KillTarget::Shard(9)));
        let order: Vec<usize> = std::iter::from_fn(|| core.life.pop())
            .map(|Reverse(event)| event.shard)
            .collect();
        assert_eq!(order, [3, 1, 0, 4, 5, 6, 2]);
    }

    #[test]
    fn dispatches_at_one_instant_go_lowest_shard_first() {
        let config = FleetConfig::uniform(test_model(), 3);
        let scenario = Scenario::a1().with_sessions(0);
        let spec = ServeSpec::default();
        let mut sink = Off;
        let mut core = EngineCore::new(&config, &scenario, &spec, &mut sink);
        // Live entries pushed highest shard first, with shard 0's entry
        // refreshed once more: neither push order nor epoch picks 0, 1, 2.
        for shard in [2, 0, 1] {
            queue_at(&mut core, shard, 5_000);
        }
        core.refresh_dispatch(0);
        let mut order = Vec::new();
        while let Some(event) = core.next_event() {
            assert_eq!(event, (5_000, LANE_DISPATCH));
            let &Reverse((_, shard, _)) = core.dispatches.peek().expect("a live dispatch");
            order.push(shard);
            assert!(core.step());
        }
        assert_eq!(order, [0, 1, 2]);
        assert_eq!(core.counts.stale_pops, 1, "shard 0's first entry");
    }

    #[test]
    fn identical_inputs_give_identical_reports() {
        let model = test_model();
        let scenario = Scenario::b2();
        let a = simulate(&model, &scenario, SchedulerKind::PriorityByBranch);
        let b = simulate(&model, &scenario, SchedulerKind::PriorityByBranch);
        assert_eq!(a, b);
    }

    #[test]
    fn an_unloaded_single_session_sees_no_queueing() {
        // One 30 Hz session, service well under the 33 ms frame budget:
        // every request completes in its own service time.
        let model = test_model();
        let report = simulate(&model, &Scenario::a1(), SchedulerKind::Fifo);
        assert_eq!(report.dropped, 0);
        // Worst single-request service time in the model is 5 ms + fill.
        assert!(
            report.latency.max_ms <= 20.0,
            "unloaded max latency {} ms",
            report.latency.max_ms
        );
        assert!(report.utilization < 0.5);
    }

    #[test]
    fn batching_beats_fifo_on_throughput_under_fanout_load() {
        let model = test_model();
        let scenario = Scenario::a2(8);
        let fifo = simulate(&model, &scenario, SchedulerKind::Fifo);
        let batch = simulate(&model, &scenario, SchedulerKind::BatchAggregating);
        // Amortized fill means the batch scheduler finishes the same work
        // no later (and strictly earlier whenever any batch formed).
        assert!(batch.makespan_sec <= fifo.makespan_sec);
        assert!(batch.latency.p99_ms <= fifo.latency.p99_ms);
    }

    #[test]
    fn a_scenario_name_with_control_characters_stays_one_valid_json_line() {
        let scenario = Scenario {
            name: "a1\nsecond line\t\u{1}".to_owned(),
            ..Scenario::a1()
        };
        let line = simulate(&test_model(), &scenario, SchedulerKind::Fifo).to_json_line();
        assert!(!line.contains('\n'), "{line}");
        fcad_obs::validate_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(line.starts_with("{\"scenario\":\"a1\\nsecond line\\t\\u0001\","));
    }

    #[test]
    fn scenario_priority_override_reaches_the_report() {
        let model = test_model();
        let report = simulate(&model, &Scenario::b2(), SchedulerKind::PriorityByBranch);
        assert_eq!(report.branches[0].priority, 1.0);
        assert_eq!(report.branches[2].priority, 0.15);
    }

    #[test]
    fn empty_scenario_produces_an_empty_report() {
        let model = test_model();
        let scenario = Scenario::a1().with_sessions(0);
        let report = simulate(&model, &scenario, SchedulerKind::BatchAggregating);
        assert_eq!(report.issued, 0);
        assert_eq!(report.completed, 0);
        assert!(report.conserves_requests());
        assert_eq!(report.throughput_rps, 0.0);
        assert_eq!(report.availability, 1.0);
    }

    #[test]
    fn fleet_reports_conserve_and_split_work_across_shards() {
        let model = test_model();
        let scenario = Scenario::b2();
        for &balancer in LoadBalancerKind::all() {
            let config = FleetConfig::uniform(model.clone(), 3).with_balancer(balancer);
            let report = serve(&config, &scenario, &ServeSpec::default(), &mut Off);
            assert!(report.conserves_requests(), "{}", balancer.name());
            assert_eq!(report.shard_count(), 3);
            assert_eq!(report.balancer, balancer.name());
            // Under b2's five bursty sessions every policy must spread
            // work over more than one shard.
            let active = report.shards.iter().filter(|s| s.completed > 0).count();
            assert!(active >= 2, "{}: all work on one shard", balancer.name());
        }
    }

    #[test]
    fn adding_shards_cannot_hurt_the_burst_tail() {
        let model = test_model();
        let scenario = Scenario::b2();
        let one = serve(
            &FleetConfig::uniform(model.clone(), 1).with_balancer(LoadBalancerKind::LeastLoaded),
            &scenario,
            &ServeSpec::default(),
            &mut Off,
        );
        let four = serve(
            &FleetConfig::uniform(model, 4).with_balancer(LoadBalancerKind::LeastLoaded),
            &scenario,
            &ServeSpec::default(),
            &mut Off,
        );
        assert!(
            four.latency.p99_ms < one.latency.p99_ms,
            "4 shards p99 {} !< 1 shard p99 {}",
            four.latency.p99_ms,
            one.latency.p99_ms
        );
        assert!(four.dropped <= one.dropped);
    }

    #[test]
    fn heterogeneous_fleets_load_the_faster_shard_harder() {
        let fast = test_model();
        let mut slow = test_model();
        for branch in &mut slow.branches {
            branch.frame_time_us *= 4;
            branch.fill_time_us *= 4;
        }
        let config = FleetConfig::heterogeneous(vec![fast, slow])
            .with_balancer(LoadBalancerKind::LeastLoaded);
        let report = serve(&config, &Scenario::b2(), &ServeSpec::default(), &mut Off);
        assert!(report.conserves_requests());
        assert!(
            report.shards[0].completed > report.shards[1].completed,
            "fast shard completed {} !> slow shard {}",
            report.shards[0].completed,
            report.shards[1].completed
        );
    }

    #[test]
    fn a_fixed_fleet_reports_every_shard_active_and_no_events() {
        let report = serve(
            &FleetConfig::uniform(test_model(), 2),
            &Scenario::b2(),
            &ServeSpec::default(),
            &mut Off,
        );
        assert!(report.scale_events.is_empty());
        assert_eq!(report.replaced, 0);
        assert_eq!(report.lost, 0);
        assert!(report
            .shards
            .iter()
            .all(|s| s.state == crate::ShardState::Active));
        assert_eq!(report.latency_pre_failure, LatencySummary::default());
        assert_eq!(report.latency_post_failure, LatencySummary::default());
    }

    #[test]
    fn a_mid_run_failure_re_places_or_loses_the_orphaned_queue() {
        let config =
            FleetConfig::uniform(test_model(), 2).with_balancer(LoadBalancerKind::LeastLoaded);
        let scenario = Scenario::b2();
        let spec = ServeSpec {
            failures: FailurePlan::scheduled(&[(1_000_000, 1)]),
            ..ServeSpec::default()
        };
        let report = serve(&config, &scenario, &spec, &mut Off);
        assert!(report.conserves_requests());
        assert_eq!(report.shards[1].state, crate::ShardState::Failed);
        assert_eq!(report.shards[0].state, crate::ShardState::Active);
        assert!(
            report
                .scale_events
                .iter()
                .any(|e| e.kind == FleetEventKind::Fail && e.shard == 1),
            "missing fail event: {:?}",
            report.scale_events
        );
        // The surviving shard carries strictly more than half the work.
        assert!(report.shards[0].completed > report.completed / 2);
    }

    #[test]
    fn every_re_placement_charges_the_branch_fill_to_the_fabric() {
        // One branch, so every re-placement pays the same fill; no
        // autoscaler, so no destination is ever warming. The slowed model
        // keeps queues non-empty when the kill fires.
        let mut model = slow_model();
        model.branches.truncate(1);
        let fill_time_us = model.branches[0].fill_time_us;
        let config = FleetConfig::uniform(model, 2).with_balancer(LoadBalancerKind::LeastLoaded);
        let spec = ServeSpec {
            failures: FailurePlan::scheduled(&[(1_300_000, 1)]),
            ..ServeSpec::default()
        };
        let mut recorder = fcad_obs::Recorder::new();
        let report = serve(&config, &Scenario::b2_failover(2), &spec, &mut recorder);
        assert!(report.replaced > 0, "the kill orphaned no queued work");
        let served_us: u64 = recorder
            .events()
            .iter()
            .filter_map(|event| match event {
                TraceEvent::Batch(batch) => Some(batch.service_us),
                _ => None,
            })
            .sum();
        assert_eq!(
            report.fabric_busy_us,
            served_us + report.replaced * fill_time_us
        );
    }

    #[test]
    fn killing_a_nonexistent_shard_changes_nothing() {
        let config = FleetConfig::uniform(test_model(), 2);
        let scenario = Scenario::b2();
        let baseline = serve(&config, &scenario, &ServeSpec::default(), &mut Off);
        let spec = ServeSpec {
            failures: FailurePlan::scheduled(&[(1_000_000, 9)]),
            ..ServeSpec::default()
        };
        let with_noop_kill = serve(&config, &scenario, &spec, &mut Off);
        // The phantom kill fires on no shard; only the pre/post-failure
        // split (anchored at the scheduled instant) may differ.
        assert_eq!(baseline.completed, with_noop_kill.completed);
        assert_eq!(baseline.latency, with_noop_kill.latency);
        assert!(with_noop_kill.scale_events.is_empty());
        assert_eq!(with_noop_kill.lost, 0);
    }

    #[test]
    fn admit_all_is_the_legacy_engine_bit_for_bit() {
        let model = test_model();
        for scenario in [Scenario::b2(), Scenario::b2_qos()] {
            for &kind in SchedulerKind::all() {
                let legacy = simulate(&model, &scenario, kind);
                let qos = qos_single(&model, &scenario, kind, AdmissionKind::AdmitAll);
                assert_eq!(legacy, qos, "{} / {:?}", scenario.name, kind);
                assert_eq!(legacy.shed, 0);
                assert_eq!(legacy.admission, "admit_all");
            }
        }
    }

    #[test]
    fn classless_runs_put_everything_in_the_standard_row() {
        let model = test_model();
        let report = simulate(&model, &Scenario::b2(), SchedulerKind::PriorityByBranch);
        assert!(report.conserves_requests());
        let standard = report.class(QosClass::Standard).expect("standard row");
        assert_eq!(standard.issued, report.issued);
        assert_eq!(standard.completed, report.completed);
        assert_eq!(standard.latency, report.latency);
        for class in [QosClass::Interactive, QosClass::BestEffort] {
            let row = report.class(class).expect("class row");
            assert_eq!(row.issued, 0);
            assert_eq!(row.slo_attainment, 1.0, "vacuous SLO on an empty row");
        }
    }

    /// `test_model` slowed 4× so the b2_qos burst genuinely oversubscribes
    /// one device and the shedding policies have something to shed.
    fn slow_model() -> ServiceModel {
        let mut model = test_model();
        for branch in &mut model.branches {
            branch.frame_time_us *= 4;
            branch.fill_time_us *= 4;
        }
        model
    }

    /// `model` as one shard under `kind` and `admission`.
    fn qos_single(
        model: &ServiceModel,
        scenario: &Scenario,
        kind: SchedulerKind,
        admission: AdmissionKind,
    ) -> ServeReport {
        let spec = ServeSpec {
            scheduler: kind,
            admission,
            ..ServeSpec::default()
        };
        serve(
            &FleetConfig::uniform(model.clone(), 1),
            scenario,
            &spec,
            &mut Off,
        )
    }

    #[test]
    fn shedding_policies_conserve_with_the_fourth_outcome() {
        let model = slow_model();
        let scenario = Scenario::b2_qos();
        for &admission in AdmissionKind::all() {
            for &kind in SchedulerKind::all() {
                let report = qos_single(&model, &scenario, kind, admission);
                assert!(
                    report.conserves_requests(),
                    "{} / {:?}: {} + {} + {} + {} != {}",
                    admission.name(),
                    kind,
                    report.completed,
                    report.dropped,
                    report.lost,
                    report.shed,
                    report.issued
                );
                assert_eq!(report.admission, admission.name());
            }
        }
        // The b2_qos burst oversubscribes one device, so both shedding
        // policies must actually shed.
        for admission in [AdmissionKind::QueueThreshold, AdmissionKind::BudgetAware] {
            let report = qos_single(
                &model,
                &scenario,
                SchedulerKind::PriorityByBranch,
                admission,
            );
            assert!(report.shed > 0, "{} never shed", admission.name());
        }
    }

    #[test]
    fn queue_thresholds_protect_the_interactive_tier() {
        let model = slow_model();
        let scenario = Scenario::b2_qos();
        let report = qos_single(
            &model,
            &scenario,
            SchedulerKind::PriorityByBranch,
            AdmissionKind::QueueThreshold,
        );
        let interactive = report.class(QosClass::Interactive).expect("row");
        let best_effort = report.class(QosClass::BestEffort).expect("row");
        assert!(best_effort.shed > 0, "lower tiers shed first");
        // Interactive is only turned away at a literally full queue, so
        // its shed rate stays below the best-effort tier's.
        let rate = |c: &crate::ClassServeStats| c.shed as f64 / c.issued.max(1) as f64;
        assert!(rate(interactive) < rate(best_effort));
    }

    #[test]
    fn queue_pressure_spawns_within_policy_bounds() {
        // One shard under five bursty sessions trips the depth trigger.
        let config = FleetConfig::uniform(test_model(), 1);
        let spec = ServeSpec {
            autoscaler: Autoscaler::reactive(1, 3)
                .with_scale_up_queue_depth(4)
                .with_warmup_us(10_000)
                .with_cooldown_us(50_000)
                .with_idle_retire_us(0),
            ..ServeSpec::default()
        };
        let report = serve(&config, &Scenario::b2(), &spec, &mut Off);
        assert!(report.conserves_requests());
        let ups = report
            .scale_events
            .iter()
            .filter(|e| e.kind == FleetEventKind::Up)
            .count();
        assert!(
            ups >= 1,
            "pressure never tripped: {:?}",
            report.scale_events
        );
        assert!(report.shard_count() <= 3);
        // Every spawned shard eventually warmed and served.
        for shard in &report.shards[1..] {
            assert!(shard.completed > 0, "spawned shard never served");
        }
    }
}
