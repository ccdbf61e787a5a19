//! The pre-rebuild serving engine, frozen as a differential baseline.
//!
//! PR 8 rebuilt the hot path of the discrete-event loop (indexed event
//! calendar, pre-resolved service costs, parallel shard execution). This
//! module keeps the *previous* event loop alive, verbatim: the linear
//! event scan over shards and the per-arrival `batch_service_us` calls.
//! It runs the live schedulers, built through `SchedulerKind::build`,
//! so what it pins is the event loop around them. It exists for one
//! purpose — the equivalence battery in `tests/engine_equivalence.rs`
//! asserts that for every scheduler × balancer × scenario grid cell the
//! rebuilt engine's [`ServeReport`] JSON line (and its
//! [`Recorder`](fcad_obs::Recorder) trace stream) is **byte-identical**
//! to this module's output.
//!
//! Nothing here is a template for new code: it is deliberately slow and
//! deliberately frozen. Fix bugs in the live engine; only touch this file
//! if a bug predates the rebuild and the fix must land on both sides to
//! keep the battery meaningful.

use fcad_obs::{BatchEvent, FleetEvent, Off, RequestEventKind, TraceEvent, TraceSink};

use crate::admission::{admit_traced, AdmissionKind, AdmissionView};
use crate::autoscale::{
    Autoscaler, FailurePlan, KillTarget, ScaleEvent, ScaleEventKind, ShardState,
};
use crate::cast::{u64_to_f64, u64_to_usize, usize_to_f64, usize_to_u64};
use crate::fleet::{Balancer, FleetConfig, ShardLoad};
use crate::histogram::LatencyHistogram;
use crate::model::ServiceModel;
use crate::qos::{QosClass, CLASS_COUNT};
use crate::report::{BranchServeStats, ClassServeStats, LatencySummary, ServeReport, ShardStats};
use crate::request::Request;
use crate::scenario::Scenario;
use crate::scheduler::{Scheduler, SchedulerKind};

/// The frozen loop on a fixed fleet under admit-all, with per-shard
/// schedulers of `kind`: the oracle for [`crate::serve`] with only the
/// scheduler set.
pub fn simulate_fleet(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
) -> ServeReport {
    simulate_fleet_qos(config, scenario, kind, AdmissionKind::AdmitAll)
}

/// [`simulate_fleet`] under the admission policy `admission`.
pub fn simulate_fleet_qos(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    admission: AdmissionKind,
) -> ServeReport {
    let schedulers: Vec<Box<dyn Scheduler>> =
        (0..config.shard_count()).map(|_| kind.build()).collect();
    run(
        config,
        scenario,
        schedulers,
        None,
        &Autoscaler::none(),
        &FailurePlan::none(),
        admission,
        &mut Off,
    )
}

/// [`simulate_fleet_qos`] on a dynamic fleet: `policy` scales it (spawned
/// shards run schedulers of `kind`) and `failures` kills shards.
pub fn simulate_autoscaled_qos(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    policy: &Autoscaler,
    failures: &FailurePlan,
    admission: AdmissionKind,
) -> ServeReport {
    let schedulers: Vec<Box<dyn Scheduler>> =
        (0..config.shard_count()).map(|_| kind.build()).collect();
    run(
        config,
        scenario,
        schedulers,
        Some(kind),
        policy,
        failures,
        admission,
        &mut Off,
    )
}

/// [`simulate_autoscaled_qos`] narrating itself through `sink`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_traced(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    policy: &Autoscaler,
    failures: &FailurePlan,
    admission: AdmissionKind,
    sink: &mut dyn TraceSink,
) -> ServeReport {
    let schedulers: Vec<Box<dyn Scheduler>> =
        (0..config.shard_count()).map(|_| kind.build()).collect();
    run(
        config,
        scenario,
        schedulers,
        Some(kind),
        policy,
        failures,
        admission,
        sink,
    )
}

// ---------------------------------------------------------------------------
// The frozen event loop: a verbatim copy of the pre-rebuild `engine::run`,
// with its O(shards)-per-event linear scans.
// ---------------------------------------------------------------------------

struct Lifecycle {
    at_us: u64,
    rank: u8,
    seq: u64,
    shard: usize,
    action: Action,
}

enum Action {
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

struct Shard {
    model: ServiceModel,
    scheduler: Box<dyn Scheduler>,
    phase: ShardState,
    free_at_us: u64,
    pending_since_us: u64,
    busy_us: u64,
    backlog_us: u64,
    class_backlog_us: [u64; CLASS_COUNT],
    max_priority: f64,
    issued: u64,
    completed: u64,
    dropped: u64,
    shed: u64,
    histogram: LatencyHistogram,
    idle_check_pending: bool,
}

impl Shard {
    fn new(model: ServiceModel, scheduler: Box<dyn Scheduler>, phase: ShardState) -> Self {
        let max_priority = model
            .branches
            .iter()
            .map(|b| b.priority)
            .fold(0.0, f64::max);
        Self {
            model,
            scheduler,
            phase,
            free_at_us: 0,
            pending_since_us: 0,
            busy_us: 0,
            backlog_us: 0,
            class_backlog_us: [0; CLASS_COUNT],
            max_priority,
            issued: 0,
            completed: 0,
            dropped: 0,
            shed: 0,
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
            backlog_us: self.backlog_us,
        }
    }

    fn dispatch_at(&self) -> u64 {
        self.free_at_us.max(self.pending_since_us)
    }
}

fn active_count(shards: &[Shard]) -> usize {
    shards
        .iter()
        .filter(|s| s.phase == ShardState::Active)
        .count()
}

fn alive_count(shards: &[Shard]) -> usize {
    shards.iter().filter(|s| s.phase.is_alive()).count()
}

#[allow(clippy::too_many_arguments)]
fn run(
    config: &FleetConfig,
    scenario: &Scenario,
    schedulers: Vec<Box<dyn Scheduler>>,
    spawn: Option<SchedulerKind>,
    policy: &Autoscaler,
    failures: &FailurePlan,
    admission: AdmissionKind,
    sink: &mut dyn TraceSink,
) -> ServeReport {
    config.assert_valid();
    assert_eq!(
        schedulers.len(),
        config.shard_count(),
        "one scheduler per shard ({} shards, {} schedulers)",
        config.shard_count(),
        schedulers.len()
    );
    let branch_count = config.branch_count();
    let arrivals = scenario.generate(branch_count);
    let mut balancer = Balancer::new(config.balancer);
    let capacity = scenario.queue_capacity;
    let tracing = sink.enabled();

    let mut shards: Vec<Shard> = config
        .shards
        .iter()
        .zip(schedulers)
        .map(|(model, scheduler)| {
            let model = match &scenario.priorities {
                Some(priorities) => model.clone().with_priorities(priorities),
                None => model.clone(),
            };
            Shard::new(model, scheduler, ShardState::Active)
        })
        .collect();

    let mut issued = vec![0u64; branch_count];
    let mut completed = vec![0u64; branch_count];
    let mut dropped = vec![0u64; branch_count];
    let mut lost = vec![0u64; branch_count];
    let mut shed = vec![0u64; branch_count];
    let mut branch_histograms: Vec<LatencyHistogram> =
        (0..branch_count).map(|_| LatencyHistogram::new()).collect();
    let mut class_issued = [0u64; CLASS_COUNT];
    let mut class_completed = [0u64; CLASS_COUNT];
    let mut class_dropped = [0u64; CLASS_COUNT];
    let mut class_lost = [0u64; CLASS_COUNT];
    let mut class_shed = [0u64; CLASS_COUNT];
    let mut within_budget = [0u64; CLASS_COUNT];
    let mut class_histograms: [LatencyHistogram; CLASS_COUNT] =
        std::array::from_fn(|_| LatencyHistogram::new());
    for request in &arrivals {
        issued[request.branch] += 1;
        class_issued[request.class.index()] += 1;
    }

    let mut lifecycle: Vec<Lifecycle> = Vec::new();
    let mut seq = 0u64;
    let mut push_event = |queue: &mut Vec<Lifecycle>, at_us: u64, shard: usize, action: Action| {
        queue.push(Lifecycle {
            at_us,
            rank: action.rank(),
            seq,
            shard,
            action,
        });
        seq += 1;
    };
    for kill in failures.kills() {
        let shard = match kill.target {
            KillTarget::Shard(s) => s,
            KillTarget::Seeded(_) => usize::MAX, // resolved at fire time
        };
        push_event(&mut lifecycle, kill.at_us, shard, Action::Fail(kill.target));
    }
    for &(at_us, shard) in &policy.drains {
        push_event(&mut lifecycle, at_us, shard, Action::Drain);
    }
    if policy.idle_retire_us > 0 {
        for (index, shard) in shards.iter_mut().enumerate() {
            shard.idle_check_pending = true;
            push_event(
                &mut lifecycle,
                policy.idle_retire_us,
                index,
                Action::IdleCheck,
            );
        }
    }
    let split_us = failures.first_kill_us();
    let mut pre_failure = LatencyHistogram::new();
    let mut post_failure = LatencyHistogram::new();
    let mut scale_events: Vec<ScaleEvent> = Vec::new();
    let mut replaced = 0u64;
    let mut last_scale_up: Option<u64> = None;

    let mut next_arrival = 0;
    let mut loads: Vec<(usize, ShardLoad)> = Vec::with_capacity(shards.len());

    loop {
        let due_arrival = arrivals.get(next_arrival).copied();
        if due_arrival.is_none() && shards.iter().all(|s| s.scheduler.queued() == 0) {
            break;
        }
        let next_dispatch = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase.dispatches() && s.scheduler.queued() > 0)
            .map(|(index, s)| (s.dispatch_at(), index))
            .min();
        let next_life = lifecycle
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.at_us, e.rank, e.seq))
            .map(|(index, _)| index);
        let arrival_at = due_arrival.map_or(u64::MAX, |r| r.issued_at_us);
        let dispatch_at = next_dispatch.map_or(u64::MAX, |(t, _)| t);
        let life_at = next_life.map_or(u64::MAX, |i| lifecycle[i].at_us);
        if arrival_at == u64::MAX && dispatch_at == u64::MAX && life_at == u64::MAX {
            debug_assert!(false, "stranded queued work with no pending event");
            break;
        }

        if life_at <= arrival_at.min(dispatch_at) {
            let event = lifecycle.swap_remove(next_life.expect("life_at is finite"));
            let now_us = event.at_us;
            match event.action {
                Action::Fail(target) => {
                    let victim = match target {
                        KillTarget::Shard(s) if s < shards.len() && shards[s].phase.is_alive() => {
                            Some(s)
                        }
                        KillTarget::Shard(_) => None,
                        KillTarget::Seeded(hash) => {
                            let actives: Vec<usize> = (0..shards.len())
                                .filter(|&s| shards[s].phase == ShardState::Active)
                                .collect();
                            if actives.is_empty() {
                                None
                            } else {
                                Some(actives[u64_to_usize(hash % usize_to_u64(actives.len()))])
                            }
                        }
                    };
                    let Some(victim) = victim else { continue };
                    shards[victim].phase = ShardState::Failed;
                    record(
                        &mut scale_events,
                        &shards,
                        now_us,
                        ScaleEventKind::Fail,
                        victim,
                        sink,
                        tracing,
                    );
                    let mut orphans: Vec<Request> = Vec::new();
                    {
                        let dead = &mut shards[victim];
                        while dead.scheduler.queued() > 0 {
                            let batch = dead.scheduler.next_batch(&dead.model, now_us);
                            debug_assert!(!batch.is_empty(), "scheduler returned an empty batch");
                            orphans.extend(batch);
                        }
                        dead.backlog_us = 0;
                        dead.class_backlog_us = [0; CLASS_COUNT];
                        dead.pending_since_us = 0;
                        dead.issued -= usize_to_u64(orphans.len());
                    }
                    if let Some(kind) = spawn {
                        while alive_count(&shards) < policy.min_shards
                            && alive_count(&shards) < policy.max_shards
                        {
                            do_spawn(
                                now_us,
                                kind,
                                policy,
                                &mut shards,
                                &mut lifecycle,
                                &mut push_event,
                                &mut scale_events,
                                sink,
                                tracing,
                            );
                            last_scale_up = Some(now_us);
                        }
                    }
                    for request in orphans {
                        collect_placeable(&mut loads, &shards);
                        if loads.is_empty() {
                            lost[request.branch] += 1;
                            class_lost[request.class.index()] += 1;
                            if tracing {
                                sink.record(request.trace(
                                    now_us,
                                    None,
                                    RequestEventKind::Lost { orphaned: true },
                                ));
                            }
                            continue;
                        }
                        let dst = balancer.place(&request, &loads, now_us, capacity);
                        if shards[dst].scheduler.queued() >= capacity {
                            lost[request.branch] += 1;
                            class_lost[request.class.index()] += 1;
                            if tracing {
                                sink.record(request.trace(
                                    now_us,
                                    None,
                                    RequestEventKind::Lost { orphaned: true },
                                ));
                            }
                            continue;
                        }
                        let target = &mut shards[dst];
                        if target.scheduler.queued() == 0 {
                            target.pending_since_us = now_us;
                        }
                        if target.phase != ShardState::Warming {
                            let fill = target.model.branches[request.branch].fill_time_us;
                            target.free_at_us = target.free_at_us.max(now_us) + fill;
                            target.busy_us += fill;
                        }
                        let single_us = target.model.batch_service_us(request.branch, 1);
                        target.backlog_us += single_us;
                        target.class_backlog_us[request.class.index()] += single_us;
                        target.scheduler.enqueue(request);
                        balancer.note_admitted(request.session, dst);
                        target.issued += 1;
                        replaced += 1;
                        if tracing {
                            sink.record(request.trace(
                                now_us,
                                Some(dst),
                                RequestEventKind::Replace { from_shard: victim },
                            ));
                        }
                    }
                }
                Action::Drain => {
                    let shard = event.shard;
                    if shard >= shards.len() || shards[shard].phase != ShardState::Active {
                        continue;
                    }
                    let floor = policy.min_shards.max(1);
                    if active_count(&shards) <= floor {
                        continue;
                    }
                    shards[shard].phase = ShardState::Draining;
                    record(
                        &mut scale_events,
                        &shards,
                        now_us,
                        ScaleEventKind::Drain,
                        shard,
                        sink,
                        tracing,
                    );
                    if shards[shard].scheduler.queued() == 0 {
                        retire(&mut shards, &mut scale_events, now_us, shard, sink, tracing);
                    }
                }
                Action::Warm => {
                    let shard = event.shard;
                    if shards[shard].phase == ShardState::Warming {
                        shards[shard].phase = ShardState::Active;
                        shards[shard].free_at_us = shards[shard].free_at_us.max(now_us);
                        record(
                            &mut scale_events,
                            &shards,
                            now_us,
                            ScaleEventKind::Warm,
                            shard,
                            sink,
                            tracing,
                        );
                    }
                }
                Action::IdleCheck => {
                    let shard = event.shard;
                    if shard >= shards.len() {
                        continue;
                    }
                    shards[shard].idle_check_pending = false;
                    if shards[shard].phase != ShardState::Active
                        || shards[shard].scheduler.queued() > 0
                    {
                        continue;
                    }
                    if shards[shard].free_at_us + policy.idle_retire_us > now_us {
                        shards[shard].idle_check_pending = true;
                        push_event(
                            &mut lifecycle,
                            shards[shard].free_at_us + policy.idle_retire_us,
                            shard,
                            Action::IdleCheck,
                        );
                        continue;
                    }
                    let floor = policy.min_shards.max(1);
                    if active_count(&shards) <= floor {
                        continue;
                    }
                    retire(&mut shards, &mut scale_events, now_us, shard, sink, tracing);
                }
            }
        } else if arrival_at <= dispatch_at {
            let request = due_arrival.expect("arrival_at is finite");
            next_arrival += 1;
            let now_us = request.issued_at_us;
            collect_placeable(&mut loads, &shards);
            if loads.is_empty() {
                lost[request.branch] += 1;
                class_lost[request.class.index()] += 1;
                if tracing {
                    sink.record(request.trace(now_us, None, RequestEventKind::Arrival));
                    sink.record(request.trace(
                        now_us,
                        None,
                        RequestEventKind::Lost { orphaned: false },
                    ));
                }
                continue;
            }
            let shard = balancer.place_traced(&request, &loads, now_us, capacity, sink, tracing);
            let target = &mut shards[shard];
            target.issued += 1;
            let single_us = target.model.batch_service_us(request.branch, 1);
            let view = target.admission_view(capacity, single_us, request.branch);
            if !admit_traced(admission, &request, &view, now_us, shard, sink, tracing) {
                shed[request.branch] += 1;
                class_shed[request.class.index()] += 1;
                target.shed += 1;
            } else if target.scheduler.queued() >= capacity {
                dropped[request.branch] += 1;
                class_dropped[request.class.index()] += 1;
                target.dropped += 1;
                if tracing {
                    sink.record(request.trace(now_us, Some(shard), RequestEventKind::Drop));
                }
            } else {
                if target.scheduler.queued() == 0 {
                    target.pending_since_us = now_us;
                }
                target.backlog_us += single_us;
                target.class_backlog_us[request.class.index()] += single_us;
                target.scheduler.enqueue(request);
                balancer.note_admitted(request.session, shard);
                if tracing {
                    sink.record(request.trace(now_us, Some(shard), RequestEventKind::Enqueue));
                }
            }
            if let Some(kind) = spawn.filter(|_| policy.scale_up_queue_depth > 0) {
                let actives = active_count(&shards);
                let queued: usize = shards
                    .iter()
                    .filter(|s| s.phase == ShardState::Active)
                    .map(|s| s.scheduler.queued())
                    .sum();
                if actives > 0
                    && queued >= policy.scale_up_queue_depth * actives
                    && alive_count(&shards) < policy.max_shards
                    && last_scale_up.is_none_or(|t| now_us >= t.saturating_add(policy.cooldown_us))
                {
                    do_spawn(
                        now_us,
                        kind,
                        policy,
                        &mut shards,
                        &mut lifecycle,
                        &mut push_event,
                        &mut scale_events,
                        sink,
                        tracing,
                    );
                    last_scale_up = Some(now_us);
                }
            }
        } else {
            let (now_us, shard) = next_dispatch.expect("dispatch_at is finite");
            let (batch, service_us, done_us) = {
                let s = &mut shards[shard];
                let batch = s.scheduler.next_batch(&s.model, now_us);
                debug_assert!(!batch.is_empty(), "scheduler returned an empty batch");
                let branch = batch[0].branch;
                debug_assert!(batch.iter().all(|r| r.branch == branch));
                let service_us = s.model.batch_service_us(branch, batch.len());
                (batch, service_us, now_us + service_us)
            };
            shards[shard].busy_us += service_us;
            if tracing {
                sink.record(TraceEvent::Batch(BatchEvent {
                    at_us: now_us,
                    shard,
                    branch: batch[0].branch,
                    len: batch.len(),
                    service_us,
                }));
            }
            for request in &batch {
                let latency_us = request.latency_us(done_us);
                if tracing {
                    sink.record(request.trace(now_us, Some(shard), RequestEventKind::ServiceStart));
                    sink.record(request.trace(
                        done_us,
                        Some(shard),
                        RequestEventKind::Complete { latency_us },
                    ));
                }
                branch_histograms[request.branch].record(latency_us);
                completed[request.branch] += 1;
                let class = request.class.index();
                class_histograms[class].record(latency_us);
                class_completed[class] += 1;
                if request.meets_slo(done_us) {
                    within_budget[class] += 1;
                }
                let s = &mut shards[shard];
                s.histogram.record(latency_us);
                s.completed += 1;
                let single_us = s.model.batch_service_us(request.branch, 1);
                s.backlog_us = s.backlog_us.saturating_sub(single_us);
                s.class_backlog_us[class] = s.class_backlog_us[class].saturating_sub(single_us);
                if let Some(split) = split_us {
                    if done_us < split {
                        pre_failure.record(latency_us);
                    } else {
                        post_failure.record(latency_us);
                    }
                }
            }
            shards[shard].free_at_us = done_us;
            shards[shard].pending_since_us = 0;
            if shards[shard].phase == ShardState::Draining && shards[shard].scheduler.queued() == 0
            {
                retire(
                    &mut shards,
                    &mut scale_events,
                    done_us,
                    shard,
                    sink,
                    tracing,
                );
            } else if shards[shard].phase == ShardState::Active
                && shards[shard].scheduler.queued() == 0
                && policy.idle_retire_us > 0
                && !shards[shard].idle_check_pending
            {
                shards[shard].idle_check_pending = true;
                push_event(
                    &mut lifecycle,
                    done_us + policy.idle_retire_us,
                    shard,
                    Action::IdleCheck,
                );
            }
        }
    }

    scale_events.sort_by(|a, b| a.at_sec.total_cmp(&b.at_sec));

    let shard_count = shards.len();
    let total_issued: u64 = issued.iter().sum();
    let total_completed: u64 = completed.iter().sum();
    let total_dropped: u64 = dropped.iter().sum();
    let total_lost: u64 = lost.iter().sum();
    let total_shed: u64 = shed.iter().sum();
    let total_within: u64 = within_budget.iter().sum();
    let total_busy_us: u64 = shards.iter().map(|s| s.busy_us).sum();
    debug_assert_eq!(
        total_completed + total_dropped + total_lost + total_shed,
        total_issued,
        "fleet-wide request conservation violated"
    );
    for index in 0..issued.len() {
        debug_assert_eq!(
            completed[index] + dropped[index] + lost[index] + shed[index],
            issued[index],
            "branch {index} request conservation violated"
        );
    }
    for index in 0..class_issued.len() {
        debug_assert_eq!(
            class_completed[index] + class_dropped[index] + class_lost[index] + class_shed[index],
            class_issued[index],
            "class {index} request conservation violated"
        );
    }
    for (index, s) in shards.iter().enumerate() {
        debug_assert_eq!(
            s.completed + s.dropped + s.shed,
            s.issued,
            "shard {index} request conservation violated"
        );
    }
    let makespan_us = shards.iter().map(|s| s.free_at_us).max().unwrap_or(0);
    let makespan_sec = u64_to_f64(makespan_us) / 1e6;
    let mut overall = LatencyHistogram::new();
    for shard in &shards {
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
            issued: issued[index],
            completed: completed[index],
            dropped: dropped[index],
            lost: lost[index],
            shed: shed[index],
            expired: 0,
            latency: LatencySummary::of(&branch_histograms[index]),
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
                issued: class_issued[index],
                completed: class_completed[index],
                dropped: class_dropped[index],
                lost: class_lost[index],
                shed: class_shed[index],
                expired: 0,
                slo_attainment: attainment(
                    within_budget[index],
                    class_completed[index],
                    class_issued[index],
                ),
                latency: LatencySummary::of(&class_histograms[index]),
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
            expired: 0,
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
    let scheduler_name = if shards
        .iter()
        .all(|s| s.scheduler.name() == shards[0].scheduler.name())
    {
        shards[0].scheduler.name()
    } else {
        "mixed"
    };
    ServeReport {
        scenario: scenario.name.clone(),
        scheduler: scheduler_name.to_owned(),
        balancer: config.balancer.name().to_owned(),
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
        replaced,
        lost: total_lost,
        availability: if total_issued == 0 {
            1.0
        } else {
            u64_to_f64(total_completed) / u64_to_f64(total_issued)
        },
        latency_pre_failure: LatencySummary::of(&pre_failure),
        latency_post_failure: LatencySummary::of(&post_failure),
        scale_events,
        shed: total_shed,
        admission: admission.name().to_owned(),
        slo_attainment,
        classes,
        expired: 0,
        fabric_busy_us: total_busy_us,
        slo_per_busy_sec,
        trace_summary: None,
    }
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

fn collect_placeable(loads: &mut Vec<(usize, ShardLoad)>, shards: &[Shard]) {
    for wanted in [ShardState::Active, ShardState::Warming] {
        loads.clear();
        loads.extend(
            shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.phase == wanted)
                .map(|(index, s)| (index, s.load())),
        );
        if !loads.is_empty() {
            return;
        }
    }
}

fn retire(
    shards: &mut [Shard],
    events: &mut Vec<ScaleEvent>,
    at_us: u64,
    shard: usize,
    sink: &mut dyn TraceSink,
    tracing: bool,
) {
    shards[shard].phase = ShardState::Retired;
    record(
        events,
        shards,
        at_us,
        ScaleEventKind::Retire,
        shard,
        sink,
        tracing,
    );
}

#[allow(clippy::too_many_arguments)]
fn record(
    events: &mut Vec<ScaleEvent>,
    shards: &[Shard],
    at_us: u64,
    kind: ScaleEventKind,
    shard: usize,
    sink: &mut dyn TraceSink,
    tracing: bool,
) {
    let active_after = active_count(shards);
    events.push(ScaleEvent {
        at_sec: u64_to_f64(at_us) / 1e6,
        kind,
        shard,
        active_after,
    });
    if tracing {
        sink.record(TraceEvent::Fleet(FleetEvent {
            at_us,
            shard,
            kind: kind.fleet_kind(),
            active_after,
        }));
    }
}

#[allow(clippy::too_many_arguments)]
fn do_spawn(
    now_us: u64,
    kind: SchedulerKind,
    policy: &Autoscaler,
    shards: &mut Vec<Shard>,
    lifecycle: &mut Vec<Lifecycle>,
    push_event: &mut impl FnMut(&mut Vec<Lifecycle>, u64, usize, Action),
    scale_events: &mut Vec<ScaleEvent>,
    sink: &mut dyn TraceSink,
    tracing: bool,
) {
    let shard = shards.len();
    let template = shards[0].model.clone();
    shards.push(Shard::new(template, kind.build(), ShardState::Warming));
    push_event(lifecycle, now_us + policy.warmup_us, shard, Action::Warm);
    if policy.idle_retire_us > 0 {
        shards[shard].idle_check_pending = true;
        push_event(
            lifecycle,
            now_us + policy.warmup_us + policy.idle_retire_us,
            shard,
            Action::IdleCheck,
        );
    }
    record(
        scale_events,
        shards,
        now_us,
        ScaleEventKind::Up,
        shard,
        sink,
        tracing,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::LoadBalancerKind;
    use crate::model::test_model;

    /// The frozen loop must still satisfy the engine's core invariants on
    /// its own (the equivalence battery then pins it against the rebuilt
    /// engine byte for byte).
    #[test]
    fn frozen_engine_conserves_requests_on_the_suite() {
        let model = test_model();
        for scenario in Scenario::suite() {
            for &kind in SchedulerKind::all() {
                let config = FleetConfig::uniform(model.clone(), 2)
                    .with_balancer(LoadBalancerKind::LeastLoaded);
                let report = simulate_fleet(&config, &scenario, kind);
                assert!(report.conserves_requests(), "{}", scenario.name);
                assert!(report.latency.p99_ms >= report.latency.p50_ms);
            }
        }
    }
}
