//! Time-windowed execution: the shard-local spans of a run advance shard
//! by shard on worker threads, bit-identical to the sequential calendar
//! engine.
//!
//! Lifecycle events (spawn / warm / drain / fail), autoscale trigger
//! evaluations and orphan re-placement all read or write **cross-shard**
//! state, so their ordering against every other event is load-bearing.
//! Every other event — an arrival placed by a load-oblivious balancer, a
//! dispatch — touches only its own shard.
//!
//! [`drive`] — the driver behind [`crate::serve`] and the
//! `simulate_windowed*` entry points — runs one [`EngineCore`] in two
//! alternating modes:
//!
//! 1. **Sequential spans.** Every event that touches cross-shard state is
//!    processed by [`EngineCore::step`] on the calling thread, one event
//!    at a time, so the interleaving is the sequential one by
//!    construction.
//! 2. **Windows.** Between those events the fleet is *quiescent*: no
//!    lifecycle event is pending before a provable horizon, placement is
//!    pure cursor arithmetic over a frozen placeable snapshot, and no
//!    autoscale trigger can fire ([`EngineCore::quiescent_horizon`]
//!    proves all three). Within `[start, horizon)` every shard's events
//!    are then independent, so the caller pre-places the window's
//!    arrivals (advancing the real balancer cursor), advances each shard
//!    through [`Shard::admit`] and [`Shard::dispatch`] — worker 0's
//!    shards on the calling thread, the others' on `std::thread::scope`
//!    threads, so a one-worker run spawns no thread — and at the window
//!    edge re-derives exactly the cross-shard state the sequential engine
//!    would hold: queue totals, refreshed dispatch calendar entries,
//!    merged tallies and the sorted trace stream.
//!
//! A static fleet is the case with no pinning events at all: its windows
//! end only at the plan's `window_us` chunk size. A plan whose fan-out
//! threshold no window can clear
//! (`WindowPlan::new(1).with_min_parallel_events(usize::MAX)`) steps every
//! event — the sequential comparator the equivalence battery checks the
//! windows against.
//!
//! **Window-edge pinning rules** (what forces a window to end):
//!
//! - the earliest pending lifecycle event — scheduled kill, drain,
//!   warm-up completion or idle check (idle-retirement runs disable
//!   windows outright: in-window dispatches would need to *schedule* new
//!   idle checks, a cross-shard calendar write);
//! - an armed queue-depth autoscale trigger: windows may not extend past
//!   `last_scale_up + cooldown`, the first instant the trigger could
//!   fire again (before the first spawn no bound exists, so execution
//!   stays sequential while the trigger is armed);
//! - a configured p99 trigger pins everything — its rolling latency
//!   window is global per-completion state — until the fleet is
//!   provably terminal (at `max_shards` with no lifecycle pending), after
//!   which the trigger is dead and windows reopen;
//! - the plan's `window_us` chunk size, bounding memory and barrier
//!   latency when no coupling event is pending at all.
//!
//! **What runs sequentially and why:** load-aware balancers
//! (least-loaded, affinity-with-spill) read every shard's live load *per
//! arrival*, so each placement is itself a cross-shard read and no window
//! can open; a speculative run-and-rollback scheme for those is the
//! ROADMAP follow-on. Windows holding less work than the plan's fan-out
//! threshold also step sequentially.
//!
//! Identical inputs produce **byte-identical** reports and recorder
//! streams at every worker count and plan — pinned across the coupled grid
//! (balancer × {static, autoscaled, failure-injected, one-shard scale-up}
//! × admission × deadline × workers) by `tests/engine_equivalence.rs` and
//! the worker-count invariance proptests.

use fcad_obs::{Off, RequestEventKind, TraceEvent, TraceSink};

use crate::admission::AdmissionKind;
use crate::autoscale::{Autoscaler, FailurePlan, ShardState};
use crate::calendar::{LANE_ARRIVAL, LANE_DISPATCH, LANE_LIFECYCLE};
use crate::cast::usize_to_u64;
use crate::deadline::DeadlinePolicy;
use crate::engine::{refresh_dispatch, EngineCore, ServeSpec, Shard, Tally};
use crate::fleet::FleetConfig;
use crate::report::ServeReport;
use crate::request::Request;
use crate::scenario::Scenario;
use crate::scheduler::SchedulerKind;

/// Tuning knobs for windowed execution. The plan never affects results —
/// only how much of the run executes in windows versus sequential spans,
/// and on how many threads.
#[derive(Debug, Clone, Copy)]
pub struct WindowPlan {
    /// Workers for the in-window fan-out, the calling thread included:
    /// `1` runs every window on the calling thread, `0` counts as `1`, and
    /// a window never uses more workers than the fleet has shards.
    pub workers: usize,
    /// Maximum window length in microseconds of simulated time; windows
    /// end earlier at any pinned edge (lifecycle event, armed trigger
    /// gate).
    pub window_us: u64,
    /// Minimum in-window workload (pending arrivals plus queued requests)
    /// worth a window's fixed cost — per-shard set-up, a dispatch refresh
    /// of every shard and the thread fan-out; smaller windows step
    /// sequentially.
    pub min_parallel_events: usize,
}

impl WindowPlan {
    /// A plan with `workers` workers and the default window shape
    /// (100 ms windows, 128-event fan-out threshold).
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            window_us: 100_000,
            min_parallel_events: 128,
        }
    }

    /// Replaces the maximum window length (must be non-zero).
    pub fn with_window_us(mut self, window_us: u64) -> Self {
        assert!(window_us > 0, "a window must span at least 1 us");
        self.window_us = window_us;
        self
    }

    /// Replaces the fan-out threshold.
    pub fn with_min_parallel_events(mut self, min_parallel_events: usize) -> Self {
        self.min_parallel_events = min_parallel_events;
        self
    }
}

/// [`crate::serve`] with its axes spelled out and an explicit window
/// plan: QoS classes, admission shedding, autoscaling, failure injection
/// and deadline culling, executed in shard-local time windows.
///
/// Identical inputs produce a byte-identical report at every worker count
/// and plan. Under a load-aware balancer no window opens and every event
/// steps sequentially (see the module docs).
#[allow(clippy::too_many_arguments)]
pub fn simulate_windowed(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    policy: &Autoscaler,
    failures: &FailurePlan,
    admission: AdmissionKind,
    deadline: DeadlinePolicy,
    plan: &WindowPlan,
) -> ServeReport {
    simulate_windowed_traced(
        config, scenario, kind, policy, failures, admission, deadline, &mut Off, plan,
    )
}

/// [`simulate_windowed`] with every engine event delivered to `sink`, in
/// the order a run that steps every event would record them: sequential
/// spans write straight through, window events carry deterministic step
/// keys and merge by sort at each window edge.
#[allow(clippy::too_many_arguments)]
pub fn simulate_windowed_traced(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    policy: &Autoscaler,
    failures: &FailurePlan,
    admission: AdmissionKind,
    deadline: DeadlinePolicy,
    sink: &mut dyn TraceSink,
    plan: &WindowPlan,
) -> ServeReport {
    let spec = ServeSpec {
        scheduler: kind,
        admission,
        deadline,
        autoscaler: policy.clone(),
        failures: failures.clone(),
        workers: plan.workers,
    };
    drive(config, scenario, &spec, sink, plan)
}

/// Runs `spec` to completion, alternating sequential spans and windows
/// as the module docs describe; `plan` (not `spec.workers`) sets the
/// window shape and worker count.
pub(crate) fn drive(
    config: &FleetConfig,
    scenario: &Scenario,
    spec: &ServeSpec,
    sink: &mut dyn TraceSink,
    plan: &WindowPlan,
) -> ServeReport {
    let mut core = EngineCore::new(config, scenario, spec, sink);
    while let Some(start) = core.next_instant() {
        match core.quiescent_horizon() {
            Some(horizon) => {
                let cap = horizon.min(start.saturating_add(plan.window_us));
                // `cap <= start`: the pinning event *is* the next event.
                // `run_window == 0`: the window is below the fan-out
                // threshold (or holds only work dispatchable at or after
                // the edge). Either way, advance sequentially — `step()`
                // is always correct.
                if (cap <= start || core.run_window(cap, plan) == 0) && !core.step_until(cap) {
                    break;
                }
            }
            None => {
                if !core.step() {
                    break;
                }
            }
        }
    }
    core.finish()
}

impl EngineCore<'_> {
    /// The earliest pending event instant (arrival cursor vs. live
    /// calendar front), or `None` when the run is complete.
    pub(crate) fn next_instant(&mut self) -> Option<u64> {
        let due_arrival = self.arrivals.get(self.next_arrival).map(|r| r.issued_at_us);
        if due_arrival.is_none() && self.queued_total == 0 {
            return None;
        }
        let front = self.live_front().map(|key| key.at_us);
        due_arrival.into_iter().chain(front).min()
    }

    /// Runs sequential steps through every event strictly before `cap`,
    /// taking at least one step (the pinning event at the window edge
    /// when the window itself was empty). Returns `false` on run
    /// completion.
    pub(crate) fn step_until(&mut self, cap: u64) -> bool {
        if !self.step() {
            return false;
        }
        while self.next_instant().is_some_and(|at| at < cap) {
            if !self.step() {
                return false;
            }
        }
        true
    }

    /// Proves a quiescent horizon: the earliest instant at which an event
    /// *could* read or write cross-shard state. Every event strictly
    /// before the horizon touches only its own shard, so `[now, horizon)`
    /// may execute as a window. Returns `None` when no horizon
    /// can be proved and execution must stay sequential.
    ///
    /// The proof obligations, matching the sequential engine arm by arm:
    ///
    /// - placement must be load-oblivious (`dense`) — load-aware
    ///   balancers read every shard's load per arrival;
    /// - no shard may be Warming or Draining (their transitions interact
    ///   with in-window dispatches), and at least one must be Active
    ///   (otherwise arrivals take the global lost path);
    /// - idle retirement must be off — in-window dispatch-to-empty would
    ///   have to push new idle-check calendar entries, reordering the
    ///   shared lifecycle sequence;
    /// - the earliest pending lifecycle event bounds the horizon;
    /// - a configured p99 trigger demands sequential execution until the
    ///   fleet is terminal (`max_shards` reached, no lifecycle pending):
    ///   its rolling latency window is global state written on *every*
    ///   completion, and only in the terminal state is that write
    ///   provably unobservable (the trigger is permanently gated on
    ///   `alive < max_shards`, and alive can no longer change);
    /// - an armed queue-depth trigger (arrivals remain, `alive <
    ///   max_shards`) bounds the horizon by `last_scale_up + cooldown` —
    ///   the first instant it could fire again; before the first
    ///   scale-up there is no bound, so no window opens.
    pub(crate) fn quiescent_horizon(&self) -> Option<u64> {
        let policy = &self.spec.autoscaler;
        if !self.dense || policy.idle_retire_us > 0 {
            return None;
        }
        let mut active = 0usize;
        for shard in &self.shards {
            match shard.phase {
                ShardState::Warming | ShardState::Draining => return None,
                ShardState::Active => active += 1,
                ShardState::Retired | ShardState::Failed => {}
            }
        }
        if active == 0 {
            return None;
        }
        let next_life = self.calendar.earliest_in_lane(LANE_LIFECYCLE);
        let mut horizon = next_life.unwrap_or(u64::MAX);
        let terminal = active >= policy.max_shards && next_life.is_none();
        if policy.p99_trigger_on() && !terminal {
            return None;
        }
        let depth_armed = policy.scale_up_queue_depth > 0
            && active < policy.max_shards
            && self.next_arrival < self.arrivals.len();
        if depth_armed {
            match self.last_scale_up {
                Some(last) => horizon = horizon.min(last.saturating_add(policy.cooldown_us)),
                None => return None,
            }
        }
        Some(horizon)
    }

    /// Executes every event strictly before `cap` as one window:
    /// pre-places the window's arrivals through the dense snapshot
    /// (advancing the real balancer cursor), advances the shards on the
    /// plan's workers — the calling thread is worker 0 — then re-derives
    /// the cross-shard state at the window edge: queue totals, dispatch
    /// calendar entries, merged tallies and the sorted trace stream.
    ///
    /// Returns the number of events processed; `0` means the window was
    /// below the plan's fan-out threshold (nothing ran — the caller
    /// advances sequentially instead).
    pub(crate) fn run_window(&mut self, cap: u64, plan: &WindowPlan) -> usize {
        let in_window =
            self.arrivals[self.next_arrival..].partition_point(|r| r.issued_at_us < cap);
        if in_window + self.queued_total < plan.min_parallel_events.max(1) {
            return 0;
        }
        if self.placeable_dirty {
            self.rebuild_placeable();
        }
        let shard_count = self.shards.len();
        let mut per_shard: Vec<Vec<Request>> = (0..shard_count).map(|_| Vec::new()).collect();
        for index in self.next_arrival..self.next_arrival + in_window {
            let request = self.arrivals[index];
            let dst = self
                .balancer
                .place_dense(&request, &self.placeable_ids)
                .expect("windowed execution covers only load-oblivious balancers");
            per_shard[dst].push(request);
        }
        self.next_arrival += in_window;

        let capacity = self.capacity;
        let admission = self.spec.admission;
        let deadline = self.spec.deadline;
        let split_us = self.split_us;
        let tracing = self.tracing;
        let branch_count = self.tally.issued.len();
        // One step-keyed sink per worker: step keys sort into the
        // sequential emission order however shards are spread over
        // workers. Worker 0 runs on the calling thread and tallies
        // straight into the run's accumulators; every other worker fills
        // a tally of its own, folded in afterwards (tally merges are
        // exact integer and fixed-bucket histogram adds).
        let run_share = move |share: Vec<(usize, &mut Shard, Vec<Request>)>, tally: &mut Tally| {
            let mut sink = StepSink::new(tracing);
            let mut steps = 0usize;
            for (shard_id, shard, arrivals) in share {
                steps += advance_shard(
                    shard_id, shard, admission, &arrivals, capacity, deadline, cap, split_us,
                    tally, &mut sink,
                );
            }
            (sink.events, steps)
        };

        let worker_count = plan.workers.clamp(1, shard_count);
        let mut shares: Vec<Vec<(usize, &mut Shard, Vec<Request>)>> =
            (0..worker_count).map(|_| Vec::new()).collect();
        for (shard_id, (shard, arrivals)) in self.shards.iter_mut().zip(per_shard).enumerate() {
            shares[shard_id % worker_count].push((shard_id, shard, arrivals));
        }
        let mut shares = shares.into_iter();
        let own_share = shares.next().expect("a window has at least one worker");
        let (mut trace, processed) = std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .map(|share| {
                    scope.spawn(move || {
                        let mut tally = Tally::new(branch_count);
                        let (events, steps) = run_share(share, &mut tally);
                        (tally, events, steps)
                    })
                })
                .collect();
            let (mut trace, mut processed) = run_share(own_share, &mut self.tally);
            for handle in handles {
                let (tally, events, steps) = handle.join().expect("window worker thread panicked");
                self.tally.absorb(&tally);
                trace.extend(events);
                processed += steps;
            }
            (trace, processed)
        });

        // Barrier: re-derive the cross-shard state the sequential engine
        // would hold at the window edge. Queue total is a plain re-sum;
        // dispatch entries are refreshed per shard in ascending id order
        // (epoch bumps invalidate every pre-window entry lazily); window
        // trace events sort by step key into exactly the sequential
        // emission order, all strictly before any post-window event.
        self.queued_total = self.shards.iter().map(|s| s.scheduler.queued()).sum();
        for shard in 0..shard_count {
            refresh_dispatch(&mut self.calendar, &mut self.shards, shard);
        }
        if tracing {
            trace.sort_unstable_by_key(|(key, _)| *key);
            for (_, event) in trace {
                self.sink.record(event);
            }
        }
        processed
    }
}

/// Runs one shard's discrete-event loop over `arrivals` until every event
/// strictly before `horizon_us` is processed: the per-shard restriction
/// of the engine's loop — only arrival and dispatch events exist, the
/// shard never changes lifecycle phase, and arrivals win same-instant
/// ties against dispatches exactly as the calendar's lane order dictates.
/// Queued work whose dispatch instant lands at or past the horizon stays
/// queued for the next window (or the sequential engine). Returns the
/// number of events processed.
#[allow(clippy::too_many_arguments)]
fn advance_shard(
    shard_id: usize,
    shard: &mut Shard,
    admission: AdmissionKind,
    arrivals: &[Request],
    capacity: usize,
    deadline: DeadlinePolicy,
    horizon_us: u64,
    split_us: Option<u64>,
    tally: &mut Tally,
    sink: &mut StepSink,
) -> usize {
    let mut next_arrival = 0usize;
    let mut processed = 0usize;
    loop {
        let due_arrival = arrivals.get(next_arrival).copied();
        if due_arrival.is_none() && shard.scheduler.queued() == 0 {
            break;
        }
        let arrival_at = due_arrival.map_or(u64::MAX, |r| r.issued_at_us);
        if shard.scheduler.queued() > 0 && shard.dispatch_at() < arrival_at {
            let now_us = shard.dispatch_at();
            if now_us >= horizon_us {
                break;
            }
            processed += 1;
            sink.begin_step(now_us, LANE_DISPATCH, usize_to_u64(shard_id));
            shard.dispatch(shard_id, now_us, deadline, split_us, tally, sink);
        } else {
            let request = due_arrival.expect("arrival_at is finite");
            debug_assert!(
                request.issued_at_us < horizon_us,
                "window arrivals are pre-filtered to the horizon"
            );
            next_arrival += 1;
            processed += 1;
            let now_us = request.issued_at_us;
            sink.begin_step(now_us, LANE_ARRIVAL, request.id);
            if sink.on {
                sink.record(request.trace(now_us, Some(shard_id), RequestEventKind::Arrival));
            }
            shard.admit(shard_id, request, capacity, admission, tally, sink);
        }
    }
    processed
}

/// The processing-step key ordering merged trace events: the instant, the
/// lane (arrivals before dispatches, exactly the engine's tie rule), the
/// in-lane tiebreak (arrival id — global arrival order within an instant —
/// or dispatching shard id), and the event's index within its step.
type StepKey = (u64, u8, u64, u64);

/// A step-tagging trace sink: every recorded event is stamped with the
/// current processing-step key so per-worker streams merge into the
/// sequential recording order by a plain sort.
struct StepSink {
    on: bool,
    at_us: u64,
    lane: u8,
    tie: u64,
    seq: u64,
    events: Vec<(StepKey, TraceEvent)>,
}

impl StepSink {
    fn new(on: bool) -> Self {
        Self {
            on,
            at_us: 0,
            lane: LANE_ARRIVAL,
            tie: 0,
            seq: 0,
            events: Vec::new(),
        }
    }

    fn begin_step(&mut self, at_us: u64, lane: u8, tie: u64) {
        self.at_us = at_us;
        self.lane = lane;
        self.tie = tie;
        self.seq = 0;
    }
}

impl TraceSink for StepSink {
    fn enabled(&self) -> bool {
        self.on
    }

    fn record(&mut self, event: TraceEvent) {
        self.events
            .push(((self.at_us, self.lane, self.tie, self.seq), event));
        self.seq += 1;
    }
}
