//! Time-windowed execution: the shard-local spans of a run advance shard
//! by shard on worker threads, bit-identical to stepping every event.
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
//!    are then independent, so the caller drains the window's arrivals
//!    from the arrival stream into per-shard buffers reused across
//!    windows, placing each one (advancing the real balancer cursor),
//!    advances each shard through [`Shard::admit`] and
//!    [`Shard::dispatch`] — worker 0's shards on the calling thread, the
//!    others' on `std::thread::scope` threads, so a one-worker run spawns
//!    no thread — and at the window edge re-derives exactly the
//!    cross-shard state the sequential engine would hold: queue totals,
//!    refreshed dispatch entries and the sorted trace stream.
//!    Each extra worker settles its shards' outcomes into a [`Tally`] of
//!    its own — one [`Books`](crate::engine::Books) row per branch and
//!    per class — kept across windows and folded into the run's by
//!    [`EngineCore::finish`]. The fleet lifecycle log and the re-placed
//!    count stay on the core: no window changes the fleet.
//!
//! Every quiescent span runs as a window, however little it holds, and a
//! static fleet is the case with no pinning events at all: its windows end
//! only at the arrival cap or the plan's `window_us` chunk size, so it
//! never steps. The zero-length plan (`WindowPlan::new(1).with_window_us(0)`)
//! opens no window and steps every event — the sequential comparator the
//! equivalence battery checks the windows against.
//!
//! **Window-edge pinning rules** (what forces a window to end):
//!
//! - the earliest pending lifecycle event — scheduled kill, drain,
//!   warm-up completion or idle check (idle-retirement runs disable
//!   windows outright: in-window dispatches would need to *schedule* new
//!   idle checks, a write to the fleet's lifecycle heap);
//! - an armed queue-depth autoscale trigger — the only scale-up trigger:
//!   windows may not extend past `last_scale_up + cooldown`, the first
//!   instant the trigger could fire again (before the first spawn no
//!   bound exists, so execution stays sequential while the trigger is
//!   armed);
//! - the arrival cap: once a window has buffered [`WINDOW_ARRIVALS`]
//!   arrivals ([`SHARD_ARRIVALS`] per shard on larger fleets) it takes the
//!   rest of the last one's instant and ends at the next arrival, bounding
//!   the per-shard buffers to what a core's L2 holds (any cap at or below
//!   the horizon is exact);
//! - the plan's `window_us` chunk size, bounding windows that hold fewer
//!   arrivals than the cap, or none, when no coupling event is pending at
//!   all.
//!
//! **What runs sequentially and why:** load-aware balancers
//! (least-loaded, affinity-with-spill) read every shard's live load *per
//! arrival*, so each placement is itself a cross-shard read and no window
//! can open; a speculative run-and-rollback scheme for those is the
//! ROADMAP follow-on.
//!
//! Identical inputs produce **byte-identical** reports and recorder
//! streams at every worker count and plan — pinned across the coupled grid
//! (balancer × {static, autoscaled, failure-injected, one-shard scale-up}
//! × admission × deadline × workers) by `tests/engine_equivalence.rs` and
//! the worker-count invariance proptests.

use fcad_obs::{Off, RequestEventKind, TraceEvent, TraceSink};

use crate::admission::AdmissionKind;
use crate::autoscale::{Autoscaler, FailurePlan, ShardState};
use crate::cast::usize_to_u64;
use crate::deadline::DeadlinePolicy;
use crate::engine::{EngineCore, ServeSpec, Shard, Tally, WorkCounts, LANE_ARRIVAL, LANE_DISPATCH};
use crate::fleet::FleetConfig;
use crate::report::ServeReport;
use crate::request::Request;
use crate::scenario::Scenario;
use crate::scheduler::SchedulerKind;

/// The most arrivals a window buffers before it ends at the next instant
/// boundary: 640 KiB of 40-byte requests, a third of a 2 MiB L2, so the
/// per-shard buffers are still cached when the shards read them back.
/// Any cap at or below the quiescent horizon is exact, so this bound
/// never changes a result.
const WINDOW_ARRIVALS: usize = 16_384;

/// The fewest arrivals per shard the cap may cut a window to, so fleets
/// above 256 shards get a larger cap. Every window reloads every shard's
/// queues and histograms, and on many shards that outweighs the cached
/// buffers: on a 2-vCPU host a fixed 16,384 cap ran the 1,536-shard
/// `tests/engine_memory.rs` shape about 18% slower.
const SHARD_ARRIVALS: usize = 64;

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
    /// gate) and at the first instant boundary after 16,384 buffered
    /// arrivals (64 per shard above 256 shards), so on a busy fleet this
    /// bounds only the windows that hold few arrivals or none. `0` opens
    /// no window: every event steps.
    pub window_us: u64,
}

impl WindowPlan {
    /// A plan with `workers` workers and 100 ms windows.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            window_us: 100_000,
        }
    }

    /// Replaces the maximum window length; `0` steps every event.
    pub fn with_window_us(mut self, window_us: u64) -> Self {
        self.window_us = window_us;
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
    drive(config, scenario, &spec, sink, plan).0
}

/// Runs `spec` to completion, alternating sequential spans and windows
/// as the module docs describe; `plan` (not `spec.workers`) sets the
/// window shape and worker count. Returns the report and the run's work
/// counts.
pub(crate) fn drive(
    config: &FleetConfig,
    scenario: &Scenario,
    spec: &ServeSpec,
    sink: &mut dyn TraceSink,
    plan: &WindowPlan,
) -> (ServeReport, WorkCounts) {
    let mut core = EngineCore::new(config, scenario, spec, sink);
    while let Some((start, _)) = core.next_event() {
        // No window when no horizon is proved, when the pinning event *is*
        // the next event, or under a zero-length plan: that event steps.
        // The cap clamps on purpose, as any cap at or below the horizon is
        // exact.
        let cap = core.quiescent_horizon().map_or(start, |horizon| {
            horizon.min(start.saturating_add(plan.window_us))
        });
        if cap > start {
            core.run_window(cap, plan);
        } else if !core.step() {
            break;
        }
    }
    core.finish()
}

impl EngineCore<'_> {
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
    ///   have to push new idle checks onto the lifecycle heap, reordering
    ///   the shared lifecycle sequence;
    /// - the earliest pending lifecycle event bounds the horizon;
    /// - an armed queue-depth trigger (arrivals remain, `alive <
    ///   max_shards`) bounds the horizon by `last_scale_up + cooldown` —
    ///   the first instant it could fire again; before the first
    ///   scale-up there is no bound, so no window opens.
    pub(crate) fn quiescent_horizon(&self) -> Option<u64> {
        let policy = &self.spec.autoscaler;
        if !self.dense || policy.idle_retire_us > 0 {
            return None;
        }
        let active = self.shards_in(ShardState::Active);
        if active == 0
            || self.shards_in(ShardState::Warming) > 0
            || self.shards_in(ShardState::Draining) > 0
        {
            return None;
        }
        let mut horizon = self.life.peek().map_or(u64::MAX, |event| event.0.at_us);
        let depth_armed = policy.scale_up_queue_depth > 0
            && active < policy.max_shards
            && self.due_arrival().is_some();
        if depth_armed {
            match self.last_scale_up {
                Some(last) => horizon = horizon.min(last.saturating_add(policy.cooldown_us)),
                None => return None,
            }
        }
        Some(horizon)
    }

    /// Executes every event strictly before `cap` as one window: drains
    /// the window's arrivals from the stream into the reused per-shard
    /// buffers, placing each through the dense snapshot (advancing the
    /// real balancer cursor), advances the shards on the plan's workers —
    /// the calling thread is worker 0, each other worker tallies into its
    /// kept tally — then re-derives the cross-shard state at the window
    /// edge: queue totals, dispatch entries and the sorted trace stream.
    ///
    /// Once the arrival cap is buffered ([`WINDOW_ARRIVALS`], or
    /// [`SHARD_ARRIVALS`] per shard if that is more), the window draws on
    /// only while the next arrival shares the last one's instant, then
    /// lowers `cap` to the next arrival: every buffered arrival is
    /// strictly before the lowered cap, which still lies at or below the
    /// horizon, so the window stays exact.
    ///
    /// The caller opens a window only when the next event lies before
    /// `cap`. That event is an arrival or a dispatch, since a lifecycle
    /// event at the window's start would have bounded the horizon there,
    /// so every window processes at least one event.
    pub(crate) fn run_window(&mut self, cap: u64, plan: &WindowPlan) {
        self.counts.windows += 1;
        if self.placeable_dirty {
            self.rebuild_placeable();
        }
        let shard_count = self.shards.len();
        self.window_arrivals.resize_with(shard_count, Vec::new);
        let arrival_cap = WINDOW_ARRIVALS.max(SHARD_ARRIVALS * shard_count);
        let mut cap = cap;
        let mut buffered = 0usize;
        while let Some(request) = self.draw_before(cap) {
            let dst = self
                .balancer
                .place_dense(&request, &self.placeable_ids)
                .expect("windowed execution covers only load-oblivious balancers");
            self.window_arrivals[dst].push(request);
            self.counts.dense_placed += 1;
            buffered += 1;
            if buffered < arrival_cap {
                continue;
            }
            // Full: finish this instant, then end at the next arrival.
            match self.due_arrival() {
                Some(next) if next.issued_at_us == request.issued_at_us => {}
                Some(next) => {
                    cap = cap.min(next.issued_at_us);
                    break;
                }
                None => break,
            }
        }

        let tracing = self.tracing;
        // One step-keyed sink per worker: step keys sort into the
        // sequential emission order however shards are spread over
        // workers. Worker 0 runs on the calling thread and settles
        // straight into the run's tally; every other worker fills a tally
        // of its own, kept across windows and folded in by `finish`
        // (tally merges are exact integer and fixed-bucket histogram
        // adds).
        let run_share = move |share: Vec<(&mut Shard, &[Request])>, tally: &mut Tally| {
            let mut sink = StepSink::new(tracing);
            let mut steps = 0usize;
            for (shard, arrivals) in share {
                steps += advance_shard(shard, arrivals, cap, tally, &mut sink);
            }
            (sink.events, steps)
        };

        let worker_count = plan.workers.clamp(1, shard_count);
        while self.worker_tallies.len() + 1 < worker_count {
            let tally = Tally::new(self.tally.branches.len(), self.tally.split_us);
            self.worker_tallies.push(tally);
            self.counts.tallies += 1;
        }
        let mut shares: Vec<Vec<(&mut Shard, &[Request])>> =
            (0..worker_count).map(|_| Vec::new()).collect();
        let buffers = &self.window_arrivals;
        for (shard, arrivals) in self.shards.iter_mut().zip(buffers) {
            shares[shard.id % worker_count].push((shard, arrivals));
        }
        let mut shares = shares.into_iter();
        let own_share = shares.next().expect("a window has at least one worker");
        let (mut trace, processed) = std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .zip(self.worker_tallies.iter_mut())
                .map(|(share, tally)| scope.spawn(move || run_share(share, tally)))
                .collect();
            let (mut trace, mut processed) = run_share(own_share, &mut self.tally);
            for handle in handles {
                let (events, steps) = handle.join().expect("window worker thread panicked");
                trace.extend(events);
                processed += steps;
            }
            (trace, processed)
        });
        for buffer in &mut self.window_arrivals {
            buffer.clear();
        }

        // Barrier: re-derive the cross-shard state the sequential engine
        // would hold at the window edge. One pass re-sums the queue totals
        // and refreshes dispatch entries in ascending id order. Its epoch
        // bumps make every entry pushed before the window stale, and the
        // window itself pushed none, so the dispatch heap is cleared
        // first. Window trace events sort by step key into exactly the
        // sequential emission order, all strictly before any post-window
        // event.
        self.dispatches.clear();
        self.queued_total = 0;
        self.active_queued = 0;
        for shard in 0..shard_count {
            self.counts.shard_reads += 1;
            let s = &self.shards[shard];
            self.queued_total += s.scheduler.queued();
            if s.phase == ShardState::Active {
                self.active_queued += s.scheduler.queued();
            }
            self.refresh_dispatch(shard);
        }
        debug_assert!(processed > 0, "a window opens only before its first event");
        self.counts.window_events += processed;
        if tracing {
            trace.sort_unstable_by_key(|(key, _)| *key);
            for (_, event) in trace {
                self.sink.record(event);
            }
        }
    }
}

/// Runs one shard's discrete-event loop over `arrivals` until every event
/// strictly before `horizon_us` is processed: the per-shard restriction
/// of the engine's loop — only arrival and dispatch events exist, the
/// shard never changes lifecycle phase, and the engine's lane order
/// decides a same-instant tie between an arrival and a dispatch.
/// Queued work whose dispatch instant lands at or past the horizon stays
/// queued for the next window (or the sequential engine). Returns the
/// number of events processed.
fn advance_shard(
    shard: &mut Shard,
    arrivals: &[Request],
    horizon_us: u64,
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
        if shard.scheduler.queued() > 0
            && (shard.dispatch_at(), LANE_DISPATCH) < (arrival_at, LANE_ARRIVAL)
        {
            let now_us = shard.dispatch_at();
            if now_us >= horizon_us {
                break;
            }
            processed += 1;
            sink.begin_step(now_us, LANE_DISPATCH, usize_to_u64(shard.id));
            shard.dispatch(now_us, tally, sink);
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
                sink.record(request.trace(now_us, Some(shard.id), RequestEventKind::Arrival));
            }
            shard.admit(request, tally, sink);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::serve_counted;
    use crate::fleet::LoadBalancerKind;
    use crate::model::{test_model, BranchService, ServiceModel};

    /// The three-branch model of the integration suites' metropolis cells.
    fn three_branch_model() -> ServiceModel {
        let branch = |name: &str, frame_time_us, fill_time_us, max_batch, priority| BranchService {
            name: name.to_owned(),
            frame_time_us,
            fill_time_us,
            max_batch,
            priority,
        };
        ServiceModel {
            branches: vec![
                branch("geometry", 9_000, 8_000, 1, 1.0),
                branch("texture", 5_000, 7_000, 2, 1.0),
                branch("audio", 1_500, 2_000, 4, 0.2),
            ],
        }
    }

    /// The engine's complexity promises on the coupled autoscaled
    /// metropolis that `tests/engine_throughput.rs` times: 100k sessions
    /// on a round-robin fleet that scales from 192 to 256 shards with no
    /// cooldown (those spans step), then runs its terminal phase in
    /// windows. Each regression the old 2x wall-clock ratios caught
    /// fails a pin: a per-arrival fleet scan, a tally built per window,
    /// the dense placement path turned off, or windows turned off.
    #[test]
    fn the_coupled_metropolis_keeps_cross_shard_work_off_the_arrival_path() {
        const MAX_SHARDS: usize = 256;
        let scenario = Scenario::metropolis().with_sessions(100_000);
        let config = FleetConfig::uniform(three_branch_model(), 192);
        let run = |workers| {
            let spec = ServeSpec {
                autoscaler: Autoscaler::reactive(192, MAX_SHARDS)
                    .with_cooldown_us(0)
                    .with_idle_retire_us(0),
                workers,
                ..ServeSpec::default()
            };
            serve_counted(&config, &scenario, &spec, &mut Off)
        };
        let (one_report, one) = run(1);
        for workers in [1, 8] {
            let (report, counts) = run(workers);
            assert_eq!(report.to_json_line(), one_report.to_json_line());
            assert_eq!(
                WorkCounts {
                    tallies: 1,
                    ..counts
                },
                one,
                "{workers} workers"
            );
            // At most two passes over the fleet per window edge and per
            // lifecycle event, however many arrivals step.
            let passes = 2 * (counts.windows + report.scale_events.len());
            assert!(
                counts.shard_reads <= passes * MAX_SHARDS,
                "{workers} workers: {} shard reads, above {passes} passes over the fleet",
                counts.shard_reads
            );
            assert_eq!(
                counts.tallies, workers,
                "one tally per worker for the whole run"
            );
            assert_eq!(
                u64::try_from(counts.dense_placed).ok(),
                Some(report.issued),
                "every arrival is placed by the dense path"
            );
            let events = counts.steps + counts.window_events;
            assert!(
                counts.window_events * 10 >= events * 9,
                "{workers} workers: {} of {events} events ran in windows",
                counts.window_events
            );
            // A window edge makes every dispatch entry stale and clears
            // the heap, so no stale entry is left to discard one by one.
            assert_eq!(
                (counts.calendar_pushes, counts.stale_pops),
                (8_085, 0),
                "{workers} workers"
            );
        }
    }

    /// A static round-robin or branch-sharded fleet has no coupling event,
    /// so every event of the run executes in a window, however few events
    /// the run holds.
    #[test]
    fn a_static_fleet_never_steps() {
        let balancers = [
            LoadBalancerKind::RoundRobin,
            LoadBalancerKind::BranchSharded,
        ];
        for scenario in Scenario::suite() {
            for shards in [1, 3, 8] {
                for balancer in balancers {
                    let config = FleetConfig::uniform(test_model(), shards).with_balancer(balancer);
                    let (report, counts) =
                        serve_counted(&config, &scenario, &ServeSpec::default(), &mut Off);
                    let cell = format!("{} on {shards} {balancer:?} shards", report.scenario);
                    assert_eq!(counts.steps, 0, "{cell}");
                    assert!(counts.window_events > 0, "{cell}");
                }
            }
        }
    }

    /// Small cells of each regime and their exact work counts under
    /// `serve` at one worker, as `[steps, windows, window_events,
    /// dense_placed, shard_reads, tallies, calendar_pushes, stale_pops]`.
    /// Every cell accounts for the same events as the windows-disabled
    /// driver; the load-aware balancers never open a window, so every
    /// event steps and every placement reads the fleet.
    #[test]
    fn work_counts_per_regime() {
        let cell = |shards, balancer, autoscaler, failures, scenario| {
            let spec = ServeSpec {
                autoscaler,
                failures,
                ..ServeSpec::default()
            };
            let config = FleetConfig::uniform(test_model(), shards).with_balancer(balancer);
            (config, scenario, spec)
        };
        let burst = || Scenario::b2_qos().with_sessions(32);
        let fixed = |balancer| {
            cell(
                4,
                balancer,
                Autoscaler::none(),
                FailurePlan::none(),
                burst(),
            )
        };
        let goldens: [(&str, _, [usize; 8]); 6] = [
            (
                "round-robin",
                fixed(LoadBalancerKind::RoundRobin),
                [0, 6, 3842, 2298, 24, 1, 8, 0],
            ),
            (
                "branch-sharded",
                fixed(LoadBalancerKind::BranchSharded),
                [0, 7, 3687, 2298, 28, 1, 13, 0],
            ),
            (
                "autoscaled",
                cell(
                    2,
                    LoadBalancerKind::RoundRobin,
                    Autoscaler::reactive(2, 6).with_idle_retire_us(0),
                    FailurePlan::none(),
                    burst(),
                ),
                [463, 8, 3588, 2298, 78, 1, 165, 0],
            ),
            (
                "failure-injected",
                cell(
                    3,
                    LoadBalancerKind::RoundRobin,
                    Autoscaler::reactive(2, 5).with_idle_retire_us(0),
                    FailurePlan::scheduled(&[(600_000, 0), (1_400_000, 2)]),
                    Scenario::b2_failover(3),
                ),
                [767, 8, 2531, 1746, 105, 1, 317, 0],
            ),
            (
                "least-loaded",
                fixed(LoadBalancerKind::LeastLoaded),
                [3838, 0, 0, 0, 9192, 1, 1540, 0],
            ),
            (
                "affinity",
                fixed(LoadBalancerKind::AffinityFirst),
                [3836, 0, 0, 0, 9192, 1, 1538, 0],
            ),
        ];
        let sequential = WindowPlan::new(1).with_window_us(0);
        for (name, (config, scenario, spec), golden) in goldens {
            let (_, c) = serve_counted(&config, &scenario, &spec, &mut Off);
            let counts = [
                c.steps,
                c.windows,
                c.window_events,
                c.dense_placed,
                c.shard_reads,
                c.tallies,
                c.calendar_pushes,
                c.stale_pops,
            ];
            assert_eq!(counts, golden, "{name}");
            let (_, stepped) = drive(&config, &scenario, &spec, &mut Off, &sequential);
            assert_eq!(stepped.windows, 0, "{name}: the comparator opens no window");
            assert_eq!(c.steps + c.window_events, stepped.steps, "{name}");
        }
    }
}
