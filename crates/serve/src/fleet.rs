//! Fleet configuration and load balancing: many accelerators, one queue of
//! avatar traffic.
//!
//! Auto-CARD-style deployments judge a codec-avatar pipeline under many
//! concurrent users, not single-decoder FPS, and one time-multiplexed
//! accelerator tops out at a handful of sessions. A [`FleetConfig`] scales
//! the serving simulation to a fleet of devices: each shard is one
//! accelerator with its own [`ServiceModel`] (heterogeneous fleets mix
//! fast and slow devices), its own scheduler instance and its own
//! front-end queue, while a fleet-level [`LoadBalancerKind`] places every
//! arriving request on a shard.
//!
//! Placement is where identity weights matter. A codec-avatar shard keeps
//! the per-identity decoder weights of the sessions it serves resident, so
//! a session that sticks to one shard amortizes its weight fill across
//! dispatches, while a session that wanders re-streams weights everywhere.
//! The affinity-first balancer models exactly that: a session is pinned to
//! the shard that last admitted its identity and only spills (re-pinning)
//! when the pinned shard's queue is full. The least-loaded balancer instead
//! chases readiness: each shard's remaining fabric busy time plus its
//! queued backlog, in microseconds.

use crate::model::ServiceModel;
use crate::request::Request;

/// How the fleet front end places arriving requests on shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalancerKind {
    /// Static rotation over the shards, one request at a time. Ignores
    /// load entirely — the baseline every adaptive policy must beat.
    RoundRobin,
    /// Picks the shard with the smallest load in microseconds: the time
    /// until its fabric frees plus the estimated service backlog of its
    /// queue; ties fall to the shallower queue, then the lowest shard
    /// index.
    LeastLoaded,
    /// Session affinity with spill: a session is pinned to the shard that
    /// last admitted one of its requests (its identity weights are
    /// resident there), and spills to the least-loaded shard with queue
    /// space — re-pinning, as the weights migrate — only when the pinned
    /// shard's queue is full.
    AffinityFirst,
    /// Static per-branch sharding: branch `b` lands on shard
    /// `b % shard_count`, so each shard streams weights for only a slice
    /// of the branches.
    BranchSharded,
}

impl LoadBalancerKind {
    /// All built-in balancing policies. Returns a slice so adding a
    /// policy does not ripple a fixed array length through every call
    /// site.
    pub fn all() -> &'static [LoadBalancerKind] {
        &[
            LoadBalancerKind::RoundRobin,
            LoadBalancerKind::LeastLoaded,
            LoadBalancerKind::AffinityFirst,
            LoadBalancerKind::BranchSharded,
        ]
    }

    /// Policy name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            LoadBalancerKind::RoundRobin => "round_robin",
            LoadBalancerKind::LeastLoaded => "least_loaded",
            LoadBalancerKind::AffinityFirst => "affinity",
            LoadBalancerKind::BranchSharded => "branch_sharded",
        }
    }
}

/// A fleet of accelerator shards serving one scenario's traffic.
///
/// Every shard needs the same branch structure (the scenario issues one
/// request per branch per frame), but shards may differ in speed: a
/// heterogeneous fleet mixes, say, a ZU17EG shard with a smaller ZCU104
/// one, and the balancer sees the difference through each shard's backlog.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Per-shard service models, in shard order.
    pub shards: Vec<ServiceModel>,
    /// Placement policy for arriving requests.
    pub balancer: LoadBalancerKind,
}

impl FleetConfig {
    /// A homogeneous fleet: `shard_count` copies of `model` (at least one),
    /// balanced round-robin until [`FleetConfig::with_balancer`] says
    /// otherwise.
    pub fn uniform(model: ServiceModel, shard_count: usize) -> Self {
        Self {
            shards: vec![model; shard_count.max(1)],
            balancer: LoadBalancerKind::RoundRobin,
        }
    }

    /// A heterogeneous fleet from explicit per-shard models. Every model
    /// must expose the same branch structure — same count, same names and
    /// same priorities in the same order (speeds, fills and batch sizes
    /// may differ); an empty list is rejected. The report's per-branch
    /// rows merge shards by branch index and quote one priority per
    /// branch, so mismatched structures would sum unrelated branches or
    /// misreport how half the fleet scheduled them.
    pub fn heterogeneous(shards: Vec<ServiceModel>) -> Self {
        let config = Self {
            shards,
            balancer: LoadBalancerKind::RoundRobin,
        };
        config.assert_valid();
        config
    }

    /// Panics unless the fleet is well-formed: at least one shard, and
    /// every shard sharing one branch structure (same count, names and
    /// priorities). The constructors enforce this, but the fields are
    /// public (and deserializable), so the engine re-checks through the
    /// same gate before a run.
    pub(crate) fn assert_valid(&self) {
        assert!(!self.shards.is_empty(), "a fleet needs at least one shard");
        assert!(
            self.shards.iter().all(|m| {
                m.branch_count() == self.shards[0].branch_count()
                    && m.branches
                        .iter()
                        .zip(&self.shards[0].branches)
                        .all(|(a, b)| a.name == b.name && a.priority == b.priority)
            }),
            "every shard must expose the same branch structure"
        );
    }

    /// Replaces the placement policy.
    pub fn with_balancer(mut self, balancer: LoadBalancerKind) -> Self {
        self.balancer = balancer;
        self
    }

    /// Branch count of the fleet (shared by every shard).
    pub fn branch_count(&self) -> usize {
        self.shards.first().map_or(0, ServiceModel::branch_count)
    }
}

/// One shard's live load, as the balancer sees it at placement time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardLoad {
    /// Requests currently queued on the shard.
    pub queued: usize,
    /// Instant the shard's fabric frees (its last dispatch completion).
    pub free_at_us: u64,
    /// Estimated service time of the queued requests, µs (each counted at
    /// its unbatched single-request cost).
    pub backlog_us: u64,
}

impl ShardLoad {
    /// The shard's load in microseconds as of `now_us`: remaining busy
    /// time plus queued backlog.
    fn load_us(&self, now_us: u64) -> u64 {
        self.free_at_us.saturating_sub(now_us) + self.backlog_us
    }
}

/// The stateful placement engine behind a [`LoadBalancerKind`]: a
/// round-robin cursor and the per-session affinity table.
#[derive(Debug)]
pub(crate) struct Balancer {
    kind: LoadBalancerKind,
    next_round_robin: usize,
    affinity: Vec<Option<usize>>,
}

impl Balancer {
    pub(crate) fn new(kind: LoadBalancerKind) -> Self {
        Self {
            kind,
            next_round_robin: 0,
            affinity: Vec::new(),
        }
    }

    /// Picks the shard for `request` among the placeable candidates, given
    /// as `(global shard id, load)` pairs — a dynamic fleet's warming,
    /// draining and dead shards are simply absent from the slice, and the
    /// returned id is the global one. The engine still drops the request
    /// if the chosen shard's queue is full; adaptive policies steer away
    /// from full queues when any candidate has space.
    pub(crate) fn place(
        &mut self,
        request: &Request,
        shards: &[(usize, ShardLoad)],
        now_us: u64,
        capacity: usize,
    ) -> usize {
        if let Some(index) = self.oblivious_index(request, shards.len()) {
            return shards[index].0;
        }
        if self.kind == LoadBalancerKind::AffinityFirst {
            // The pinned shard holds this identity's weights; stay while
            // it is placeable and has queue space. A pin to a failed or
            // draining shard is simply not among the candidates, so the
            // session re-places (and re-pins) through the least-loaded
            // fallback.
            let pinned = self.affinity.get(request.session).copied().flatten();
            if let Some(pinned) = pinned.filter(|&pinned| {
                shards
                    .iter()
                    .any(|&(id, load)| id == pinned && load.queued < capacity)
            }) {
                return pinned;
            }
        }
        least_loaded(shards, now_us, capacity)
    }

    /// The load-oblivious placement law as an index into `len` candidates
    /// in ascending id order: round-robin takes the cursor's slot and
    /// advances it, branch-sharding takes the branch's slot. Load-aware
    /// kinds return `None`: they need live loads.
    fn oblivious_index(&mut self, request: &Request, len: usize) -> Option<usize> {
        match self.kind {
            LoadBalancerKind::RoundRobin => {
                let index = self.next_round_robin % len;
                self.next_round_robin = (self.next_round_robin + 1) % len;
                Some(index)
            }
            LoadBalancerKind::BranchSharded => Some(request.branch % len),
            LoadBalancerKind::LeastLoaded | LoadBalancerKind::AffinityFirst => None,
        }
    }

    /// [`Balancer::place`] plus the arrival trace event: the placement
    /// decision is the first thing that happens to a request, so the
    /// balancer is where its `Arrival` event (stamped with the chosen
    /// shard) enters the trace.
    pub(crate) fn place_traced(
        &mut self,
        request: &Request,
        shards: &[(usize, ShardLoad)],
        now_us: u64,
        capacity: usize,
        sink: &mut dyn fcad_obs::TraceSink,
        tracing: bool,
    ) -> usize {
        let shard = self.place(request, shards, now_us, capacity);
        if tracing {
            sink.record(request.trace(now_us, Some(shard), fcad_obs::RequestEventKind::Arrival));
        }
        shard
    }

    /// O(1) placement over a *placeable-id snapshot*: the engine's
    /// piecewise-static fast path hands in the sorted global ids of the
    /// currently placeable shards (rebuilt only after a lifecycle event),
    /// and round-robin / branch-sharding place by the same cursor
    /// arithmetic [`Balancer::place`] applies to a candidate slice — the
    /// ids play the role of the `(id, load)` pairs, which these two kinds
    /// never read. An empty snapshot and the load-aware kinds return
    /// `None`.
    pub(crate) fn place_dense(&mut self, request: &Request, ids: &[usize]) -> Option<usize> {
        if ids.is_empty() {
            return None;
        }
        self.oblivious_index(request, ids.len())
            .map(|index| ids[index])
    }

    /// Pre-sizes the affinity table for `sessions` sessions so the
    /// affinity-first policy never re-grows it mid-run (a no-op for every
    /// other policy). Purely an allocation hint: an unpinned entry reads
    /// as `None` either way.
    pub(crate) fn reserve_sessions(&mut self, sessions: usize) {
        if self.kind == LoadBalancerKind::AffinityFirst && self.affinity.len() < sessions {
            self.affinity.resize(sessions, None);
        }
    }

    /// Records a successful admission so affinity follows the shard that
    /// last served the session's identity.
    pub(crate) fn note_admitted(&mut self, session: usize, shard: usize) {
        if self.kind != LoadBalancerKind::AffinityFirst {
            return;
        }
        if session >= self.affinity.len() {
            self.affinity.resize(session + 1, None);
        }
        self.affinity[session] = Some(shard);
    }
}

/// The least-loaded candidate by `(load_us, queued, global id)`, preferring
/// shards with queue space; only when every queue is full does the pick
/// fall back to the least-loaded full shard (where the engine will record
/// the drop).
fn least_loaded(shards: &[(usize, ShardLoad)], now_us: u64, capacity: usize) -> usize {
    let pick = |require_space: bool| {
        shards
            .iter()
            .filter(|(_, load)| !require_space || load.queued < capacity)
            .min_by_key(|(id, load)| (load.load_us(now_us), load.queued, *id))
            .map(|(id, _)| *id)
    };
    pick(true)
        .or_else(|| pick(false))
        .expect("placement needs at least one candidate shard")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_model;

    fn request(session: usize, branch: usize) -> Request {
        Request {
            id: 0,
            session,
            branch,
            issued_at_us: 0,
            class: crate::QosClass::Standard,
        }
    }

    fn idle(shards: usize) -> Vec<(usize, ShardLoad)> {
        (0..shards)
            .map(|id| {
                (
                    id,
                    ShardLoad {
                        queued: 0,
                        free_at_us: 0,
                        backlog_us: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_over_the_shards() {
        let mut balancer = Balancer::new(LoadBalancerKind::RoundRobin);
        let loads = idle(3);
        let picks: Vec<usize> = (0..6)
            .map(|_| balancer.place(&request(0, 0), &loads, 0, 16))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn branch_sharding_is_static_by_branch() {
        let mut balancer = Balancer::new(LoadBalancerKind::BranchSharded);
        let loads = idle(2);
        assert_eq!(balancer.place(&request(0, 0), &loads, 0, 16), 0);
        assert_eq!(balancer.place(&request(3, 1), &loads, 0, 16), 1);
        assert_eq!(balancer.place(&request(7, 2), &loads, 0, 16), 0);
    }

    #[test]
    fn least_loaded_follows_the_free_hint_and_backlog() {
        let mut balancer = Balancer::new(LoadBalancerKind::LeastLoaded);
        let loads = vec![
            (
                0,
                ShardLoad {
                    queued: 2,
                    free_at_us: 9_000,
                    backlog_us: 8_000,
                },
            ),
            (
                1,
                ShardLoad {
                    queued: 1,
                    free_at_us: 4_000,
                    backlog_us: 2_000,
                },
            ),
        ];
        // Shard 1: 3_000 µs remaining busy + 2_000 backlog < shard 0's
        // 8_000 + 8_000.
        assert_eq!(balancer.place(&request(0, 0), &loads, 1_000, 16), 1);
    }

    #[test]
    fn least_loaded_avoids_full_queues_while_space_remains() {
        let mut balancer = Balancer::new(LoadBalancerKind::LeastLoaded);
        let loads = vec![
            (
                0,
                ShardLoad {
                    queued: 4,
                    free_at_us: 0,
                    backlog_us: 0,
                },
            ),
            (
                1,
                ShardLoad {
                    queued: 3,
                    free_at_us: 50_000,
                    backlog_us: 40_000,
                },
            ),
        ];
        // Shard 0 is lighter but full (capacity 4): the heavier shard with
        // space wins; once both are full the lighter one takes the drop.
        assert_eq!(balancer.place(&request(0, 0), &loads, 0, 4), 1);
        assert_eq!(balancer.place(&request(0, 0), &loads, 0, 3), 0);
    }

    #[test]
    fn affinity_pins_a_session_and_spills_only_when_full() {
        let mut balancer = Balancer::new(LoadBalancerKind::AffinityFirst);
        let mut loads = idle(2);
        // First placement: least-loaded picks shard 0; admission pins it.
        assert_eq!(balancer.place(&request(5, 0), &loads, 0, 2), 0);
        balancer.note_admitted(5, 0);
        // Even with shard 0 busier, the pin holds while it has space…
        loads[0].1 = ShardLoad {
            queued: 1,
            free_at_us: 90_000,
            backlog_us: 9_000,
        };
        assert_eq!(balancer.place(&request(5, 1), &loads, 0, 2), 0);
        // …and spills (re-pinning on admission) once the queue fills.
        loads[0].1.queued = 2;
        assert_eq!(balancer.place(&request(5, 2), &loads, 0, 2), 1);
        balancer.note_admitted(5, 1);
        assert_eq!(balancer.place(&request(5, 0), &loads, 0, 2), 1);
    }

    #[test]
    fn affinity_re_places_when_the_pinned_shard_leaves_the_candidate_set() {
        // A session pinned to a shard that failed (or is draining) no
        // longer finds it among the placeable candidates and falls back to
        // the least-loaded survivor.
        let mut balancer = Balancer::new(LoadBalancerKind::AffinityFirst);
        balancer.note_admitted(3, 0);
        let survivors = vec![(
            1,
            ShardLoad {
                queued: 1,
                free_at_us: 5_000,
                backlog_us: 4_000,
            },
        )];
        assert_eq!(balancer.place(&request(3, 0), &survivors, 0, 16), 1);
    }

    #[test]
    fn uniform_fleets_clamp_to_at_least_one_shard() {
        let config = FleetConfig::uniform(test_model(), 0);
        assert_eq!(config.shards.len(), 1);
        assert_eq!(config.branch_count(), 3);
        assert_eq!(config.balancer, LoadBalancerKind::RoundRobin);
        let fleet =
            FleetConfig::uniform(test_model(), 4).with_balancer(LoadBalancerKind::AffinityFirst);
        assert_eq!(fleet.shards.len(), 4);
        assert_eq!(fleet.balancer.name(), "affinity");
    }

    #[test]
    #[should_panic(expected = "same branch structure")]
    fn heterogeneous_fleets_reject_mismatched_branch_counts() {
        let mut small = test_model();
        small.branches.pop();
        FleetConfig::heterogeneous(vec![test_model(), small]);
    }

    #[test]
    #[should_panic(expected = "same branch structure")]
    fn heterogeneous_fleets_reject_mismatched_branch_names() {
        let mut renamed = test_model();
        renamed.branches[1].name = "warp".into();
        FleetConfig::heterogeneous(vec![test_model(), renamed]);
    }

    #[test]
    #[should_panic(expected = "same branch structure")]
    fn heterogeneous_fleets_reject_mismatched_priorities() {
        // The report quotes one priority per branch row, so per-shard
        // priority skew would misreport half the fleet.
        let mut skewed = test_model();
        skewed.branches[2].priority = 0.9;
        FleetConfig::heterogeneous(vec![test_model(), skewed]);
    }

    #[test]
    fn heterogeneous_fleets_accept_same_structure_at_different_speeds() {
        let mut slow = test_model();
        for branch in &mut slow.branches {
            branch.frame_time_us *= 3;
        }
        let config = FleetConfig::heterogeneous(vec![test_model(), slow]);
        assert_eq!(config.shards.len(), 2);
    }
}
