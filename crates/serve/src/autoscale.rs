//! Dynamic-fleet serving: the autoscaling policy and the shard failure
//! injector.
//!
//! A fixed, always-healthy fleet answers "how fast", but the telepresence
//! question is "how available": Auto-CARD frames codec-avatar decoding as a
//! latency-critical, resource-elastic mobile workload, and a fleet sized
//! for the diurnal peak wastes most of its devices off-peak while a fleet
//! sized for the trough melts under bursts. The [`Autoscaler`] closes that
//! gap by spinning shards up when the mean queue depth crosses a threshold
//! and draining idle shards back down — with a warm-up penalty before a
//! spawned shard serves, because a fresh accelerator must stream identity
//! weights before it can decode anyone's avatar.
//!
//! The [`FailurePlan`] injects the other half of the availability story: a
//! shard dies mid-run (at a scheduled instant or a seeded pseudo-random
//! one), its queued requests lose their affinity and re-place through the
//! live balancer — re-paying the identity weight fill on their new shard
//! unless it is still warming — and whatever cannot be re-placed is
//! *lost*, a third terminal outcome next to completed and dropped.
//!
//! Both knobs are plain data carried by
//! [`ServeSpec`](crate::ServeSpec); the no-op policy plus the empty
//! failure plan — the spec's default — are the fixed fleet.

use crate::cast::usize_to_u64;

/// Lifecycle state of one fleet shard. A fixed fleet keeps every shard
/// [`ShardState::Active`] for the whole run; the autoscaler and the failure
/// injector move shards through the other states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Spawned but still streaming identity weights (the warm-up fill
    /// penalty): receives placements only if no active shard exists and
    /// dispatches nothing until warmed.
    Warming,
    /// Serving: receives placements and dispatches queued work.
    Active,
    /// Winding down: receives no new placements, still dispatches its
    /// queued work, and retires once the queue is empty.
    Draining,
    /// Drained and decommissioned by the autoscaler.
    Retired,
    /// Killed by the failure injector; its queued requests were re-placed
    /// through the balancer or lost.
    Failed,
}

impl ShardState {
    /// State name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            ShardState::Warming => "warming",
            ShardState::Active => "active",
            ShardState::Draining => "draining",
            ShardState::Retired => "retired",
            ShardState::Failed => "failed",
        }
    }

    /// Whether the shard still exists in the fleet (it may yet serve work).
    pub(crate) fn is_alive(&self) -> bool {
        matches!(
            self,
            ShardState::Warming | ShardState::Active | ShardState::Draining
        )
    }

    /// Whether the shard dispatches queued work (warming shards hold their
    /// queue until filled; dead shards hold nothing).
    pub(crate) fn dispatches(&self) -> bool {
        matches!(self, ShardState::Active | ShardState::Draining)
    }
}

/// The autoscaling policy: when to spawn a shard, how long a spawned shard
/// warms up, and when to drain an idle shard back out of the fleet.
///
/// All triggers are evaluated at deterministic points of the event loop
/// (the queue-depth scale-up after each arrival placed on a shard, idle
/// retirement through scheduled idle checks), so an autoscaled run is as
/// reproducible as a fixed-fleet one. [`Autoscaler::none`] disables every
/// trigger and reproduces the fixed fleet bit for bit.
///
/// Composition with admission control: shed requests never enter a queue,
/// so a shedding [`AdmissionKind`](crate::AdmissionKind) damps the
/// queue-depth trigger — an admission policy that protects the SLO by
/// rejecting load and a scaling policy that protects it by buying capacity
/// are deliberately independent knobs of the same run.
#[derive(Debug, Clone, PartialEq)]
pub struct Autoscaler {
    /// Fewest alive shards the policy tolerates: scale-down never drains
    /// below it, and a failure triggers replacement spawns back up to it.
    /// 0 (the no-op policy) disables replacement entirely.
    pub min_shards: usize,
    /// Most alive shards the policy ever runs; scale-up stops here.
    pub max_shards: usize,
    /// Spawn a shard when the mean queue depth across active shards
    /// reaches this many requests (0 disables the queue trigger).
    pub scale_up_queue_depth: usize,
    /// Warm-up a spawned shard pays before serving, µs: the time to stream
    /// identity weights into a cold accelerator.
    pub warmup_us: u64,
    /// Minimum spacing between trigger-driven spawns, µs (failure
    /// replacement ignores the cooldown — availability first).
    pub cooldown_us: u64,
    /// Drain an active shard once it has sat idle this long, µs
    /// (0 disables idle retirement).
    pub idle_retire_us: u64,
    /// Forced drains at scheduled instants `(at_us, shard)`, applied on
    /// top of the idle trigger; refused if they would leave fewer than
    /// `max(min_shards, 1)` active shards.
    pub drains: Vec<(u64, usize)>,
}

impl Autoscaler {
    /// The no-op policy: no triggers, no drains, no replacement — the
    /// fleet stays exactly as configured. With [`FailurePlan::none`] it is
    /// the [`ServeSpec`](crate::ServeSpec) default.
    pub fn none() -> Self {
        Self {
            min_shards: 0,
            max_shards: usize::MAX,
            scale_up_queue_depth: 0,
            warmup_us: 0,
            cooldown_us: 0,
            idle_retire_us: 0,
            drains: Vec::new(),
        }
    }

    /// A reactive policy between `min_shards` and `max_shards` alive
    /// shards: spawn on queue pressure (mean depth ≥ 6 per active shard,
    /// 100 ms cooldown, 25 ms warm-up fill), retire after 400 ms idle, and
    /// respawn to `min_shards` after a failure.
    pub fn reactive(min_shards: usize, max_shards: usize) -> Self {
        assert!(
            min_shards >= 1 && min_shards <= max_shards,
            "reactive policy needs 1 <= min_shards <= max_shards"
        );
        Self {
            min_shards,
            max_shards,
            scale_up_queue_depth: 6,
            warmup_us: 25_000,
            cooldown_us: 100_000,
            idle_retire_us: 400_000,
            drains: Vec::new(),
        }
    }

    /// Replaces the queue-pressure trigger depth (0 disables it).
    pub fn with_scale_up_queue_depth(mut self, depth: usize) -> Self {
        self.scale_up_queue_depth = depth;
        self
    }

    /// Replaces the warm-up weight-fill penalty.
    pub fn with_warmup_us(mut self, warmup_us: u64) -> Self {
        self.warmup_us = warmup_us;
        self
    }

    /// Replaces the spawn cooldown.
    pub fn with_cooldown_us(mut self, cooldown_us: u64) -> Self {
        self.cooldown_us = cooldown_us;
        self
    }

    /// Replaces the idle-retirement threshold (0 disables it).
    pub fn with_idle_retire_us(mut self, idle_retire_us: u64) -> Self {
        self.idle_retire_us = idle_retire_us;
        self
    }

    /// Schedules a forced drain of `shard` at `at_us`.
    pub fn with_scheduled_drain(mut self, at_us: u64, shard: usize) -> Self {
        self.drains.push((at_us, shard));
        self
    }
}

/// Which shard a kill hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum KillTarget {
    /// An explicit shard index; the kill is skipped if that shard does not
    /// exist or is already dead at fire time.
    Shard(usize),
    /// A seeded pseudo-random pick among the shards active at fire time
    /// (skipped if none is active).
    Seeded(u64),
}

/// One scheduled kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Kill {
    /// When the shard dies, µs since simulation start.
    pub at_us: u64,
    /// Which shard dies.
    pub target: KillTarget,
}

/// The failure injection plan: which shards die when. A re-placed request
/// re-pays its branch's weight fill on a destination shard that is not
/// warming (the migrated session's decoder weights must be re-streamed).
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePlan {
    kills: Vec<Kill>,
}

impl FailurePlan {
    /// No failures: every shard survives the whole run.
    pub fn none() -> Self {
        Self { kills: Vec::new() }
    }

    /// Kills the listed shards at the listed instants (µs since simulation
    /// start). A kill whose shard is already dead — or never existed — is
    /// skipped at fire time.
    pub fn scheduled(kills: &[(u64, usize)]) -> Self {
        let mut kills: Vec<Kill> = kills
            .iter()
            .map(|&(at_us, shard)| Kill {
                at_us,
                target: KillTarget::Shard(shard),
            })
            .collect();
        kills.sort_by_key(|k| k.at_us);
        Self { kills }
    }

    /// `count` seeded kills spread deterministically over the middle of
    /// the `horizon_us` window (between 20 % and 80 % of it, so failures
    /// land while traffic is live); each kill picks pseudo-randomly among
    /// the shards active when it fires. The same seed always produces the
    /// same failure trace.
    pub fn seeded(seed: u64, count: usize, horizon_us: u64) -> Self {
        let lo = horizon_us / 5;
        let span = (horizon_us - lo).saturating_sub(lo).max(1);
        let mut kills: Vec<Kill> = (0..count)
            .map(|k| Kill {
                at_us: lo + mix(seed, 2 * usize_to_u64(k)) % span,
                target: KillTarget::Seeded(mix(seed, 2 * usize_to_u64(k) + 1)),
            })
            .collect();
        kills.sort_by_key(|k| k.at_us);
        Self { kills }
    }

    /// Whether the plan injects no failure at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    /// The first scheduled kill instant, µs — the split point between the
    /// report's pre-failure and post-failure latency summaries.
    pub fn first_kill_us(&self) -> Option<u64> {
        self.kills.first().map(|k| k.at_us)
    }

    pub(crate) fn kills(&self) -> &[Kill] {
        &self.kills
    }
}

/// SplitMix64-style finalizer over `(seed, stream)`: the crate's one
/// derivation of independent deterministic streams from a single seed —
/// the scenario generators use it for per-session RNG seeds and QoS
/// class draws, the failure injector for kill times and victim picks. A
/// plain `seed ^ stream × GOLDEN` would collide with the stub RNG's own
/// per-draw increment.
pub(crate) fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_obs::FleetEventKind;

    #[test]
    fn the_noop_policy_disables_every_trigger() {
        let policy = Autoscaler::none();
        assert_eq!(policy.min_shards, 0);
        assert_eq!(policy.scale_up_queue_depth, 0);
        assert_eq!(policy.idle_retire_us, 0);
        assert!(policy.drains.is_empty());
    }

    #[test]
    fn reactive_policy_builders_replace_their_knobs() {
        let policy = Autoscaler::reactive(2, 6)
            .with_scale_up_queue_depth(3)
            .with_warmup_us(10_000)
            .with_cooldown_us(5_000)
            .with_idle_retire_us(0)
            .with_scheduled_drain(400_000, 1);
        assert_eq!(policy.min_shards, 2);
        assert_eq!(policy.max_shards, 6);
        assert_eq!(policy.scale_up_queue_depth, 3);
        assert_eq!(policy.warmup_us, 10_000);
        assert_eq!(policy.cooldown_us, 5_000);
        assert_eq!(policy.idle_retire_us, 0);
        assert_eq!(policy.drains, vec![(400_000, 1)]);
    }

    #[test]
    #[should_panic(expected = "min_shards <= max_shards")]
    fn reactive_policy_rejects_inverted_bounds() {
        Autoscaler::reactive(4, 2);
    }

    #[test]
    fn scheduled_plans_sort_kills_by_time() {
        let plan = FailurePlan::scheduled(&[(900_000, 1), (200_000, 0)]);
        assert_eq!(plan.first_kill_us(), Some(200_000));
        assert!(!plan.is_empty());
        assert_eq!(plan.kills().len(), 2);
        assert!(plan.kills().windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_mid_window() {
        let a = FailurePlan::seeded(7, 3, 2_000_000);
        let b = FailurePlan::seeded(7, 3, 2_000_000);
        assert_eq!(a, b);
        for kill in a.kills() {
            assert!(
                kill.at_us >= 400_000 && kill.at_us < 1_600_000,
                "kill at {} µs outside the 20–80 % window",
                kill.at_us
            );
        }
        let c = FailurePlan::seeded(8, 3, 2_000_000);
        assert_ne!(a, c, "different seeds must shift the failure trace");
    }

    #[test]
    fn empty_plan_has_no_split_point() {
        assert!(FailurePlan::none().is_empty());
        assert_eq!(FailurePlan::none().first_kill_us(), None);
    }

    #[test]
    fn state_and_event_names_are_stable() {
        assert_eq!(ShardState::Warming.name(), "warming");
        assert_eq!(ShardState::Active.name(), "active");
        assert_eq!(ShardState::Draining.name(), "draining");
        assert_eq!(ShardState::Retired.name(), "retired");
        assert_eq!(ShardState::Failed.name(), "failed");
        assert_eq!(FleetEventKind::Up.name(), "up");
        assert_eq!(FleetEventKind::Warm.name(), "warm");
        assert_eq!(FleetEventKind::Drain.name(), "drain");
        assert_eq!(FleetEventKind::Retire.name(), "retire");
        assert_eq!(FleetEventKind::Fail.name(), "fail");
    }

    #[test]
    fn alive_and_dispatching_track_the_lifecycle() {
        assert!(ShardState::Warming.is_alive());
        assert!(!ShardState::Warming.dispatches());
        assert!(ShardState::Active.dispatches());
        assert!(ShardState::Draining.dispatches());
        assert!(ShardState::Draining.is_alive());
        assert!(!ShardState::Retired.is_alive());
        assert!(!ShardState::Failed.dispatches());
    }
}
