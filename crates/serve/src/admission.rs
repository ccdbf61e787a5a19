//! Admission control: decide at enqueue time whether a request enters the
//! chosen shard's queue at all.
//!
//! The bounded front-end queue already sheds load, but it sheds *whoever
//! arrives last* — under a burst that is as likely to be a paying
//! interactive session as a background prefetch. An [`AdmissionKind`]
//! moves that decision ahead of the queue: the engine consults
//! [`AdmissionKind::admits`] once per arrival (after the balancer picks the
//! shard, before the capacity check), and a rejected request is counted
//! **shed** — a fourth terminal outcome next to completed, dropped and
//! lost, with conservation `completed + dropped + lost + shed == issued`.
//!
//! Three policies, all stateless:
//!
//! - [`AdmissionKind::AdmitAll`] — never sheds; the legacy behaviour and
//!   the [`ServeSpec`](crate::ServeSpec) default.
//! - [`AdmissionKind::QueueThreshold`] — sheds lower tiers *before* the
//!   queue saturates: each class has an occupancy fraction above which it
//!   is turned away, so a filling queue stays reserved for the classes
//!   that can still use it.
//! - [`AdmissionKind::BudgetAware`] — early rejection on the SLO itself: a
//!   request is shed when its projected completion (fabric busy time +
//!   the backlog of same-or-higher-weight work + its own service) already
//!   exceeds its class budget — serving it would burn fabric time on a
//!   frame that misses its deadline anyway.

use crate::cast::usize_to_f64;
use crate::qos::{QosClass, CLASS_COUNT};
use crate::request::Request;

/// Queue occupancy fraction at which [`AdmissionKind::QueueThreshold`]
/// sheds each class, indexed by [`QosClass::index`]: interactive only at a
/// full queue, standard at three quarters, best-effort at half.
const QUEUE_THRESHOLD_FRACTIONS: [f64; CLASS_COUNT] = [1.0, 0.75, 0.5];

/// The shard-local state an admission decision may inspect: the chosen
/// shard's queue occupancy, fabric readiness and per-class backlog, plus
/// the single-request service estimate of the arriving request's branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmissionView {
    /// Requests currently queued on the chosen shard.
    pub queued: usize,
    /// The scenario's front-end queue capacity.
    pub capacity: usize,
    /// Instant the shard's fabric frees (its last dispatch completion).
    pub free_at_us: u64,
    /// Estimated queued service time per class, µs, indexed by
    /// [`QosClass::index`] (each request counted at its unbatched
    /// single-request cost).
    pub class_backlog_us: [u64; CLASS_COUNT],
    /// Single-request service estimate for the arriving request's branch,
    /// µs (fill + one frame).
    pub service_us: u64,
    /// Branch priority of the arriving request's branch (the weighted
    /// scheduler scores it at `class weight × this`).
    pub priority: f64,
    /// Highest branch priority the shard's model exposes — the
    /// worst-case multiplier of any queued request's class weight.
    pub max_priority: f64,
}

impl AdmissionView {
    /// Projected wait before the arriving request's own dispatch, µs:
    /// remaining fabric busy time plus the backlog the weighted scheduler
    /// could serve ahead of it. A class's backlog counts when its weight
    /// times the *highest* branch priority reaches the arriving request's
    /// own `class weight × branch priority` score — the scheduler
    /// dispatches by that product, so a lower-weight class can still
    /// outrank a high-weight request on a low-priority branch. Using the
    /// model's maximum priority keeps the projection conservative (an
    /// over-estimate) without tracking per-branch backlog.
    pub(crate) fn projected_wait_us(&self, class: QosClass, now_us: u64) -> u64 {
        let own_score = class.weight() * self.priority;
        let ahead: u64 = QosClass::all()
            .iter()
            .filter(|c| c.weight() * self.max_priority >= own_score)
            .map(|c| self.class_backlog_us[c.index()])
            .sum();
        self.free_at_us.saturating_sub(now_us) + ahead
    }
}

/// The admission policies: accept a request onto the shard's queue, or
/// shed it at the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Never shed; the bounded queue alone sheds load (by dropping whoever
    /// arrives at a full queue). The legacy classless behaviour.
    AdmitAll,
    /// Queue-depth thresholds per class: class `c` is shed once the chosen
    /// shard's occupancy reaches its fraction of the capacity (best-effort
    /// at half a queue, standard at three quarters, interactive only at a
    /// full queue), so the remaining space is progressively reserved for
    /// the higher tiers instead of being consumed first-come-first-served.
    QueueThreshold,
    /// Budget-aware early rejection: shed a request whose projected
    /// completion — fabric busy time, plus the backlog of
    /// same-or-higher-weight work, plus its own service — already exceeds
    /// its class budget, keeping the queue full of work that can still
    /// meet its SLO.
    ///
    /// The projection over-estimates the wait of the class nothing
    /// outranks (it counts whole-class backlogs at the model's worst-case
    /// branch priority, and nothing arriving later can jump ahead of that
    /// class), so admitted interactive requests overwhelmingly complete
    /// inside their budget — the mechanism behind the example's ≥ 95 %
    /// attainment claim. For the middle tiers the projection is a
    /// snapshot: interactive work arriving *after* admission still jumps
    /// the queue, so their attainment improves but is not guaranteed.
    BudgetAware,
}

impl AdmissionKind {
    /// All admission policies.
    pub fn all() -> &'static [AdmissionKind] {
        &[
            AdmissionKind::AdmitAll,
            AdmissionKind::QueueThreshold,
            AdmissionKind::BudgetAware,
        ]
    }

    /// Policy name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionKind::AdmitAll => "admit_all",
            AdmissionKind::QueueThreshold => "queue_threshold",
            AdmissionKind::BudgetAware => "budget_aware",
        }
    }

    /// Whether `request`, arriving at `now_us` and routed to the shard
    /// described by `view`, may enter the queue. `false` sheds it.
    pub(crate) fn admits(&self, request: &Request, view: &AdmissionView, now_us: u64) -> bool {
        match self {
            AdmissionKind::AdmitAll => true,
            AdmissionKind::QueueThreshold => {
                let fraction = QUEUE_THRESHOLD_FRACTIONS[request.class.index()];
                usize_to_f64(view.queued) < fraction * usize_to_f64(view.capacity)
            }
            AdmissionKind::BudgetAware => {
                view.projected_wait_us(request.class, now_us) + view.service_us
                    <= request.class.budget_us()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(class: QosClass) -> Request {
        Request {
            id: 0,
            session: 0,
            branch: 0,
            issued_at_us: 0,
            class,
        }
    }

    fn view(queued: usize, capacity: usize) -> AdmissionView {
        AdmissionView {
            queued,
            capacity,
            free_at_us: 0,
            class_backlog_us: [0; CLASS_COUNT],
            service_us: 5_000,
            priority: 1.0,
            max_priority: 1.0,
        }
    }

    #[test]
    fn kinds_build_their_policies() {
        let names: Vec<&str> = AdmissionKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["admit_all", "queue_threshold", "budget_aware"]);
    }

    #[test]
    fn admit_all_never_sheds() {
        for class in QosClass::all() {
            assert!(AdmissionKind::AdmitAll.admits(&request(*class), &view(1_000, 4), 0));
        }
    }

    #[test]
    fn queue_thresholds_shed_lower_tiers_first() {
        let policy = AdmissionKind::QueueThreshold;
        let half_full = view(50, 100);
        assert!(policy.admits(&request(QosClass::Interactive), &half_full, 0));
        assert!(policy.admits(&request(QosClass::Standard), &half_full, 0));
        assert!(!policy.admits(&request(QosClass::BestEffort), &half_full, 0));
        let nearly_full = view(80, 100);
        assert!(policy.admits(&request(QosClass::Interactive), &nearly_full, 0));
        assert!(!policy.admits(&request(QosClass::Standard), &nearly_full, 0));
        let full = view(100, 100);
        assert!(!policy.admits(&request(QosClass::Interactive), &full, 0));
    }

    #[test]
    fn budget_aware_projects_same_or_higher_weight_backlog() {
        let policy = AdmissionKind::BudgetAware;
        let mut v = view(10, 100);
        // 30 ms interactive + 200 ms standard + 5 s best-effort backlog.
        v.class_backlog_us = [30_000, 200_000, 5_000_000];
        v.free_at_us = 10_000;
        // Interactive (100 ms budget): 10 ms busy + 30 ms own-class
        // backlog + 5 ms service = 45 ms — admitted; the best-effort
        // mountain behind it does not count.
        assert!(policy.admits(&request(QosClass::Interactive), &v, 0));
        // Standard (400 ms): 10 + 30 + 200 + 5 = 245 ms — admitted.
        assert!(policy.admits(&request(QosClass::Standard), &v, 0));
        // Best-effort (2 s): its own 5 s backlog blows the budget.
        assert!(!policy.admits(&request(QosClass::BestEffort), &v, 0));
        // Once the interactive backlog alone exceeds 100 ms, interactive
        // arrivals are shed too.
        v.class_backlog_us[0] = 120_000;
        assert!(!policy.admits(&request(QosClass::Interactive), &v, 0));
    }

    #[test]
    fn low_priority_branches_count_cross_class_backlog() {
        // Regression: the scheduler dispatches by `class weight × branch
        // priority`, so an interactive request on a 0.2-priority audio
        // branch (score 0.8) waits behind standard geometry work (score
        // up to 1.0) — the projection must count that backlog even
        // though standard's bare class weight is lower.
        let policy = AdmissionKind::BudgetAware;
        let mut v = view(10, 100);
        v.class_backlog_us = [0, 300_000, 0]; // 300 ms of standard work
        v.priority = 0.2;
        v.max_priority = 1.0;
        let audio = request(QosClass::Interactive);
        assert!(
            !policy.admits(&audio, &v, 0),
            "interactive-audio must see the standard backlog it cannot outrank"
        );
        // The same request on a priority-1.0 branch outranks everything
        // standard can offer, so only interactive backlog counts.
        v.priority = 1.0;
        assert!(policy.admits(&request(QosClass::Interactive), &v, 0));
    }

    #[test]
    fn projected_wait_respects_elapsed_busy_time() {
        let mut v = view(0, 100);
        v.free_at_us = 50_000;
        v.class_backlog_us = [10_000, 20_000, 40_000];
        // At t = 30 ms, 20 ms of fabric time remains; Standard waits
        // behind interactive + standard backlog.
        assert_eq!(v.projected_wait_us(QosClass::Standard, 30_000), 50_000);
        // Past the free instant only the backlog remains.
        assert_eq!(v.projected_wait_us(QosClass::Interactive, 80_000), 10_000);
        assert_eq!(v.projected_wait_us(QosClass::BestEffort, 80_000), 70_000);
    }
}
