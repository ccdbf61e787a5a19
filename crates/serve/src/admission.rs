//! Admission control: decide at enqueue time whether a request enters the
//! chosen shard's queue at all.
//!
//! The bounded front-end queue already sheds load, but it sheds *whoever
//! arrives last* — under a burst that is as likely to be a paying
//! interactive session as a background prefetch. An
//! [`AdmissionController`] moves that decision ahead of the queue: the
//! engine consults it once per arrival (after the balancer picks the
//! shard, before the capacity check), and a rejected request is counted
//! **shed** — a fourth terminal outcome next to completed, dropped and
//! lost, with conservation `completed + dropped + lost + shed == issued`.
//!
//! Three built-in policies:
//!
//! - [`AdmitAll`] — never sheds; the legacy behaviour and the
//!   [`ServeSpec`](crate::ServeSpec) default.
//! - [`QueueThresholdAdmission`] — sheds lower tiers *before* the queue
//!   saturates: each class has an occupancy fraction above which it is
//!   turned away, so a filling queue stays reserved for the classes that
//!   can still use it.
//! - [`BudgetAwareAdmission`] — early rejection on the SLO itself: a
//!   request is shed when its projected completion (fabric busy time +
//!   the backlog of same-or-higher-weight work + its own service) already
//!   exceeds its class budget — serving it would burn fabric time on a
//!   frame that misses its deadline anyway.

use crate::cast::usize_to_f64;
use crate::qos::{QosClass, CLASS_COUNT};
use crate::request::Request;

/// The shard-local state an admission decision may inspect: the chosen
/// shard's queue occupancy, fabric readiness and per-class backlog, plus
/// the single-request service estimate of the arriving request's branch.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionView {
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
    pub fn projected_wait_us(&self, class: QosClass, now_us: u64) -> u64 {
        let own_score = class.weight() * self.priority;
        let ahead: u64 = QosClass::all()
            .iter()
            .filter(|c| c.weight() * self.max_priority >= own_score)
            .map(|c| self.class_backlog_us[c.index()])
            .sum();
        self.free_at_us.saturating_sub(now_us) + ahead
    }
}

/// An admission policy: accept the request onto the shard's queue, or
/// shed it at the front door.
pub trait AdmissionController {
    /// Policy name (used in reports).
    fn name(&self) -> &'static str;

    /// Whether `request`, arriving at `now_us` and routed to the shard
    /// described by `view`, may enter the queue. `false` sheds it.
    fn admit(&mut self, request: &Request, view: &AdmissionView, now_us: u64) -> bool;
}

/// The built-in admission policies, as a value users can pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionKind {
    /// Never shed (the legacy classless behaviour).
    AdmitAll,
    /// Queue-depth thresholds per class: lower tiers are turned away at
    /// lower occupancy, keeping headroom for the classes above them.
    QueueThreshold,
    /// Budget-aware early rejection: shed when the projected completion
    /// already misses the class budget.
    BudgetAware,
}

impl AdmissionKind {
    /// All built-in admission policies.
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

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn AdmissionController> {
        match self {
            AdmissionKind::AdmitAll => Box::new(AdmitAll),
            AdmissionKind::QueueThreshold => Box::new(QueueThresholdAdmission::new()),
            AdmissionKind::BudgetAware => Box::new(BudgetAwareAdmission),
        }
    }
}

/// Consults `controller` and mirrors its verdict onto the trace: an
/// `Admit` or `Shed` event stamped with the chosen shard. `Shed` doubles
/// as the request's terminal event — a shed request never enters a queue,
/// so nothing else can happen to it.
pub(crate) fn admit_traced(
    controller: &mut dyn AdmissionController,
    request: &Request,
    view: &AdmissionView,
    now_us: u64,
    shard: usize,
    sink: &mut dyn fcad_obs::TraceSink,
    tracing: bool,
) -> bool {
    let admitted = controller.admit(request, view, now_us);
    if tracing {
        let kind = if admitted {
            fcad_obs::RequestEventKind::Admit
        } else {
            fcad_obs::RequestEventKind::Shed
        };
        sink.record(request.trace(now_us, Some(shard), kind));
    }
    admitted
}

/// Admit everything; the bounded queue alone sheds load (by dropping
/// whoever arrives at a full queue). The legacy engine, bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionController for AdmitAll {
    fn name(&self) -> &'static str {
        "admit_all"
    }

    fn admit(&mut self, _request: &Request, _view: &AdmissionView, _now_us: u64) -> bool {
        true
    }
}

/// Sheds class `c` once the chosen shard's queue occupancy reaches
/// `fraction(c) × capacity`: best-effort traffic is turned away at half a
/// queue, standard at three quarters, interactive only at a full queue —
/// so the remaining space is progressively reserved for the higher
/// tiers instead of being consumed first-come-first-served.
#[derive(Debug, Clone, Copy)]
pub struct QueueThresholdAdmission {
    /// Occupancy fraction at which each class is shed, indexed by
    /// [`QosClass::index`]; 1.0 means "only at a full queue".
    fractions: [f64; CLASS_COUNT],
}

impl QueueThresholdAdmission {
    /// The default thresholds: interactive 1.0, standard 0.75,
    /// best-effort 0.5.
    pub fn new() -> Self {
        Self {
            fractions: [1.0, 0.75, 0.5],
        }
    }

    /// Replaces one class's occupancy threshold (clamped to [0, 1]).
    pub fn with_fraction(mut self, class: QosClass, fraction: f64) -> Self {
        self.fractions[class.index()] = fraction.clamp(0.0, 1.0);
        self
    }
}

impl Default for QueueThresholdAdmission {
    fn default() -> Self {
        Self::new()
    }
}

impl AdmissionController for QueueThresholdAdmission {
    fn name(&self) -> &'static str {
        "queue_threshold"
    }

    fn admit(&mut self, request: &Request, view: &AdmissionView, _now_us: u64) -> bool {
        let threshold = self.fractions[request.class.index()] * usize_to_f64(view.capacity);
        usize_to_f64(view.queued) < threshold
    }
}

/// Sheds a request whose projected completion — fabric busy time, plus
/// the backlog of same-or-higher-weight work, plus its own service —
/// already exceeds its class budget. Serving such a request would spend
/// fabric time on a frame that misses its deadline anyway; rejecting it
/// early keeps the queue full of work that can still meet its SLO.
///
/// The projection over-estimates the wait of the class nothing outranks
/// (it counts whole-class backlogs at the model's worst-case branch
/// priority, and nothing arriving later can jump ahead of that class),
/// so admitted interactive requests overwhelmingly complete inside
/// their budget — the mechanism behind the example's ≥ 95 % attainment
/// claim. For the middle tiers the projection is a snapshot: interactive
/// work arriving *after* admission still jumps the queue, so their
/// attainment improves but is not guaranteed.
#[derive(Debug, Clone, Copy, Default)]
pub struct BudgetAwareAdmission;

impl AdmissionController for BudgetAwareAdmission {
    fn name(&self) -> &'static str {
        "budget_aware"
    }

    fn admit(&mut self, request: &Request, view: &AdmissionView, now_us: u64) -> bool {
        let projected = view.projected_wait_us(request.class, now_us) + view.service_us;
        projected <= request.class.budget_us()
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
        for kind in AdmissionKind::all() {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn admit_all_never_sheds() {
        let mut policy = AdmitAll;
        for class in QosClass::all() {
            assert!(policy.admit(&request(*class), &view(1_000, 4), 0));
        }
    }

    #[test]
    fn queue_thresholds_shed_lower_tiers_first() {
        let mut policy = QueueThresholdAdmission::new();
        let half_full = view(50, 100);
        assert!(policy.admit(&request(QosClass::Interactive), &half_full, 0));
        assert!(policy.admit(&request(QosClass::Standard), &half_full, 0));
        assert!(!policy.admit(&request(QosClass::BestEffort), &half_full, 0));
        let nearly_full = view(80, 100);
        assert!(policy.admit(&request(QosClass::Interactive), &nearly_full, 0));
        assert!(!policy.admit(&request(QosClass::Standard), &nearly_full, 0));
        let full = view(100, 100);
        assert!(!policy.admit(&request(QosClass::Interactive), &full, 0));
    }

    #[test]
    fn queue_threshold_fractions_are_tunable() {
        let mut strict = QueueThresholdAdmission::new().with_fraction(QosClass::Interactive, 0.1);
        assert!(!strict.admit(&request(QosClass::Interactive), &view(10, 100), 0));
        assert!(strict.admit(&request(QosClass::Interactive), &view(9, 100), 0));
        // Clamp: out-of-range fractions behave like their nearest bound.
        let mut never = QueueThresholdAdmission::new().with_fraction(QosClass::Standard, -3.0);
        assert!(!never.admit(&request(QosClass::Standard), &view(0, 100), 0));
    }

    #[test]
    fn budget_aware_projects_same_or_higher_weight_backlog() {
        let mut policy = BudgetAwareAdmission;
        let mut v = view(10, 100);
        // 30 ms interactive + 200 ms standard + 5 s best-effort backlog.
        v.class_backlog_us = [30_000, 200_000, 5_000_000];
        v.free_at_us = 10_000;
        // Interactive (100 ms budget): 10 ms busy + 30 ms own-class
        // backlog + 5 ms service = 45 ms — admitted; the best-effort
        // mountain behind it does not count.
        assert!(policy.admit(&request(QosClass::Interactive), &v, 0));
        // Standard (400 ms): 10 + 30 + 200 + 5 = 245 ms — admitted.
        assert!(policy.admit(&request(QosClass::Standard), &v, 0));
        // Best-effort (2 s): its own 5 s backlog blows the budget.
        assert!(!policy.admit(&request(QosClass::BestEffort), &v, 0));
        // Once the interactive backlog alone exceeds 100 ms, interactive
        // arrivals are shed too.
        v.class_backlog_us[0] = 120_000;
        assert!(!policy.admit(&request(QosClass::Interactive), &v, 0));
    }

    #[test]
    fn low_priority_branches_count_cross_class_backlog() {
        // Regression: the scheduler dispatches by `class weight × branch
        // priority`, so an interactive request on a 0.2-priority audio
        // branch (score 0.8) waits behind standard geometry work (score
        // up to 1.0) — the projection must count that backlog even
        // though standard's bare class weight is lower.
        let mut policy = BudgetAwareAdmission;
        let mut v = view(10, 100);
        v.class_backlog_us = [0, 300_000, 0]; // 300 ms of standard work
        v.priority = 0.2;
        v.max_priority = 1.0;
        let audio = request(QosClass::Interactive);
        assert!(
            !policy.admit(&audio, &v, 0),
            "interactive-audio must see the standard backlog it cannot outrank"
        );
        // The same request on a priority-1.0 branch outranks everything
        // standard can offer, so only interactive backlog counts.
        v.priority = 1.0;
        assert!(policy.admit(&request(QosClass::Interactive), &v, 0));
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
