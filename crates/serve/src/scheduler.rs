//! The scheduling disciplines of the shared accelerator.
//!
//! The engine owns admission (queue capacity and drops); schedulers own
//! ordering and batching. All queued requests have already arrived, so a
//! scheduler may inspect the whole queue when picking the next dispatch.
//! Every branch is dispatchable the moment the shard's fabric frees, so a
//! pick depends on the queue, the service model and the current instant
//! alone.
//!
//! Every discipline but FIFO keeps one FIFO lane per branch (batch) or per
//! `(branch, class)` (priority, deadline) and picks by scanning the lane
//! heads: at most nine for the paper's three-branch decoder under the
//! three QoS classes. Exact ties go to the lowest `(branch, class)`, the
//! scan order. These are the only implementations: the frozen loop in
//! [`crate::reference`] builds them through [`SchedulerKind::build`] too.

use crate::cast::u64_to_f64;
use crate::model::ServiceModel;
use crate::qos::CLASS_COUNT;
use crate::request::Request;
use std::collections::VecDeque;

/// A scheduling discipline: accepts admitted requests and, whenever the
/// shared weight-streaming DMA is free, picks the next same-branch batch
/// to dispatch. The set is closed ([`SchedulerKind`]); a shard holds its
/// discipline as the `Box<dyn Scheduler>` that [`SchedulerKind::build`]
/// returns.
///
/// `Send` is a supertrait because the parallel engines move live shards —
/// scheduler included — onto scoped worker threads; every discipline is
/// plain data, so the bound costs nothing.
pub(crate) trait Scheduler: Send {
    /// Discipline name (used in reports).
    fn name(&self) -> &'static str;

    /// Accepts an admitted request.
    fn enqueue(&mut self, request: Request);

    /// Number of queued requests.
    fn queued(&self) -> usize;

    /// Removes and returns the next batch to dispatch at `now_us`. All
    /// returned requests target the same branch; the batch is non-empty
    /// whenever `queued() > 0`.
    fn next_batch(&mut self, model: &ServiceModel, now_us: u64) -> Vec<Request>;
}

/// The scheduling disciplines, as a value users can pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Strict arrival order, one request per dispatch.
    Fifo,
    /// Weighted cross-class priority: highest `class weight × branch
    /// priority` first (visual branches outrank audio, interactive
    /// sessions outrank best-effort), with waiting-time aging so neither
    /// low-priority branches nor low classes can starve.
    PriorityByBranch,
    /// Aggregates same-branch requests into batches up to the DSE-chosen
    /// batch size, amortizing pipeline fill.
    BatchAggregating,
    /// Earliest-deadline-first within class bands: among the queue heads,
    /// serve the one whose absolute deadline (`arrival + class budget`)
    /// comes soonest, with the class order as the outer band so
    /// interactive work always outranks best-effort. FIFO within a
    /// `(branch, class)` lane, one request per dispatch.
    Deadline,
}

impl SchedulerKind {
    /// All disciplines. Returns a slice so adding a discipline does not
    /// ripple a fixed array length through every call site.
    pub fn all() -> &'static [SchedulerKind] {
        &[
            SchedulerKind::Fifo,
            SchedulerKind::PriorityByBranch,
            SchedulerKind::BatchAggregating,
            SchedulerKind::Deadline,
        ]
    }

    /// Instantiates the discipline.
    pub(crate) fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::new()),
            SchedulerKind::PriorityByBranch => Box::new(PriorityScheduler::new()),
            SchedulerKind::BatchAggregating => Box::new(BatchScheduler::new()),
            SchedulerKind::Deadline => Box::new(DeadlineScheduler::new()),
        }
    }
}

/// Strict FIFO: one global queue, one request per dispatch (every dispatch
/// pays the full pipeline-fill overhead).
#[derive(Debug, Default)]
pub(crate) struct FifoScheduler {
    queue: VecDeque<Request>,
}

impl FifoScheduler {
    /// Creates an empty FIFO queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn enqueue(&mut self, request: Request) {
        self.queue.push_back(request);
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn next_batch(&mut self, _model: &ServiceModel, _now_us: u64) -> Vec<Request> {
        self.queue.pop_front().into_iter().collect()
    }
}

/// Score points a queued request gains per second of waiting under
/// [`PriorityScheduler`]: a low-priority request overtakes a fresh
/// priority-1.0 request after waiting `(1.0 - its priority) / 0.25`
/// seconds (≈ 3.4 s for the 0.15 audio-like branch), so priorities
/// dominate at frame timescales while starvation stays bounded.
const AGING_PER_SEC: f64 = 0.25;

/// One FIFO lane per `(branch, class)`, branch-major, and their total
/// length: the queue the priority and deadline disciplines pick from.
#[derive(Debug, Default)]
struct ClassLanes {
    lanes: Vec<[VecDeque<Request>; CLASS_COUNT]>,
    queued: usize,
}

impl ClassLanes {
    fn push(&mut self, request: Request) {
        if request.branch >= self.lanes.len() {
            self.lanes.resize_with(request.branch + 1, Default::default);
        }
        self.lanes[request.branch][request.class.index()].push_back(request);
        self.queued += 1;
    }

    /// Every non-empty lane's head as `(branch, class, head)`, in
    /// ascending `(branch, class)` order.
    fn heads(&self) -> impl Iterator<Item = (usize, usize, &Request)> {
        self.lanes.iter().enumerate().flat_map(|(branch, lanes)| {
            lanes
                .iter()
                .enumerate()
                .filter_map(move |(class, lane)| lane.front().map(|head| (branch, class, head)))
        })
    }

    /// Pops the head of the picked `(branch, class)` lane as a
    /// one-request batch; no pick is the empty batch.
    fn pop(&mut self, pick: Option<(usize, usize)>) -> Vec<Request> {
        let Some((branch, class)) = pick else {
            return Vec::new();
        };
        self.queued -= 1;
        self.lanes[branch][class].pop_front().into_iter().collect()
    }
}

/// Weighted cross-class priority: serves the `(branch, class)` lane whose
/// head request has the highest `class weight × branch priority +
/// 0.25/s · wait` score, FIFO within a lane, one request per dispatch.
///
/// The class weight multiplies the branch priority, so an interactive
/// session's audio branch still yields to anyone's visual branch only as
/// far as the weights say — and a run where every request is `Standard`
/// (weight exactly 1.0) scores identically to the classless
/// priority-by-branch discipline, which keeps the legacy path
/// bit-identical.
///
/// The aging term bounds starvation: a low-scoring head's score grows
/// linearly with its waiting time until it overtakes the high-weight
/// lanes. An exact score tie goes to the lowest branch, then to the
/// lowest class index.
#[derive(Debug, Default)]
pub(crate) struct PriorityScheduler {
    lanes: ClassLanes,
}

impl PriorityScheduler {
    /// Creates the discipline with empty per-`(branch, class)` lanes.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for PriorityScheduler {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn enqueue(&mut self, request: Request) {
        self.lanes.push(request);
    }

    fn queued(&self) -> usize {
        self.lanes.queued
    }

    /// Scores every lane head; the strict `>` keeps the first of exactly
    /// tied heads in scan order, the lowest `(branch, class)`.
    fn next_batch(&mut self, model: &ServiceModel, now_us: u64) -> Vec<Request> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (branch, class, head) in self.lanes.heads() {
            let wait_sec = u64_to_f64(head.latency_us(now_us)) / 1e6;
            let score = head.class.weight() * model.priority(branch) + AGING_PER_SEC * wait_sec;
            if best.is_none_or(|(top, _, _)| score > top) {
                best = Some((score, branch, class));
            }
        }
        self.lanes
            .pop(best.map(|(_, branch, class)| (branch, class)))
    }
}

/// Batch-aggregating: serves the branch whose head has waited longest
/// (FIFO across branches at batch granularity) and dispatches up to the
/// DSE-chosen batch size of that branch in one go, paying pipeline fill
/// once per batch. Heads that arrived at the same instant go to the
/// lowest branch.
#[derive(Debug, Default)]
pub(crate) struct BatchScheduler {
    queues: Vec<VecDeque<Request>>,
    queued: usize,
}

impl BatchScheduler {
    /// Creates the discipline with empty per-branch queues.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for BatchScheduler {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn enqueue(&mut self, request: Request) {
        if request.branch >= self.queues.len() {
            self.queues.resize_with(request.branch + 1, VecDeque::new);
        }
        self.queues[request.branch].push_back(request);
        self.queued += 1;
    }

    fn queued(&self) -> usize {
        self.queued
    }

    fn next_batch(&mut self, model: &ServiceModel, _now_us: u64) -> Vec<Request> {
        let oldest = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(branch, queue)| queue.front().map(|head| (head.issued_at_us, branch)))
            .min();
        let Some((_, branch)) = oldest else {
            return Vec::new();
        };
        let take = model.max_batch(branch).min(self.queues[branch].len());
        let batch: Vec<Request> = self.queues[branch].drain(..take).collect();
        self.queued -= batch.len();
        batch
    }
}

/// Earliest-deadline-first within class bands: serves the `(branch,
/// class)` lane whose head minimizes `(class index, absolute deadline,
/// branch)`, FIFO within a lane, one request per dispatch.
///
/// The absolute deadline is [`Request::deadline_us`] — `arrival + class
/// budget` — so within a class band the discipline is classic EDF over
/// the lane heads; the class index as the outer key keeps interactive
/// work ahead of best-effort even when the best-effort deadline happens
/// to come sooner (its budget is 20× longer, so in practice it rarely
/// does).
#[derive(Debug, Default)]
pub(crate) struct DeadlineScheduler {
    lanes: ClassLanes,
}

impl DeadlineScheduler {
    /// Creates the discipline with empty per-lane queues.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for DeadlineScheduler {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn enqueue(&mut self, request: Request) {
        self.lanes.push(request);
    }

    fn queued(&self) -> usize {
        self.lanes.queued
    }

    fn next_batch(&mut self, _model: &ServiceModel, _now_us: u64) -> Vec<Request> {
        let tightest = self
            .lanes
            .heads()
            .map(|(branch, class, head)| (class, head.deadline_us(), branch))
            .min();
        self.lanes
            .pop(tightest.map(|(class, _, branch)| (branch, class)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_model;
    use crate::qos::QosClass;

    fn request(id: u64, branch: usize, issued_at_us: u64) -> Request {
        Request {
            id,
            session: 0,
            branch,
            issued_at_us,
            class: QosClass::Standard,
        }
    }

    fn classed(id: u64, branch: usize, class: QosClass, issued_at_us: u64) -> Request {
        Request {
            class,
            ..request(id, branch, issued_at_us)
        }
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let model = test_model();
        let mut fifo = FifoScheduler::new();
        for (id, branch) in [(0, 2), (1, 0), (2, 1)] {
            fifo.enqueue(request(id, branch, id * 10));
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| fifo.next_batch(&model, 100).first().map(|r| r.id))
                .take(3)
                .collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(fifo.queued(), 0);
    }

    #[test]
    fn priority_serves_visual_branches_before_audio() {
        let model = test_model(); // branch 2 has priority 0.2
        let mut sched = PriorityScheduler::new();
        sched.enqueue(request(0, 2, 0));
        sched.enqueue(request(1, 1, 0));
        sched.enqueue(request(2, 0, 0));
        let first = sched.next_batch(&model, 0)[0];
        let second = sched.next_batch(&model, 0)[0];
        let third = sched.next_batch(&model, 0)[0];
        // Branches 0 and 1 tie at priority 1.0: the lowest branch wins,
        // not the lane that filled first.
        assert_eq!(first.branch, 0);
        assert_eq!(second.branch, 1);
        assert_eq!(third.branch, 2);
    }

    #[test]
    fn aging_lets_a_starving_branch_overtake() {
        let model = test_model();
        let mut sched = PriorityScheduler::new();
        // Audio request waiting 4 s: score 0.2 + 0.25·4 = 1.2 beats a
        // fresh visual request's 1.0.
        sched.enqueue(request(0, 2, 0));
        sched.enqueue(request(1, 0, 4_000_000));
        let first = sched.next_batch(&model, 4_000_000)[0];
        assert_eq!(first.branch, 2, "aged audio request must be served first");
    }

    #[test]
    fn class_weight_multiplies_the_branch_priority() {
        let model = test_model(); // branches 0/1 priority 1.0, branch 2: 0.2
        let mut sched = PriorityScheduler::new();
        // Interactive audio (4.0 × 0.2 = 0.8) still yields to standard
        // geometry (1.0 × 1.0), but best-effort geometry (0.25) yields to
        // both.
        sched.enqueue(classed(0, 0, QosClass::BestEffort, 0));
        sched.enqueue(classed(1, 2, QosClass::Interactive, 0));
        sched.enqueue(classed(2, 0, QosClass::Standard, 0));
        let order: Vec<u64> = (0..3).map(|_| sched.next_batch(&model, 0)[0].id).collect();
        assert_eq!(order, vec![2, 1, 0]);
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn same_branch_fifo_holds_within_a_class_and_weight_across_classes() {
        let model = test_model();
        let mut sched = PriorityScheduler::new();
        sched.enqueue(classed(0, 1, QosClass::Standard, 0));
        sched.enqueue(classed(1, 1, QosClass::Interactive, 10));
        sched.enqueue(classed(2, 1, QosClass::Interactive, 20));
        let order: Vec<u64> = (0..3).map(|_| sched.next_batch(&model, 30)[0].id).collect();
        // Interactive jumps the standard head; within interactive, FIFO.
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn aging_lets_a_low_class_overtake_eventually() {
        let model = test_model();
        let mut sched = PriorityScheduler::new();
        // Best-effort geometry waiting 16 s: 0.25 + 0.25·16 = 4.25 beats a
        // fresh interactive request's 4.0.
        sched.enqueue(classed(0, 0, QosClass::BestEffort, 0));
        sched.enqueue(classed(1, 0, QosClass::Interactive, 16_000_000));
        let first = sched.next_batch(&model, 16_000_000)[0];
        assert_eq!(first.id, 0, "aged best-effort request must overtake");
    }

    #[test]
    fn batch_scheduler_aggregates_up_to_the_dse_batch_size() {
        let model = test_model(); // branch 1 has max_batch 2
        let mut sched = BatchScheduler::new();
        for id in 0..3 {
            sched.enqueue(request(id, 1, id * 5));
        }
        let first = sched.next_batch(&model, 100);
        assert_eq!(first.len(), 2, "batch limited by the DSE batch size");
        assert_eq!(first[0].id, 0);
        assert_eq!(first[1].id, 1);
        let second = sched.next_batch(&model, 100);
        assert_eq!(second.len(), 1);
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn batch_scheduler_serves_the_oldest_head_first() {
        let model = test_model();
        let mut sched = BatchScheduler::new();
        sched.enqueue(request(0, 1, 50));
        sched.enqueue(request(1, 0, 10));
        assert_eq!(sched.next_batch(&model, 60)[0].branch, 0);
    }

    #[test]
    fn kinds_build_their_disciplines() {
        let names: Vec<&str> = SchedulerKind::all()
            .iter()
            .map(|k| k.build().name())
            .collect();
        assert_eq!(names, vec!["fifo", "priority", "batch", "deadline"]);
    }

    #[test]
    fn deadline_serves_the_tightest_deadline_within_class_bands() {
        let model = test_model();
        let mut sched = DeadlineScheduler::new();
        // Standard issued at 0 → deadline 400 ms; interactive issued at
        // 350 ms → deadline 450 ms. The interactive band still wins even
        // with the later absolute deadline.
        sched.enqueue(classed(0, 0, QosClass::Standard, 0));
        sched.enqueue(classed(1, 1, QosClass::Interactive, 350_000));
        // Standard issued at 10 ms → deadline 410 ms: within the standard
        // band, EDF serves the 400 ms deadline first.
        sched.enqueue(classed(2, 2, QosClass::Standard, 10_000));
        let order: Vec<u64> = (0..3)
            .map(|_| sched.next_batch(&model, 350_000)[0].id)
            .collect();
        assert_eq!(order, vec![1, 0, 2]);
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn deadline_breaks_exact_ties_on_the_lowest_branch() {
        let model = test_model();
        let mut sched = DeadlineScheduler::new();
        // Same class, same arrival ⇒ identical deadlines; the branch
        // index is the deterministic tie-break.
        sched.enqueue(request(0, 2, 100));
        sched.enqueue(request(1, 0, 100));
        sched.enqueue(request(2, 1, 100));
        let order: Vec<usize> = (0..3)
            .map(|_| sched.next_batch(&model, 200)[0].branch)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn priority_breaks_in_branch_ties_on_the_lowest_class() {
        let model = test_model();
        let mut sched = PriorityScheduler::new();
        // Best-effort geometry aged 3 s scores 0.25 + 0.25·3 = 1.0, exactly
        // a fresh standard head's 1.0 × 1.0: the lower class index
        // (standard) wins the tie, whichever lane filled first.
        sched.enqueue(classed(0, 0, QosClass::BestEffort, 0));
        sched.enqueue(classed(1, 0, QosClass::Standard, 3_000_000));
        let order: Vec<u64> = (0..2)
            .map(|_| sched.next_batch(&model, 3_000_000)[0].id)
            .collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn batch_breaks_same_instant_ties_on_the_lowest_branch() {
        let model = test_model();
        let mut sched = BatchScheduler::new();
        sched.enqueue(request(0, 2, 100));
        sched.enqueue(request(1, 0, 100));
        sched.enqueue(request(2, 1, 100));
        let order: Vec<usize> = (0..3)
            .map(|_| sched.next_batch(&model, 200)[0].branch)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
