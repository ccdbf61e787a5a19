//! The scheduling disciplines of the shared accelerator.
//!
//! The engine owns admission (queue capacity and drops); schedulers own
//! ordering and batching. All queued requests have already arrived, so a
//! scheduler may inspect the whole queue when picking the next dispatch.
//! Every branch is dispatchable the moment the shard's fabric frees, so a
//! pick depends on the queue, the service model and the current instant
//! alone.
//!
//! # Heap-backed ready queues
//!
//! The weighted-priority and batch-aggregating disciplines used to rescan
//! every `(branch, class)` FIFO per dispatch — O(branches × classes) per
//! pop. They now keep incrementally-maintained head indexes (binary heaps
//! over the queue heads, invalidated lazily by per-queue stamps) so a pop
//! is O(log queues), while reproducing the rescan's pick *bit for bit*:
//!
//! - [`BatchScheduler`] ordered purely by `(head arrival, branch)` — an
//!   integer key, so one min-heap over the heads is exactly the rescan.
//! - [`PriorityScheduler`] scores heads with floats
//!   (`class weight × branch priority + aging · wait`), and *recomputing*
//!   that score from a different algebraic form can differ in the last
//!   ulp — enough to flip the rescan's tie-break. The index therefore
//!   groups heads by the exact bit pattern of their
//!   `class weight × branch priority` term: within a group the score is a
//!   monotone function of arrival time alone, so an integer
//!   `(arrival, branch, class)` heap reproduces the rescan's order
//!   exactly, and only the ≤ groups (≤ branches × classes) group-best
//!   heads ever have their scores evaluated — with the *same* expression
//!   the rescan used.
//!
//! The differential battery in `tests/engine_equivalence.rs` and the
//! pop-matching tests pin every index against [`crate::reference`].

use crate::cast::u64_to_f64;
use crate::model::ServiceModel;
use crate::qos::CLASS_COUNT;
use crate::request::Request;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A scheduling discipline: accepts admitted requests and, whenever the
/// shared weight-streaming DMA is free, picks the next same-branch batch
/// to dispatch. The set is closed ([`SchedulerKind`]); the trait exists so
/// the frozen rescans in [`crate::reference`] run behind the same
/// interface as the heap-indexed disciplines they pin.
///
/// `Send` is a supertrait because the parallel engines move live shards —
/// scheduler included — onto scoped worker threads; every discipline is
/// plain data, so the bound costs nothing.
pub trait Scheduler: Send {
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
    pub fn build(&self) -> Box<dyn Scheduler> {
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
pub struct FifoScheduler {
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

/// A head-index entry: `(arrival key, branch, class, stamp)`. The stamp
/// must match the queue's current stamp for the entry to be live; stale
/// entries are discarded lazily when they surface at the heap top.
type HeadEntry = Reverse<(u64, usize, usize, u64)>;

/// Score points a queued request gains per second of waiting under
/// [`PriorityScheduler`]: a low-priority request overtakes a fresh
/// priority-1.0 request after waiting `(1.0 - its priority) / 0.25`
/// seconds (≈ 3.4 s for the 0.15 audio-like branch), so priorities
/// dominate at frame timescales while starvation stays bounded.
const AGING_PER_SEC: f64 = 0.25;

/// One weight-product group of the priority head index: every queue whose
/// head scores `wp + aging · wait` for this exact `wp` bit pattern. See
/// the module docs for why grouping by bits is what makes the index
/// bit-identical to the frozen rescan.
#[derive(Debug)]
struct WeightGroup {
    /// `class weight × branch priority`, the exact `f64` the rescan's
    /// score expression produces for every head in this group.
    wp: f64,
    /// Min-heap over the group's queue heads, keyed
    /// `(arrival, branch, class)`: within a fixed `wp` the score is
    /// monotone non-increasing in arrival time, and the rescan breaks
    /// exact score ties on the lowest `(branch, class)` — so the heap
    /// minimum *is* the rescan's pick restricted to this group.
    heads: BinaryHeap<HeadEntry>,
}

/// Weighted cross-class priority: serves the `(branch, class)` queue whose
/// head request has the highest `class weight × branch priority +
/// 0.25/s · wait` score, FIFO within a queue, one request per dispatch.
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
/// queues.
///
/// Picks are O(log queues) through the grouped head index (module docs).
/// The index assumes simulation time is monotone (no queued request
/// arrives after `now_us`) and that every pick passes the same model, the
/// shard's own; the engine guarantees both by construction.
#[derive(Debug, Default)]
pub struct PriorityScheduler {
    /// One FIFO per `(branch, class)`, branch-major.
    queues: Vec<[VecDeque<Request>; CLASS_COUNT]>,
    queued: usize,
    /// Per-`(branch, class)` head stamp, bumped on every pop so index
    /// entries for superseded heads die lazily.
    stamps: Vec<[u64; CLASS_COUNT]>,
    /// The head index, grouped by weight-product bit pattern. At most
    /// `branches × CLASS_COUNT` groups ever exist.
    groups: Vec<WeightGroup>,
    /// Queues that went empty → non-empty since the last `next_batch`.
    /// Indexing needs the model (for the branch priority), which
    /// `enqueue` does not receive, so it is deferred to the next pick.
    dirty: Vec<(usize, usize)>,
}

impl PriorityScheduler {
    /// Creates the discipline with empty per-`(branch, class)` queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the current head of `(branch, class)` into its weight
    /// group, creating the group on first sight of that bit pattern. The
    /// in-group key is the head's arrival time: aging makes the score
    /// strictly decrease as arrival time grows (consecutive microsecond
    /// waits differ by ≥ 2.5e-7 score points, against a sub-1e-12 ulp at
    /// simulated magnitudes), so arrival time orders the group.
    fn index_head(&mut self, branch: usize, class: usize, model: &ServiceModel) {
        let Some(head) = self.queues[branch][class].front() else {
            return;
        };
        let wp = head.class.weight() * model.priority(branch);
        let entry = Reverse((head.issued_at_us, branch, class, self.stamps[branch][class]));
        match self
            .groups
            .iter_mut()
            .find(|g| g.wp.to_bits() == wp.to_bits())
        {
            Some(group) => group.heads.push(entry),
            None => self.groups.push(WeightGroup {
                wp,
                heads: BinaryHeap::from([entry]),
            }),
        }
    }

    /// Removes the head of `(branch, class)`, bumps its stamp (killing any
    /// remaining index entries for the old head) and indexes the new head.
    fn pop_front(&mut self, branch: usize, class: usize, model: &ServiceModel) -> Vec<Request> {
        self.queued -= 1;
        self.stamps[branch][class] += 1;
        let popped = self.queues[branch][class].pop_front();
        self.index_head(branch, class, model);
        popped.into_iter().collect()
    }
}

impl Scheduler for PriorityScheduler {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn enqueue(&mut self, request: Request) {
        if request.branch >= self.queues.len() {
            self.queues
                .resize_with(request.branch + 1, Default::default);
            self.stamps.resize(request.branch + 1, [0; CLASS_COUNT]);
        }
        let class = request.class.index();
        let queue = &mut self.queues[request.branch][class];
        if queue.is_empty() {
            self.dirty.push((request.branch, class));
        }
        queue.push_back(request);
        self.queued += 1;
    }

    fn queued(&self) -> usize {
        self.queued
    }

    /// Pops the rescan-identical pick through the head index: index the
    /// queues that went non-empty, then per group surface the live minimum
    /// (discarding stale stamps), score only those group-best heads with
    /// the rescan's own expression, and keep the strictly-greatest score
    /// with ties to the lowest `(branch, class)` — the exact rescan rule.
    fn next_batch(&mut self, model: &ServiceModel, now_us: u64) -> Vec<Request> {
        while let Some((branch, class)) = self.dirty.pop() {
            self.index_head(branch, class, model);
        }
        if self.queued == 0 {
            return Vec::new();
        }
        let mut best: Option<(f64, usize, usize, usize)> = None;
        for (index, group) in self.groups.iter_mut().enumerate() {
            let candidate = loop {
                match group.heads.peek() {
                    Some(&Reverse((_, branch, class, stamp))) => {
                        if stamp == self.stamps[branch][class] {
                            break Some((branch, class));
                        }
                        group.heads.pop();
                    }
                    None => break None,
                }
            };
            let Some((branch, class)) = candidate else {
                continue;
            };
            let head = self.queues[branch][class]
                .front()
                .expect("live index entry for an empty queue");
            let wait_sec = u64_to_f64(head.latency_us(now_us)) / 1e6;
            let score = group.wp + AGING_PER_SEC * wait_sec;
            let better = match best {
                None => true,
                Some((s, b, c, _)) => score > s || (score == s && (branch, class) < (b, c)),
            };
            if better {
                best = Some((score, branch, class, index));
            }
        }
        let Some((_, branch, class, group)) = best else {
            debug_assert!(false, "queued requests but no live index entry");
            return Vec::new();
        };
        self.groups[group].heads.pop();
        self.pop_front(branch, class, model)
    }
}

/// Batch-aggregating: serves the branch whose head has waited longest
/// (FIFO across branches at batch granularity) and dispatches up to the
/// DSE-chosen batch size of that branch in one go, paying pipeline fill
/// once per batch.
///
/// The pick key `(head arrival, branch)` is pure integers, so a min-heap
/// over the branch heads (stamp-invalidated like the priority index)
/// reproduces the frozen rescan exactly.
#[derive(Debug, Default)]
pub struct BatchScheduler {
    queues: Vec<VecDeque<Request>>,
    queued: usize,
    /// Per-branch head stamp; bumped per drain so superseded entries die.
    stamps: Vec<u64>,
    /// Min-heap of `(head arrival, branch, stamp)` over non-empty queues.
    heads: BinaryHeap<Reverse<(u64, usize, u64)>>,
}

impl BatchScheduler {
    /// Creates the discipline with empty per-branch queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the batch for `branch`, bumps its stamp and re-indexes the
    /// remaining head, if any.
    fn drain_branch(&mut self, branch: usize, model: &ServiceModel) -> Vec<Request> {
        let take = model.max_batch(branch).min(self.queues[branch].len());
        let batch: Vec<Request> = self.queues[branch].drain(..take).collect();
        self.queued -= batch.len();
        self.stamps[branch] += 1;
        if let Some(head) = self.queues[branch].front() {
            self.heads
                .push(Reverse((head.issued_at_us, branch, self.stamps[branch])));
        }
        batch
    }
}

impl Scheduler for BatchScheduler {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn enqueue(&mut self, request: Request) {
        if request.branch >= self.queues.len() {
            self.queues.resize_with(request.branch + 1, VecDeque::new);
            self.stamps.resize(request.branch + 1, 0);
        }
        let branch = request.branch;
        if self.queues[branch].is_empty() {
            self.heads
                .push(Reverse((request.issued_at_us, branch, self.stamps[branch])));
        }
        self.queues[branch].push_back(request);
        self.queued += 1;
    }

    fn queued(&self) -> usize {
        self.queued
    }

    /// The head heap's live minimum is exactly the rescan's
    /// `(head arrival, branch)` minimum.
    fn next_batch(&mut self, model: &ServiceModel, _now_us: u64) -> Vec<Request> {
        while let Some(Reverse((_, branch, stamp))) = self.heads.pop() {
            if stamp == self.stamps[branch] {
                return self.drain_branch(branch, model);
            }
        }
        Vec::new()
    }
}

/// Earliest-deadline-first within class bands: serves the `(branch,
/// class)` queue whose head minimizes `(class index, absolute deadline,
/// branch)`, FIFO within a lane, one request per dispatch.
///
/// The absolute deadline is [`Request::deadline_us`] — `arrival + class
/// budget` — so within a class band the discipline is classic EDF over
/// the queue heads; the class index as the outer key keeps interactive
/// work ahead of best-effort even when the best-effort deadline happens
/// to come sooner (its budget is 20× longer, so in practice it rarely
/// does). The key is pure integers with no model dependence, so one
/// stamp-invalidated min-heap over the lane heads reproduces the frozen
/// rescan bit for bit.
#[derive(Debug, Default)]
pub struct DeadlineScheduler {
    /// One FIFO per `(branch, class)`, branch-major.
    queues: Vec<[VecDeque<Request>; CLASS_COUNT]>,
    queued: usize,
    /// Per-lane head stamp; bumped per pop so superseded entries die.
    stamps: Vec<[u64; CLASS_COUNT]>,
    /// Min-heap of `(class, deadline, branch, stamp)` over lane heads.
    heads: BinaryHeap<Reverse<(usize, u64, usize, u64)>>,
}

impl DeadlineScheduler {
    /// Creates the discipline with empty per-lane queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes the current head of `(branch, class)` into the head index.
    fn index_head(&mut self, branch: usize, class: usize) {
        if let Some(head) = self.queues[branch][class].front() {
            self.heads.push(Reverse((
                class,
                head.deadline_us(),
                branch,
                self.stamps[branch][class],
            )));
        }
    }

    /// Removes the head of `(branch, class)`, bumps its stamp (killing
    /// any remaining index entries for the old head) and indexes the new
    /// head.
    fn pop_front(&mut self, branch: usize, class: usize) -> Vec<Request> {
        self.queued -= 1;
        self.stamps[branch][class] += 1;
        let popped = self.queues[branch][class].pop_front();
        self.index_head(branch, class);
        popped.into_iter().collect()
    }
}

impl Scheduler for DeadlineScheduler {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn enqueue(&mut self, request: Request) {
        if request.branch >= self.queues.len() {
            self.queues
                .resize_with(request.branch + 1, Default::default);
            self.stamps.resize(request.branch + 1, [0; CLASS_COUNT]);
        }
        let branch = request.branch;
        let class = request.class.index();
        let was_empty = self.queues[branch][class].is_empty();
        self.queues[branch][class].push_back(request);
        self.queued += 1;
        if was_empty {
            self.index_head(branch, class);
        }
    }

    fn queued(&self) -> usize {
        self.queued
    }

    /// The head heap's live minimum is exactly the rescan's
    /// `(class, deadline, branch)` minimum.
    fn next_batch(&mut self, _model: &ServiceModel, _now_us: u64) -> Vec<Request> {
        while let Some(Reverse((class, _, branch, stamp))) = self.heads.pop() {
            if stamp == self.stamps[branch][class] {
                return self.pop_front(branch, class);
            }
        }
        Vec::new()
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
        sched.enqueue(request(1, 0, 0));
        sched.enqueue(request(2, 1, 0));
        let first = sched.next_batch(&model, 0)[0];
        let second = sched.next_batch(&model, 0)[0];
        let third = sched.next_batch(&model, 0)[0];
        assert_eq!(first.branch, 0); // priority 1.0, lowest index wins the tie
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

    // --- Head indexes against the frozen rescans ---

    /// Drives a rebuilt scheduler and its frozen counterpart through the
    /// same monotone enqueue/pop stream and demands identical pops.
    fn assert_pops_match_reference(
        requests: &[Request],
        mut rebuilt: impl Scheduler,
        mut frozen: impl Scheduler,
    ) {
        let model = test_model();
        let mut now = 0;
        for (step, request) in requests.iter().enumerate() {
            now = now.max(request.issued_at_us);
            rebuilt.enqueue(*request);
            frozen.enqueue(*request);
            // Interleave pops so head churn (not just bulk drain) is
            // exercised.
            if step % 2 == 1 {
                let a = rebuilt.next_batch(&model, now);
                let b = frozen.next_batch(&model, now);
                assert_eq!(a, b, "pop diverged mid-stream at step {step}");
            }
        }
        while frozen.queued() > 0 {
            now += 1_000;
            let a = rebuilt.next_batch(&model, now);
            let b = frozen.next_batch(&model, now);
            assert_eq!(a, b, "drain diverged at t={now}");
        }
        assert_eq!(rebuilt.queued(), 0);
        assert!(rebuilt.next_batch(&model, now).is_empty());
    }

    fn churn_stream() -> Vec<Request> {
        let classes = QosClass::all();
        (0..60u64)
            .map(|i| Request {
                id: i,
                session: u64_to_usize_for_test(i % 7),
                branch: u64_to_usize_for_test(i % 3),
                issued_at_us: i * 3_337,
                class: classes[u64_to_usize_for_test(i % 3)],
            })
            .collect()
    }

    fn u64_to_usize_for_test(value: u64) -> usize {
        usize::try_from(value).expect("test value fits usize")
    }

    #[test]
    fn priority_index_matches_the_frozen_rescan() {
        assert_pops_match_reference(
            &churn_stream(),
            PriorityScheduler::new(),
            crate::reference::PriorityScheduler::new(),
        );
    }

    #[test]
    fn batch_index_matches_the_frozen_rescan() {
        assert_pops_match_reference(
            &churn_stream(),
            BatchScheduler::new(),
            crate::reference::BatchScheduler::new(),
        );
    }

    #[test]
    fn deadline_index_matches_the_frozen_rescan() {
        assert_pops_match_reference(
            &churn_stream(),
            DeadlineScheduler::new(),
            crate::reference::DeadlineScheduler::new(),
        );
    }
}
