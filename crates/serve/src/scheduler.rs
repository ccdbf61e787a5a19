//! Pluggable scheduling disciplines for the shared accelerator.
//!
//! The engine owns admission (queue capacity and drops); schedulers own
//! ordering and batching. All queued requests have already arrived, so a
//! scheduler may inspect the whole queue when picking the next dispatch.
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
//! The engine's hot path passes an empty readiness hint (every branch is
//! dispatchable the moment the shard's fabric frees), which is the indexed
//! path. A non-empty `branch_free_us` falls back to the frozen rescan —
//! the ready/busy split depends on per-branch state the index does not
//! model — and fixes the index up afterwards, so mixed call patterns stay
//! consistent. The differential battery in `tests/engine_equivalence.rs`
//! pins both paths against [`crate::reference`].

use crate::cast::u64_to_f64;
use crate::model::ServiceModel;
use crate::qos::CLASS_COUNT;
use crate::request::Request;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A scheduling discipline: accepts admitted requests and, whenever the
/// shared weight-streaming DMA is free, picks the next same-branch batch
/// to dispatch.
///
/// `Send` is a supertrait because the parallel engines move live shards —
/// scheduler included — onto scoped worker threads; every built-in
/// discipline is plain data, so the bound costs nothing.
pub trait Scheduler: Send {
    /// Discipline name (used in reports).
    fn name(&self) -> &'static str;

    /// Accepts an admitted request. `now_us` is the admission time.
    fn enqueue(&mut self, request: Request, now_us: u64);

    /// Number of queued requests.
    fn queued(&self) -> usize;

    /// Removes and returns the next batch to dispatch. All returned
    /// requests target the same branch; the batch is non-empty whenever
    /// `queued() > 0`. `branch_free_us[b]` is a readiness hint: the
    /// earliest instant branch `b` can start (missing entries mean "ready
    /// now"). The time-multiplexed engine passes an empty slice — every
    /// branch is dispatchable the moment the fabric frees — but a future
    /// spatial/sharded engine can use it to steer disciplines away from
    /// busy pipelines.
    fn next_batch(
        &mut self,
        model: &ServiceModel,
        now_us: u64,
        branch_free_us: &[u64],
    ) -> Vec<Request>;
}

/// The built-in disciplines, as a value users can pass around.
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
    /// All built-in disciplines. Returns a slice so adding a discipline
    /// does not ripple a fixed array length through every call site.
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

    fn enqueue(&mut self, request: Request, _now_us: u64) {
        self.queue.push_back(request);
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn next_batch(
        &mut self,
        _model: &ServiceModel,
        _now_us: u64,
        _branch_free_us: &[u64],
    ) -> Vec<Request> {
        self.queue.pop_front().into_iter().collect()
    }
}

/// A head-index entry: `(arrival key, branch, class, stamp)`. The stamp
/// must match the queue's current stamp for the entry to be live; stale
/// entries are discarded lazily when they surface at the heap top.
type HeadEntry = Reverse<(u64, usize, usize, u64)>;

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
/// aging_per_sec · wait` score, FIFO within a queue, one request per
/// dispatch.
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
/// queues. With `aging_per_sec = 0` the discipline degenerates to strict
/// weighted priorities.
///
/// Picks are O(log queues) through the grouped head index (module docs);
/// the index assumes simulation time is monotone (no queued request
/// arrives after `now_us`), which the engine guarantees by construction.
#[derive(Debug)]
pub struct PriorityScheduler {
    /// One FIFO per `(branch, class)`, branch-major.
    queues: Vec<[VecDeque<Request>; CLASS_COUNT]>,
    queued: usize,
    aging_per_sec: f64,
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
    /// Bit patterns of the per-branch priorities the index was built
    /// against; a model with different priorities forces a rebuild.
    indexed_priorities: Vec<u64>,
}

impl Default for PriorityScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl PriorityScheduler {
    /// Creates the discipline with the default aging rate of 0.25/s: a
    /// low-priority request overtakes a fresh priority-1.0 request after
    /// waiting `(1.0 - its priority) / 0.25` seconds (≈ 3.4 s for the 0.15
    /// audio-like branch), so priorities dominate at frame timescales while
    /// starvation stays bounded.
    pub fn new() -> Self {
        Self {
            queues: Vec::new(),
            queued: 0,
            aging_per_sec: 0.25,
            stamps: Vec::new(),
            groups: Vec::new(),
            dirty: Vec::new(),
            indexed_priorities: Vec::new(),
        }
    }

    /// Replaces the aging rate (score points gained per second of waiting).
    pub fn with_aging_per_sec(mut self, aging_per_sec: f64) -> Self {
        self.aging_per_sec = aging_per_sec;
        // The aging rate decides the in-group arrival key, so any index
        // built under the old rate is void; force a rebuild at next pick.
        self.indexed_priorities.clear();
        self.groups.clear();
        self.dirty.clear();
        self
    }

    fn score(&self, branch: usize, head: &Request, model: &ServiceModel, now_us: u64) -> f64 {
        let wait_sec = u64_to_f64(head.latency_us(now_us)) / 1e6;
        head.class.weight() * model.priority(branch) + self.aging_per_sec * wait_sec
    }

    /// The best-scoring `(branch, class)` queue of one branch, if any head
    /// is queued. Strictly-greater keeps ties on the class order, which
    /// keeps dispatch deterministic.
    fn best_class(&self, branch: usize, model: &ServiceModel, now_us: u64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (class, queue) in self.queues[branch].iter().enumerate() {
            if let Some(head) = queue.front() {
                let score = self.score(branch, head, model, now_us);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((class, score));
                }
            }
        }
        best
    }

    /// The in-group arrival key of a head. With aging the score strictly
    /// decreases as arrival time grows (distinct microsecond arrivals
    /// never collapse to one score at simulated magnitudes: consecutive
    /// waits differ by ≥ 2.5e-7 score points under the 0.25/s default,
    /// against a sub-1e-12 ulp), so arrival time orders the group. With
    /// zero aging every head in the group scores exactly `wp`, and the
    /// rescan's tie-break is purely `(branch, class)` — the key ignores
    /// arrival time so the heap agrees.
    fn arrival_key(&self, head: &Request) -> u64 {
        if self.aging_per_sec == 0.0 {
            0
        } else {
            head.issued_at_us
        }
    }

    /// Inserts the current head of `(branch, class)` into its weight
    /// group, creating the group on first sight of that bit pattern.
    fn index_head(&mut self, branch: usize, class: usize, model: &ServiceModel) {
        let Some(head) = self.queues[branch][class].front() else {
            return;
        };
        let wp = head.class.weight() * model.priority(branch);
        let key = self.arrival_key(head);
        let entry = Reverse((key, branch, class, self.stamps[branch][class]));
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

    /// Brings the head index up to date with the queues and `model`:
    /// rebuilds from scratch when the model's priorities changed since the
    /// last pick, otherwise just indexes the queues that went non-empty.
    fn sync_index(&mut self, model: &ServiceModel) {
        let priorities: Vec<u64> = (0..self.queues.len())
            .map(|b| model.priority(b).to_bits())
            .collect();
        if priorities != self.indexed_priorities {
            self.indexed_priorities = priorities;
            self.groups.clear();
            self.dirty.clear();
            for branch in 0..self.queues.len() {
                for class in 0..CLASS_COUNT {
                    self.index_head(branch, class, model);
                }
            }
            return;
        }
        while let Some((branch, class)) = self.dirty.pop() {
            self.index_head(branch, class, model);
        }
    }

    /// Pops the rescan-identical pick through the head index: per group,
    /// surface the live minimum (discarding stale stamps), score only
    /// those group-best heads with the rescan's own expression, and keep
    /// the strictly-greatest score with ties to the lowest
    /// `(branch, class)` — the exact rescan rule.
    fn pop_indexed(&mut self, model: &ServiceModel, now_us: u64) -> Vec<Request> {
        self.sync_index(model);
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
            let score = group.wp + self.aging_per_sec * wait_sec;
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

    fn enqueue(&mut self, request: Request, _now_us: u64) {
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

    fn next_batch(
        &mut self,
        model: &ServiceModel,
        now_us: u64,
        branch_free_us: &[u64],
    ) -> Vec<Request> {
        // The engine's hot path: no readiness hint means every branch is
        // dispatchable, so the grouped head index answers in O(log
        // queues). (A negative aging rate would reverse the in-group
        // order; no caller uses one, but the rescan below handles it, so
        // route it there rather than mis-index.)
        if branch_free_us.is_empty() && self.aging_per_sec >= 0.0 {
            return self.pop_indexed(model, now_us);
        }
        // Frozen-rescan fallback. Prefer branches whose pipeline is
        // ready: committing the DMA to a busy pipeline would block every
        // other branch for no gain. Only when every candidate is busy
        // pick the one that frees soonest.
        self.sync_index(model);
        let mut best_ready: Option<(usize, usize, f64)> = None;
        let mut best_busy: Option<(usize, u64)> = None;
        for branch in 0..self.queues.len() {
            let Some((class, score)) = self.best_class(branch, model, now_us) else {
                continue;
            };
            let free_at = branch_free_us.get(branch).copied().unwrap_or(0);
            if free_at <= now_us {
                // Strictly-greater keeps ties on the lowest branch index
                // (then the class order), which keeps dispatch order
                // deterministic.
                if best_ready.is_none_or(|(_, _, s)| score > s) {
                    best_ready = Some((branch, class, score));
                }
            } else if best_busy.is_none_or(|(_, f)| free_at < f) {
                best_busy = Some((branch, free_at));
            }
        }
        let pick = best_ready.map(|(b, c, _)| (b, c)).or_else(|| {
            best_busy.and_then(|(branch, _)| {
                self.best_class(branch, model, now_us)
                    .map(|(class, _)| (branch, class))
            })
        });
        match pick {
            Some((branch, class)) => self.pop_front(branch, class, model),
            None => Vec::new(),
        }
    }
}

/// Batch-aggregating: serves the branch whose head has waited longest
/// (FIFO across branches at batch granularity) and dispatches up to the
/// DSE-chosen batch size of that branch in one go, paying pipeline fill
/// once per batch.
///
/// The pick key `(head arrival, branch)` is pure integers, so a min-heap
/// over the branch heads (stamp-invalidated like the priority index)
/// reproduces the frozen rescan exactly on the engine's no-hint path.
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

    fn enqueue(&mut self, request: Request, _now_us: u64) {
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

    fn next_batch(
        &mut self,
        model: &ServiceModel,
        now_us: u64,
        branch_free_us: &[u64],
    ) -> Vec<Request> {
        // The engine's hot path: every branch ready, so the head heap's
        // live minimum is exactly the rescan's `(head arrival, branch)`
        // minimum.
        if branch_free_us.is_empty() {
            while let Some(&Reverse((_, branch, stamp))) = self.heads.peek() {
                if stamp == self.stamps[branch] {
                    self.heads.pop();
                    return self.drain_branch(branch, model);
                }
                self.heads.pop();
            }
            return Vec::new();
        }
        // Frozen-rescan fallback: oldest head first among ready pipelines
        // (FIFO across branches at batch granularity); fall back to the
        // soonest-free branch when every pipeline is busy.
        let candidate = |ready: bool| {
            self.queues
                .iter()
                .enumerate()
                .filter(|(branch, _)| {
                    (branch_free_us.get(*branch).copied().unwrap_or(0) <= now_us) == ready
                })
                .filter_map(|(branch, queue)| queue.front().map(|head| (head.issued_at_us, branch)))
                .min()
        };
        let oldest = candidate(true).or_else(|| candidate(false));
        match oldest {
            Some((_, branch)) => self.drain_branch(branch, model),
            None => Vec::new(),
        }
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
/// rescan bit for bit on the engine's no-hint path.
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

    fn enqueue(&mut self, request: Request, _now_us: u64) {
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

    fn next_batch(
        &mut self,
        _model: &ServiceModel,
        now_us: u64,
        branch_free_us: &[u64],
    ) -> Vec<Request> {
        // The engine's hot path: every branch ready, so the head heap's
        // live minimum is exactly the rescan's `(class, deadline, branch)`
        // minimum.
        if branch_free_us.is_empty() {
            while let Some(&Reverse((class, _, branch, stamp))) = self.heads.peek() {
                if stamp == self.stamps[branch][class] {
                    self.heads.pop();
                    return self.pop_front(branch, class);
                }
                self.heads.pop();
            }
            return Vec::new();
        }
        // Frozen-rescan fallback: tightest deadline among ready pipelines
        // first; only when every candidate is busy pick the tightest
        // deadline overall. `pop_front` bumps the stamp, so the index
        // stays truthful across mixed hinted/unhinted call patterns.
        let candidate = |ready: bool| {
            self.queues
                .iter()
                .enumerate()
                .filter(|(branch, _)| {
                    (branch_free_us.get(*branch).copied().unwrap_or(0) <= now_us) == ready
                })
                .flat_map(|(branch, lanes)| {
                    lanes.iter().enumerate().filter_map(move |(class, queue)| {
                        queue
                            .front()
                            .map(|head| (class, head.deadline_us(), branch))
                    })
                })
                .min()
        };
        let tightest = candidate(true).or_else(|| candidate(false));
        match tightest {
            Some((class, _, branch)) => self.pop_front(branch, class),
            None => Vec::new(),
        }
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
            fifo.enqueue(request(id, branch, id * 10), id * 10);
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| fifo.next_batch(&model, 100, &[0; 3]).first().map(|r| r.id))
                .take(3)
                .collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(fifo.queued(), 0);
    }

    #[test]
    fn priority_serves_visual_branches_before_audio() {
        let model = test_model(); // branch 2 has priority 0.2
        let mut sched = PriorityScheduler::new().with_aging_per_sec(0.0);
        sched.enqueue(request(0, 2, 0), 0);
        sched.enqueue(request(1, 0, 0), 0);
        sched.enqueue(request(2, 1, 0), 0);
        let first = sched.next_batch(&model, 0, &[0; 3])[0];
        let second = sched.next_batch(&model, 0, &[0; 3])[0];
        let third = sched.next_batch(&model, 0, &[0; 3])[0];
        assert_eq!(first.branch, 0); // priority 1.0, lowest index wins the tie
        assert_eq!(second.branch, 1);
        assert_eq!(third.branch, 2);
    }

    #[test]
    fn aging_lets_a_starving_branch_overtake() {
        let model = test_model();
        let mut sched = PriorityScheduler::new().with_aging_per_sec(2.0);
        // Audio request waiting 600 ms: score 0.2 + 2.0·0.6 = 1.4 beats a
        // fresh visual request's 1.0.
        sched.enqueue(request(0, 2, 0), 0);
        sched.enqueue(request(1, 0, 600_000), 600_000);
        let first = sched.next_batch(&model, 600_000, &[0; 3])[0];
        assert_eq!(first.branch, 2, "aged audio request must be served first");
    }

    #[test]
    fn class_weight_multiplies_the_branch_priority() {
        let model = test_model(); // branches 0/1 priority 1.0, branch 2: 0.2
        let mut sched = PriorityScheduler::new().with_aging_per_sec(0.0);
        // Interactive audio (4.0 × 0.2 = 0.8) still yields to standard
        // geometry (1.0 × 1.0), but best-effort geometry (0.25) yields to
        // both.
        sched.enqueue(classed(0, 0, QosClass::BestEffort, 0), 0);
        sched.enqueue(classed(1, 2, QosClass::Interactive, 0), 0);
        sched.enqueue(classed(2, 0, QosClass::Standard, 0), 0);
        let order: Vec<u64> = (0..3)
            .map(|_| sched.next_batch(&model, 0, &[0; 3])[0].id)
            .collect();
        assert_eq!(order, vec![2, 1, 0]);
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn same_branch_fifo_holds_within_a_class_and_weight_across_classes() {
        let model = test_model();
        let mut sched = PriorityScheduler::new().with_aging_per_sec(0.0);
        sched.enqueue(classed(0, 1, QosClass::Standard, 0), 0);
        sched.enqueue(classed(1, 1, QosClass::Interactive, 10), 10);
        sched.enqueue(classed(2, 1, QosClass::Interactive, 20), 20);
        let order: Vec<u64> = (0..3)
            .map(|_| sched.next_batch(&model, 30, &[0; 3])[0].id)
            .collect();
        // Interactive jumps the standard head; within interactive, FIFO.
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn aging_lets_a_low_class_overtake_eventually() {
        let model = test_model();
        let mut sched = PriorityScheduler::new().with_aging_per_sec(2.0);
        // Best-effort geometry waiting 2 s: 0.25 + 2.0·2.0 = 4.25 beats a
        // fresh interactive request's 4.0.
        sched.enqueue(classed(0, 0, QosClass::BestEffort, 0), 0);
        sched.enqueue(classed(1, 0, QosClass::Interactive, 2_000_000), 2_000_000);
        let first = sched.next_batch(&model, 2_000_000, &[0; 3])[0];
        assert_eq!(first.id, 0, "aged best-effort request must overtake");
    }

    #[test]
    fn batch_scheduler_aggregates_up_to_the_dse_batch_size() {
        let model = test_model(); // branch 1 has max_batch 2
        let mut sched = BatchScheduler::new();
        for id in 0..3 {
            sched.enqueue(request(id, 1, id * 5), id * 5);
        }
        let first = sched.next_batch(&model, 100, &[0; 3]);
        assert_eq!(first.len(), 2, "batch limited by the DSE batch size");
        assert_eq!(first[0].id, 0);
        assert_eq!(first[1].id, 1);
        let second = sched.next_batch(&model, 100, &[0; 3]);
        assert_eq!(second.len(), 1);
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn batch_scheduler_serves_the_oldest_head_first() {
        let model = test_model();
        let mut sched = BatchScheduler::new();
        sched.enqueue(request(0, 1, 50), 50);
        sched.enqueue(request(1, 0, 10), 50);
        assert_eq!(sched.next_batch(&model, 60, &[0; 3])[0].branch, 0);
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
        sched.enqueue(classed(0, 0, QosClass::Standard, 0), 0);
        sched.enqueue(classed(1, 1, QosClass::Interactive, 350_000), 350_000);
        // Standard issued at 10 ms → deadline 410 ms: within the standard
        // band, EDF serves the 400 ms deadline first.
        sched.enqueue(classed(2, 2, QosClass::Standard, 10_000), 350_000);
        let order: Vec<u64> = (0..3)
            .map(|_| sched.next_batch(&model, 350_000, &[])[0].id)
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
        sched.enqueue(request(0, 2, 100), 100);
        sched.enqueue(request(1, 0, 100), 100);
        sched.enqueue(request(2, 1, 100), 100);
        let order: Vec<usize> = (0..3)
            .map(|_| sched.next_batch(&model, 200, &[])[0].branch)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    // --- Indexed fast path (empty readiness hint) ---

    /// Drives a rebuilt scheduler and its frozen counterpart through the
    /// same monotone enqueue/pop stream and demands identical pops.
    fn assert_pops_match_reference(
        requests: &[Request],
        mut rebuilt: impl Scheduler,
        mut frozen: impl Scheduler,
        hint: &[u64],
    ) {
        let model = test_model();
        let mut now = 0;
        for (step, request) in requests.iter().enumerate() {
            now = now.max(request.issued_at_us);
            rebuilt.enqueue(*request, now);
            frozen.enqueue(*request, now);
            // Interleave pops so head churn (not just bulk drain) is
            // exercised.
            if step % 2 == 1 {
                let a = rebuilt.next_batch(&model, now, hint);
                let b = frozen.next_batch(&model, now, hint);
                assert_eq!(a, b, "pop diverged mid-stream at step {step}");
            }
        }
        while frozen.queued() > 0 {
            now += 1_000;
            let a = rebuilt.next_batch(&model, now, hint);
            let b = frozen.next_batch(&model, now, hint);
            assert_eq!(a, b, "drain diverged at t={now}");
        }
        assert_eq!(rebuilt.queued(), 0);
        assert!(rebuilt.next_batch(&model, now, hint).is_empty());
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
            &[],
        );
    }

    #[test]
    fn priority_index_matches_under_zero_aging() {
        assert_pops_match_reference(
            &churn_stream(),
            PriorityScheduler::new().with_aging_per_sec(0.0),
            crate::reference::PriorityScheduler::new().with_aging_per_sec(0.0),
            &[],
        );
    }

    #[test]
    fn batch_index_matches_the_frozen_rescan() {
        assert_pops_match_reference(
            &churn_stream(),
            BatchScheduler::new(),
            crate::reference::BatchScheduler::new(),
            &[],
        );
    }

    #[test]
    fn deadline_index_matches_the_frozen_rescan() {
        assert_pops_match_reference(
            &churn_stream(),
            DeadlineScheduler::new(),
            crate::reference::DeadlineScheduler::new(),
            &[],
        );
    }

    #[test]
    fn deadline_mixed_hint_and_indexed_calls_stay_consistent() {
        // Alternating hinted (rescan fallback) and unhinted (indexed)
        // picks must agree with an all-rescan frozen scheduler: the
        // fallback's stamp fixup keeps the index truthful.
        let model = test_model();
        let mut rebuilt = DeadlineScheduler::new();
        let mut frozen = crate::reference::DeadlineScheduler::new();
        for request in churn_stream() {
            let now = request.issued_at_us;
            rebuilt.enqueue(request, now);
            frozen.enqueue(request, now);
        }
        let mut now = 200_000;
        let mut flip = false;
        while frozen.queued() > 0 {
            let hint: &[u64] = if flip { &[0; 3] } else { &[] };
            let a = rebuilt.next_batch(&model, now, hint);
            let b = frozen.next_batch(&model, now, &[0; 3]);
            assert_eq!(a, b, "hint-mixed pop diverged at t={now}");
            flip = !flip;
            now += 500;
        }
        assert_eq!(rebuilt.queued(), 0);
    }

    #[test]
    fn mixed_hint_and_indexed_calls_stay_consistent() {
        // Alternating hinted (rescan fallback) and unhinted (indexed)
        // picks must agree with an all-rescan frozen scheduler: the
        // fallback's stamp fixup keeps the index truthful.
        let model = test_model();
        let mut rebuilt = PriorityScheduler::new();
        let mut frozen = crate::reference::PriorityScheduler::new();
        for request in churn_stream() {
            let now = request.issued_at_us;
            rebuilt.enqueue(request, now);
            frozen.enqueue(request, now);
        }
        let mut now = 200_000;
        let mut flip = false;
        while frozen.queued() > 0 {
            let hint: &[u64] = if flip { &[0; 3] } else { &[] };
            let a = rebuilt.next_batch(&model, now, hint);
            let b = frozen.next_batch(&model, now, &[0; 3]);
            assert_eq!(a, b, "hint-mixed pop diverged at t={now}");
            flip = !flip;
            now += 500;
        }
        assert_eq!(rebuilt.queued(), 0);
    }

    #[test]
    fn priority_index_survives_a_priority_override_swap() {
        // Changing the model's priorities between picks must trigger the
        // index rebuild, not serve picks ordered by the stale weights.
        let mut base = test_model();
        let mut sched = PriorityScheduler::new().with_aging_per_sec(0.0);
        sched.enqueue(request(0, 2, 0), 0);
        sched.enqueue(request(1, 0, 0), 0);
        assert_eq!(sched.next_batch(&base, 10, &[])[0].branch, 0);
        sched.enqueue(request(2, 0, 20), 20);
        // Flip the weights: audio now dominates geometry.
        base.branches[2].priority = 5.0;
        assert_eq!(sched.next_batch(&base, 30, &[])[0].branch, 2);
        assert_eq!(sched.next_batch(&base, 40, &[])[0].branch, 0);
        assert_eq!(sched.queued(), 0);
    }
}
