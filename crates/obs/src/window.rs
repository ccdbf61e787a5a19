//! Fixed-interval time-series metrics: the `Windowed` sink.
//!
//! Aggregates the event stream into consecutive sim-time windows of equal
//! width: per-window arrival/admission/shed/drop/loss counts, queue depth
//! and per-class backlog at the window boundary, fabric busy-time and
//! utilization, and rolling p50/p99 completion latency. The series is
//! append-only and renders as JSON lines.

use crate::cast::{u64_to_f64, usize_to_f64, usize_to_u64};
use crate::event::{RequestEventKind, TraceEvent};
use crate::json::{array, JsonObject};
use crate::sink::TraceSink;

/// Per-window accumulator (internal).
#[derive(Debug, Default, Clone)]
struct WindowAccum {
    arrivals: u64,
    admitted: u64,
    shed: u64,
    dropped: u64,
    lost: u64,
    replaced: u64,
    dispatched: u64,
    completed: u64,
    expired: u64,
    fleet_events: u64,
    busy_us: u64,
    latencies_us: Vec<u64>,
    queue_depth_end: u64,
    class_queued_end: Vec<u64>,
}

/// One finished metrics window.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsWindow {
    /// Window index (0-based).
    pub index: u64,
    /// Window start, microseconds of sim-time (inclusive).
    pub from_us: u64,
    /// Window end, microseconds of sim-time (exclusive).
    pub to_us: u64,
    /// Requests that arrived in the window.
    pub arrivals: u64,
    /// Requests the admission controller accepted.
    pub admitted: u64,
    /// Requests the admission controller shed.
    pub shed: u64,
    /// Requests dropped on full queues.
    pub dropped: u64,
    /// Requests lost (no live shard, or orphaned past capacity).
    pub lost: u64,
    /// Requests re-placed off failed shards.
    pub replaced: u64,
    /// Requests that started service.
    pub dispatched: u64,
    /// Requests that completed (attributed to the completion window).
    pub completed: u64,
    /// Fleet lifecycle transitions in the window.
    pub fleet_events: u64,
    /// Fabric busy-time overlapping the window, microseconds, summed over
    /// shards (a window fully busy on two shards reports `2 × width`).
    pub busy_us: u64,
    /// `busy_us / (width × shard slots seen)` — fleet fabric utilization.
    pub utilization: f64,
    /// Queue depth across the fleet at the window boundary.
    pub queue_depth_end: u64,
    /// Per-class queued counts at the window boundary, indexed by
    /// `QosClass::index()`.
    pub class_queued_end: Vec<u64>,
    /// p50 completion latency of the window, milliseconds (0 if none).
    pub p50_ms: f64,
    /// p99 completion latency of the window, milliseconds (0 if none).
    pub p99_ms: f64,
    /// Requests retired in-queue by the deadline policy (their class
    /// budget ran out before the fabric could serve them).
    pub expired: u64,
}

/// The finished series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSeries {
    /// Window width, microseconds.
    pub interval_us: u64,
    /// Windows in time order, gap-free from sim-time zero.
    pub windows: Vec<MetricsWindow>,
}

impl MetricsSeries {
    /// Renders the series as JSON lines, one window per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            let classes: Vec<String> = w.class_queued_end.iter().map(u64::to_string).collect();
            out.push_str(
                &JsonObject::new()
                    .u64("window", w.index)
                    .u64("from_us", w.from_us)
                    .u64("to_us", w.to_us)
                    .u64("arrivals", w.arrivals)
                    .u64("admitted", w.admitted)
                    .u64("shed", w.shed)
                    .u64("dropped", w.dropped)
                    .u64("lost", w.lost)
                    .u64("replaced", w.replaced)
                    .u64("dispatched", w.dispatched)
                    .u64("completed", w.completed)
                    .u64("fleet_events", w.fleet_events)
                    .u64("busy_us", w.busy_us)
                    .f64("utilization", w.utilization)
                    .u64("queue_depth_end", w.queue_depth_end)
                    .raw("class_queued_end", &array(&classes))
                    .f64("p50_ms", w.p50_ms)
                    .f64("p99_ms", w.p99_ms)
                    .u64("expired", w.expired)
                    .render(),
            );
            out.push('\n');
        }
        out
    }
}

/// Fixed-interval windowing sink.
///
/// Queue depth is tracked from enqueue/dispatch/orphan events and
/// snapshotted at each window boundary; completions are attributed to the
/// window containing their (future-stamped) completion time, so latency
/// percentiles line up with when requests actually finished.
#[derive(Debug)]
pub struct Windowed {
    interval_us: u64,
    windows: Vec<WindowAccum>,
    /// Index of the window the monotone event cursor is in.
    cursor: usize,
    /// Highest window index touched by any event or busy span.
    max_index: usize,
    queue_depth: u64,
    class_queued: Vec<u64>,
    /// Highest shard index seen plus one: the utilization denominator.
    shard_slots: usize,
    saw_any: bool,
}

impl Windowed {
    /// Creates a windowing sink with the given window width (µs, min 1).
    pub fn new(interval_us: u64) -> Self {
        Self {
            interval_us: interval_us.max(1),
            windows: Vec::new(),
            cursor: 0,
            max_index: 0,
            queue_depth: 0,
            class_queued: Vec::new(),
            shard_slots: 0,
            saw_any: false,
        }
    }

    fn index_of(&self, at_us: u64) -> usize {
        usize::try_from(at_us / self.interval_us).unwrap_or(usize::MAX)
    }

    fn ensure(&mut self, index: usize) -> &mut WindowAccum {
        if index >= self.windows.len() {
            self.windows.resize_with(index + 1, WindowAccum::default);
        }
        self.max_index = self.max_index.max(index);
        &mut self.windows[index]
    }

    /// Advances the boundary cursor to `index`, closing every window the
    /// cursor leaves behind.
    fn advance(&mut self, index: usize) {
        while self.cursor < index {
            self.close();
        }
        self.ensure(index);
    }

    /// Closes the cursor's window, snapshotting the queue state into it,
    /// and moves the cursor past it.
    fn close(&mut self) {
        let depth = self.queue_depth;
        let classes = self.class_queued.clone();
        let at = self.cursor;
        let w = self.ensure(at);
        w.queue_depth_end = depth;
        w.class_queued_end = classes;
        self.cursor += 1;
    }

    fn note_shard(&mut self, shard: usize) {
        self.shard_slots = self.shard_slots.max(shard + 1);
    }

    fn class_slot(&mut self, class: usize) -> &mut u64 {
        if class >= self.class_queued.len() {
            self.class_queued.resize(class + 1, 0);
        }
        &mut self.class_queued[class]
    }

    fn dec_queued(&mut self, class: usize) {
        debug_assert!(self.queue_depth > 0, "queue depth underflow");
        self.queue_depth = self.queue_depth.saturating_sub(1);
        let slot = self.class_slot(class);
        debug_assert!(*slot > 0, "class backlog underflow");
        *slot = slot.saturating_sub(1);
    }

    /// Consumes the sink, closing the final windows, and returns the
    /// series (empty if no events were seen).
    pub fn finish(mut self) -> MetricsSeries {
        if !self.saw_any {
            return MetricsSeries {
                interval_us: self.interval_us,
                windows: Vec::new(),
            };
        }
        self.advance(self.max_index);
        self.close();

        let interval = self.interval_us;
        let slots = self.shard_slots.max(1);
        let width = u64_to_f64(interval) * usize_to_f64(slots);
        let windows = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, acc)| {
                let index = usize_to_u64(i);
                let mut lat = acc.latencies_us.clone();
                lat.sort_unstable();
                MetricsWindow {
                    index,
                    from_us: index * interval,
                    to_us: (index + 1) * interval,
                    arrivals: acc.arrivals,
                    admitted: acc.admitted,
                    shed: acc.shed,
                    dropped: acc.dropped,
                    lost: acc.lost,
                    replaced: acc.replaced,
                    dispatched: acc.dispatched,
                    completed: acc.completed,
                    fleet_events: acc.fleet_events,
                    busy_us: acc.busy_us,
                    utilization: u64_to_f64(acc.busy_us) / width,
                    queue_depth_end: acc.queue_depth_end,
                    class_queued_end: acc.class_queued_end.clone(),
                    p50_ms: percentile_ms(&lat, 50),
                    p99_ms: percentile_ms(&lat, 99),
                    expired: acc.expired,
                }
            })
            .collect();
        MetricsSeries {
            interval_us: interval,
            windows,
        }
    }
}

/// Nearest-rank percentile (`percent` of 100) over ascending `sorted_us`,
/// in milliseconds. Rank arithmetic stays in integers so no float→int
/// conversion is ever needed.
fn percentile_ms(sorted_us: &[u64], percent: usize) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let n = sorted_us.len();
    let rank = (n * percent).div_ceil(100).max(1);
    u64_to_f64(sorted_us[rank.min(n) - 1]) / 1_000.0
}

impl TraceSink for Windowed {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.saw_any = true;
        match event {
            TraceEvent::Request(e) => {
                if let Some(shard) = e.shard {
                    self.note_shard(shard);
                }
                // Completions are stamped with their (future) finish
                // time; route them by index without moving the cursor.
                if let RequestEventKind::Complete { latency_us } = e.kind {
                    let idx = self.index_of(e.at_us);
                    let w = self.ensure(idx);
                    w.completed += 1;
                    w.latencies_us.push(latency_us);
                    return;
                }
                let idx = self.index_of(e.at_us);
                self.advance(idx);
                match e.kind {
                    RequestEventKind::Arrival => self.ensure(idx).arrivals += 1,
                    RequestEventKind::Admit => self.ensure(idx).admitted += 1,
                    RequestEventKind::Shed => self.ensure(idx).shed += 1,
                    RequestEventKind::Enqueue => {
                        self.queue_depth += 1;
                        *self.class_slot(e.class) += 1;
                    }
                    RequestEventKind::Drop => self.ensure(idx).dropped += 1,
                    RequestEventKind::Replace { .. } => {
                        // Leaves one queue, enters another: depth unchanged.
                        self.ensure(idx).replaced += 1;
                    }
                    RequestEventKind::Lost { orphaned } => {
                        if orphaned {
                            self.dec_queued(e.class);
                        }
                        self.ensure(idx).lost += 1;
                    }
                    RequestEventKind::Expired => {
                        // Retired straight out of a shard queue.
                        self.dec_queued(e.class);
                        self.ensure(idx).expired += 1;
                    }
                    RequestEventKind::ServiceStart => {
                        self.dec_queued(e.class);
                        self.ensure(idx).dispatched += 1;
                    }
                    // fcad-lint: allow(panic): Complete returns early in the match above, so this arm cannot be reached
                    RequestEventKind::Complete { .. } => unreachable!("handled above"),
                }
            }
            TraceEvent::Batch(b) => {
                self.note_shard(b.shard);
                let idx = self.index_of(b.at_us);
                self.advance(idx);
                // Split the busy span across every window it overlaps.
                let end = b.at_us + b.service_us;
                let mut from = b.at_us;
                while from < end {
                    let w_idx = self.index_of(from);
                    let w_end = (usize_to_u64(w_idx) + 1) * self.interval_us;
                    let take = end.min(w_end) - from;
                    self.ensure(w_idx).busy_us += take;
                    from = w_end;
                }
            }
            TraceEvent::Fleet(f) => {
                self.note_shard(f.shard);
                let idx = self.index_of(f.at_us);
                self.ensure(idx).fleet_events += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BatchEvent, FleetEvent, FleetEventKind, RequestEvent};

    fn req(at_us: u64, id: u64, shard: Option<usize>, kind: RequestEventKind) -> TraceEvent {
        TraceEvent::Request(RequestEvent {
            at_us,
            id,
            session: 0,
            branch: 0,
            class: 1,
            class_name: "standard",
            shard,
            kind,
        })
    }

    #[test]
    fn empty_stream_yields_empty_series() {
        let series = Windowed::new(1_000).finish();
        assert!(series.windows.is_empty());
        assert_eq!(series.to_json_lines(), "");
    }

    #[test]
    fn counts_land_in_their_windows_and_depth_snapshots_at_boundaries() {
        let mut w = Windowed::new(1_000);
        w.record(req(100, 0, Some(0), RequestEventKind::Arrival));
        w.record(req(100, 0, Some(0), RequestEventKind::Admit));
        w.record(req(100, 0, Some(0), RequestEventKind::Enqueue));
        w.record(TraceEvent::Batch(BatchEvent {
            at_us: 500,
            shard: 0,
            branch: 0,
            len: 1,
            service_us: 1_000, // spans windows 0 and 1
        }));
        w.record(req(500, 0, Some(0), RequestEventKind::ServiceStart));
        w.record(req(
            1_500,
            0,
            Some(0),
            RequestEventKind::Complete { latency_us: 1_400 },
        ));
        w.record(req(2_100, 1, Some(0), RequestEventKind::Arrival));
        w.record(req(2_100, 1, Some(0), RequestEventKind::Enqueue));
        let series = w.finish();
        assert_eq!(series.windows.len(), 3);
        let w0 = &series.windows[0];
        assert_eq!(w0.arrivals, 1);
        assert_eq!(w0.admitted, 1);
        assert_eq!(w0.dispatched, 1);
        assert_eq!(w0.busy_us, 500);
        assert_eq!(w0.queue_depth_end, 0, "enqueued then dispatched");
        let w1 = &series.windows[1];
        assert_eq!(w1.completed, 1);
        assert_eq!(w1.busy_us, 500);
        assert!((w1.p50_ms - 1.4).abs() < 1e-9);
        let w2 = &series.windows[2];
        assert_eq!(w2.arrivals, 1);
        assert_eq!(w2.queue_depth_end, 1, "request 1 still queued at end");
        assert_eq!(w2.class_queued_end, vec![0, 1]);
    }

    #[test]
    fn fleet_events_and_losses_are_counted() {
        let mut w = Windowed::new(1_000);
        w.record(req(10, 0, Some(1), RequestEventKind::Enqueue));
        w.record(TraceEvent::Fleet(FleetEvent {
            at_us: 20,
            shard: 1,
            kind: FleetEventKind::Fail,
            active_after: 0,
        }));
        w.record(req(20, 0, None, RequestEventKind::Lost { orphaned: true }));
        w.record(req(30, 1, None, RequestEventKind::Arrival));
        w.record(req(30, 1, None, RequestEventKind::Lost { orphaned: false }));
        let series = w.finish();
        assert_eq!(series.windows.len(), 1);
        let w0 = &series.windows[0];
        assert_eq!(w0.fleet_events, 1);
        assert_eq!(w0.lost, 2);
        assert_eq!(w0.queue_depth_end, 0, "orphan loss drains the queue");
    }

    #[test]
    fn expiries_drain_the_queue_and_are_counted() {
        let mut w = Windowed::new(1_000);
        w.record(req(10, 0, Some(0), RequestEventKind::Enqueue));
        w.record(req(900, 0, Some(0), RequestEventKind::Expired));
        let series = w.finish();
        assert_eq!(series.windows.len(), 1);
        let w0 = &series.windows[0];
        assert_eq!(w0.expired, 1);
        assert_eq!(w0.queue_depth_end, 0, "expiry drains the queue");
        assert!(series.to_json_lines().contains("\"expired\":1"));
    }

    #[test]
    fn json_lines_are_valid_and_one_per_window() {
        let mut w = Windowed::new(1_000);
        w.record(req(100, 0, Some(0), RequestEventKind::Arrival));
        w.record(req(2_500, 1, Some(0), RequestEventKind::Arrival));
        let lines = w.finish().to_json_lines();
        let rows: Vec<&str> = lines.lines().collect();
        assert_eq!(rows.len(), 3);
        for row in rows {
            crate::json::validate_json(row).expect("window line is valid JSON");
            assert!(row.starts_with("{\"window\":"));
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).map(|v| v * 1_000).collect();
        assert!((percentile_ms(&sorted, 50) - 50.0).abs() < 1e-9);
        assert!((percentile_ms(&sorted, 99) - 99.0).abs() < 1e-9);
        assert_eq!(percentile_ms(&[], 99), 0.0);
        assert!((percentile_ms(&[7_000], 50) - 7.0).abs() < 1e-9);
    }
}
