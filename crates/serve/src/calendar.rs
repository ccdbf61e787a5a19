//! Indexed event calendar: the binary min-heap driving the rebuilt engine.
//!
//! The pre-rebuild loop (frozen in [`crate::reference`]) found its next
//! event by scanning every shard and every pending lifecycle entry each
//! iteration — O(shards) per event. The calendar replaces those scans
//! with a single heap ordered by an explicit five-part key, so the next
//! event is an O(log n) pop regardless of fleet size.
//!
//! Determinism is carried entirely by the key, never by heap internals:
//!
//! 1. `at_us` — the simulation instant.
//! 2. `lane` — the event family, encoding the engine's fixed tie order at
//!    equal instants: lifecycle ([`LANE_LIFECYCLE`] = 0) fires before
//!    arrivals ([`LANE_ARRIVAL`] = 1), which fire before dispatches
//!    ([`LANE_DISPATCH`] = 2). This reproduces the frozen loop's
//!    `life_at <= arrival_at.min(dispatch_at)` and
//!    `arrival_at <= dispatch_at` tie rules exactly.
//! 3. `a` / `b` — in-lane tiebreaks: `(rank, 0)` for lifecycle events
//!    (Fail < Drain < Warm < IdleCheck; `seq` then keeps scheduling
//!    order) and `(shard, epoch)` for dispatches (lowest shard id wins a
//!    tie, as the frozen `(dispatch_at, index).min()` scan did).
//! 4. `seq` — an insertion counter assigned by the calendar itself, making
//!    the order *total*: entries that tie on all four caller-supplied
//!    fields pop in push order. No comparison ever falls through to heap
//!    internals, so the pop sequence is a pure function of the push
//!    sequence.
//!
//! Arrivals never enter the heap: the scenario's arrival stream yields
//! them in time order, so the engine compares the heap front against the
//! stream's next arrival as an implicit `(issued_at_us, LANE_ARRIVAL)`
//! key. Stale dispatch entries (superseded by a later queue change) are
//! detected by their `epoch` field and discarded lazily at pop time.
//!
//! Beside the heap, the calendar keeps a min-heap of the pending lifecycle
//! instants alone, so the windowed engine's question "when is the next
//! lifecycle event?" costs O(1) instead of a scan of every entry.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Lane for shard lifecycle events (fail / drain / warm / idle-check);
/// wins every same-instant tie.
pub const LANE_LIFECYCLE: u8 = 0;
/// Implicit lane for arrivals; the arrival stream's next request is
/// compared against the heap as `(issued_at_us, LANE_ARRIVAL, 0, 0)`.
pub const LANE_ARRIVAL: u8 = 1;
/// Lane for shard dispatch events; loses every same-instant tie.
pub const LANE_DISPATCH: u8 = 2;

/// The five-part ordering key of a calendar entry. Lexicographic `Ord`:
/// `(at_us, lane, a, b, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Simulation instant in microseconds.
    pub at_us: u64,
    /// Event family; see the [`LANE_LIFECYCLE`] / [`LANE_ARRIVAL`] /
    /// [`LANE_DISPATCH`] constants.
    pub lane: u8,
    /// First in-lane tiebreak (lifecycle rank, or dispatch shard id).
    pub a: u64,
    /// Second in-lane tiebreak (0 for lifecycle events, or dispatch epoch).
    pub b: u64,
    /// Calendar-assigned insertion counter; makes the order total and
    /// push-order stable under full ties.
    pub seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    key: EventKey,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic event calendar: a binary min-heap over [`EventKey`]
/// with calendar-assigned insertion sequencing.
///
/// `T` is the event payload; it never participates in ordering.
#[derive(Debug)]
pub struct Calendar<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// The `at_us` of every pending [`LANE_LIFECYCLE`] entry in `heap`.
    lifecycle: BinaryHeap<Reverse<u64>>,
    next_seq: u64,
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Calendar<T> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            lifecycle: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` under `(at_us, lane, a, b)`; the calendar
    /// appends its own insertion counter as the final tiebreak and
    /// returns the complete key.
    pub fn push(&mut self, at_us: u64, lane: u8, a: u64, b: u64, payload: T) -> EventKey {
        let key = EventKey {
            at_us,
            lane,
            a,
            b,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        if lane == LANE_LIFECYCLE {
            self.lifecycle.push(Reverse(at_us));
        }
        self.heap.push(Reverse(Entry { key, payload }));
        key
    }

    /// The key of the earliest pending entry, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(entry)| entry.key)
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        let Reverse(entry) = self.heap.pop()?;
        if entry.key.lane == LANE_LIFECYCLE {
            // The heap pops in `at_us` order first, so a popped lifecycle
            // entry carries the earliest pending lifecycle instant.
            let earliest = self.lifecycle.pop();
            debug_assert_eq!(earliest, Some(Reverse(entry.key.at_us)));
        }
        Some((entry.key, entry.payload))
    }

    /// The earliest `at_us` among pending [`LANE_LIFECYCLE`] entries, if
    /// any, in O(1). The windowed parallel engine asks it for the next
    /// lifecycle coupling point before each window; lifecycle entries are
    /// never lazily invalidated, so the answer needs no epoch filtering.
    pub fn earliest_lifecycle(&self) -> Option<u64> {
        self.lifecycle.peek().map(|&Reverse(at_us)| at_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_key_order_across_lanes() {
        let mut calendar = Calendar::new();
        calendar.push(10, LANE_DISPATCH, 0, 0, "dispatch@10");
        calendar.push(10, LANE_LIFECYCLE, 0, 0, "life@10");
        calendar.push(5, LANE_DISPATCH, 3, 0, "dispatch@5");
        assert_eq!(calendar.pop().map(|(_, p)| p), Some("dispatch@5"));
        assert_eq!(calendar.pop().map(|(_, p)| p), Some("life@10"));
        assert_eq!(calendar.pop().map(|(_, p)| p), Some("dispatch@10"));
        assert!(calendar.pop().is_none());
    }

    #[test]
    fn full_ties_pop_in_push_order() {
        let mut calendar = Calendar::new();
        for label in 0..100u64 {
            calendar.push(7, LANE_DISPATCH, 2, 1, label);
        }
        for expect in 0..100u64 {
            let (key, label) = calendar.pop().expect("entry pending");
            assert_eq!(label, expect);
            assert_eq!(key.seq, expect);
        }
    }

    #[test]
    fn lane_breaks_same_instant_ties_lifecycle_first() {
        let mut calendar = Calendar::new();
        calendar.push(42, LANE_DISPATCH, 0, 0, 'd');
        calendar.push(42, LANE_LIFECYCLE, 3, 9, 'l');
        let key = calendar.peek_key().expect("entry pending");
        assert_eq!((key.at_us, key.lane), (42, LANE_LIFECYCLE));
        assert_eq!(calendar.pop().map(|(_, p)| p), Some('l'));
        assert_eq!(calendar.pop().map(|(_, p)| p), Some('d'));
    }

    #[test]
    fn dispatch_ties_break_on_lowest_shard() {
        let mut calendar = Calendar::new();
        calendar.push(100, LANE_DISPATCH, 5, 0, 5usize);
        calendar.push(100, LANE_DISPATCH, 1, 0, 1usize);
        calendar.push(100, LANE_DISPATCH, 3, 0, 3usize);
        let order: Vec<usize> = std::iter::from_fn(|| calendar.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    /// A random calendar entry: a bounded key so ties on every caller field
    /// actually occur.
    fn entry_strategy() -> impl Strategy<Value = (u64, u8, u64, u64)> {
        (0u64..16, 0u8..3, 0u64..4, 0u64..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The calendar pops in exact lexicographic `(at_us, lane, a, b,
        /// seq)` order — a *total* order: entries tying on every
        /// caller-supplied field pop in push order (the calendar-assigned
        /// `seq` breaks the tie), so the pop sequence is a pure function of
        /// the push sequence.
        #[test]
        fn calendar_pop_order_is_total_and_push_stable(
            entries in proptest::collection::vec(entry_strategy(), 1..128),
        ) {
            let mut calendar: Calendar<usize> = Calendar::new();
            for (index, &(at_us, lane, a, b)) in entries.iter().enumerate() {
                calendar.push(at_us, lane, a, b, index);
            }
            let mut popped: Vec<(EventKey, usize)> = Vec::new();
            while let Some(item) = calendar.pop() {
                popped.push(item);
            }
            prop_assert_eq!(popped.len(), entries.len());
            for pair in popped.windows(2) {
                let (ka, &pa) = (pair[0].0, &pair[0].1);
                let (kb, &pb) = (pair[1].0, &pair[1].1);
                prop_assert!(ka < kb, "pop order must strictly ascend: {ka:?} !< {kb:?}");
                // Push-order stability under full caller-field ties: the
                // payload (the push index) ascends whenever everything but
                // the calendar-assigned seq ties.
                if (ka.at_us, ka.lane, ka.a, ka.b) == (kb.at_us, kb.lane, kb.a, kb.b) {
                    prop_assert!(pa < pb, "tied entries must pop in push order");
                }
            }
        }

        /// Over any sequence of pushes and pops, the lifecycle heap answers
        /// what a scan of every pending entry for the earliest
        /// [`LANE_LIFECYCLE`] instant answers.
        #[test]
        fn earliest_lifecycle_matches_a_scan_of_the_heap(
            ops in proptest::collection::vec((0u8..3, entry_strategy()), 1..256),
        ) {
            let mut calendar: Calendar<()> = Calendar::new();
            for (op, (at_us, lane, a, b)) in ops {
                // One op in three pops, the rest push.
                if op == 0 {
                    calendar.pop();
                } else {
                    calendar.push(at_us, lane, a, b, ());
                }
                let pending: Vec<u64> = calendar
                    .heap
                    .iter()
                    .filter(|Reverse(entry)| entry.key.lane == LANE_LIFECYCLE)
                    .map(|Reverse(entry)| entry.key.at_us)
                    .collect();
                prop_assert_eq!(calendar.earliest_lifecycle(), pending.iter().copied().min());
                prop_assert_eq!(calendar.lifecycle.len(), pending.len());
            }
        }
    }
}
