//! Decode requests: the unit of work the serving simulator schedules.

use crate::qos::QosClass;

/// One branch-decode request: "produce the next frame of branch `branch` for
/// avatar session `session`".
///
/// A telepresence session needs every branch output (geometry, texture,
/// warp field, …) each avatar frame, so the generators emit one request per
/// branch per session frame; the scheduler is then free to reorder or batch
/// them across sessions. Every request carries its session's QoS class —
/// the class is a per-session property (assigned by the scenario's seeded
/// class mix), stamped on each request so schedulers and admission
/// policies can read it without a session table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Globally unique, assigned in arrival order (ties broken by session
    /// then branch, so ids are deterministic for a given scenario).
    pub id: u64,
    /// Avatar session the request belongs to.
    pub session: usize,
    /// Branch whose output is requested.
    pub branch: usize,
    /// Arrival time, microseconds since simulation start.
    pub issued_at_us: u64,
    /// The session's QoS class (latency budget + scheduling weight);
    /// `Standard` on the legacy classless path.
    pub class: QosClass,
}

impl Request {
    /// Latency of this request if it completes at `done_us`, in
    /// microseconds.
    ///
    /// # Panics
    ///
    /// If `done_us` precedes the arrival: a request completes, and is
    /// scored by a scheduler, only after it was issued.
    #[inline]
    pub fn latency_us(&self, done_us: u64) -> u64 {
        done_us
            .checked_sub(self.issued_at_us)
            .expect("a request completes no earlier than it was issued")
    }

    /// Builds the trace event describing what happened to this request at
    /// `at_us` — the one place a `Request` is flattened into the
    /// observability key `(id, session, branch, class, shard)`.
    pub(crate) fn trace(
        &self,
        at_us: u64,
        shard: Option<usize>,
        kind: fcad_obs::RequestEventKind,
    ) -> fcad_obs::TraceEvent {
        fcad_obs::TraceEvent::Request(fcad_obs::RequestEvent {
            at_us,
            id: self.id,
            session: self.session,
            branch: self.branch,
            class: self.class.index(),
            class_name: self.class.name(),
            shard,
            kind,
        })
    }

    /// Whether completing at `done_us` meets this request's class budget.
    #[inline]
    pub fn meets_slo(&self, done_us: u64) -> bool {
        self.latency_us(done_us) <= self.class.budget_us()
    }

    /// The absolute instant this request's class budget runs out:
    /// `issued_at_us + budget_us`, saturating. Completing at exactly the
    /// deadline still meets the SLO; one microsecond later misses it.
    #[inline]
    pub fn deadline_us(&self) -> u64 {
        self.issued_at_us.saturating_add(self.class.budget_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_completion_minus_arrival() {
        let r = Request {
            id: 0,
            session: 0,
            branch: 1,
            issued_at_us: 1_000,
            class: QosClass::Standard,
        };
        assert_eq!(r.latency_us(3_500), 2_500);
        assert_eq!(r.latency_us(1_000), 0);
    }

    #[test]
    #[should_panic(expected = "a request completes no earlier than it was issued")]
    fn latency_before_arrival_panics_on_the_invariant() {
        let r = Request {
            id: 0,
            session: 0,
            branch: 1,
            issued_at_us: 1_000,
            class: QosClass::Standard,
        };
        r.latency_us(500);
    }

    #[test]
    fn deadline_is_arrival_plus_budget_and_agrees_with_meets_slo() {
        let r = Request {
            id: 0,
            session: 0,
            branch: 0,
            issued_at_us: 2_000,
            class: QosClass::Interactive,
        };
        assert_eq!(r.deadline_us(), 102_000);
        assert!(r.meets_slo(r.deadline_us()));
        assert!(!r.meets_slo(r.deadline_us() + 1));
        // The deadline saturates instead of wrapping for late arrivals.
        let late = Request {
            issued_at_us: u64::MAX - 10,
            ..r
        };
        assert_eq!(late.deadline_us(), u64::MAX);
    }

    #[test]
    fn slo_is_judged_against_the_class_budget() {
        let mut r = Request {
            id: 0,
            session: 0,
            branch: 0,
            issued_at_us: 0,
            class: QosClass::Interactive,
        };
        assert!(r.meets_slo(100_000)); // exactly on budget counts
        assert!(!r.meets_slo(100_001));
        r.class = QosClass::BestEffort;
        assert!(r.meets_slo(100_001)); // loose tier, same latency
    }
}
