//! The trace event taxonomy.
//!
//! Every event is a plain-old-data value stamped with **sim-time only**
//! (microseconds since simulation start) — the tracer is subject to the
//! same wall-clock and ordering lint rules as the engine it observes.
//! Request events are keyed by `(id, session, branch, class, shard)` so a
//! full per-request timeline can be reconstructed from the flat stream.

/// What happened to a single request at one instant of sim-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestEventKind {
    /// The request arrived and a placement target was chosen (or none was
    /// available — then `shard` is `None` and a `Lost` event follows).
    Arrival,
    /// The admission controller accepted the request for its shard.
    Admit,
    /// The admission controller rejected the request (policy shed).
    Shed,
    /// The request entered its shard's queue.
    Enqueue,
    /// The shard queue was full; the request was dropped at arrival.
    Drop,
    /// The request was re-placed from a failed shard onto a live one.
    Replace {
        /// The shard that failed while holding the request.
        from_shard: usize,
    },
    /// The request left the system without service.
    Lost {
        /// `true` when the request was orphaned from a failed shard's
        /// queue; `false` when no live shard existed at arrival.
        orphaned: bool,
    },
    /// The request expired in queue — its class deadline passed before the
    /// fabric could serve it — and was retired unserved by the engine's
    /// deadline policy.
    Expired,
    /// The request's batch began service on the fabric.
    ServiceStart,
    /// The request completed service.
    Complete {
        /// Completion latency (completion minus arrival), microseconds.
        latency_us: u64,
    },
}

impl RequestEventKind {
    /// Stable lowercase name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            RequestEventKind::Arrival => "arrival",
            RequestEventKind::Admit => "admit",
            RequestEventKind::Shed => "shed",
            RequestEventKind::Enqueue => "enqueue",
            RequestEventKind::Drop => "drop",
            RequestEventKind::Replace { .. } => "replace",
            RequestEventKind::Lost { .. } => "lost",
            RequestEventKind::Expired => "expired",
            RequestEventKind::ServiceStart => "service_start",
            RequestEventKind::Complete { .. } => "complete",
        }
    }
}

/// One request lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestEvent {
    /// Sim-time of the event, microseconds since simulation start.
    pub at_us: u64,
    /// Globally unique request id (arrival order).
    pub id: u64,
    /// Avatar session the request belongs to.
    pub session: usize,
    /// Branch whose output is requested.
    pub branch: usize,
    /// QoS class index (`QosClass::index()`).
    pub class: usize,
    /// QoS class name (`QosClass::name()`).
    pub class_name: &'static str,
    /// Shard the event is attributed to; `None` when no shard was involved
    /// (e.g. lost because no live shard existed).
    pub shard: Option<usize>,
    /// What happened.
    pub kind: RequestEventKind,
}

/// One fabric batch dispatch: `len` same-branch requests started service
/// together on `shard` and will occupy it for `service_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEvent {
    /// Dispatch sim-time, microseconds.
    pub at_us: u64,
    /// Shard whose fabric runs the batch.
    pub shard: usize,
    /// Branch the batch decodes.
    pub branch: usize,
    /// Number of requests in the batch.
    pub len: usize,
    /// Fabric occupancy of the batch, microseconds.
    pub service_us: u64,
}

/// Fleet-level lifecycle transitions: the kinds of the serve report's
/// `scale_events` log and of the trace's fleet instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEventKind {
    /// A new shard was spawned (warming).
    Up,
    /// A warming shard became active.
    Warm,
    /// A shard began draining.
    Drain,
    /// A drained shard was retired.
    Retire,
    /// A shard was killed by the failure plan.
    Fail,
}

impl FleetEventKind {
    /// Stable lowercase name, used in the report's JSON and trace exports.
    pub fn name(self) -> &'static str {
        match self {
            FleetEventKind::Up => "up",
            FleetEventKind::Warm => "warm",
            FleetEventKind::Drain => "drain",
            FleetEventKind::Retire => "retire",
            FleetEventKind::Fail => "fail",
        }
    }
}

/// One fleet lifecycle event: an entry of the serve report's
/// `scale_events` log and, when tracing, an instant on the trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Sim-time of the transition, microseconds.
    pub at_us: u64,
    /// Shard the transition applies to.
    pub shard: usize,
    /// The transition.
    pub kind: FleetEventKind,
    /// Number of active shards after the transition.
    pub active_after: usize,
}

/// Any event the engine can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request lifecycle event.
    Request(RequestEvent),
    /// A batch dispatch event.
    Batch(BatchEvent),
    /// A fleet lifecycle event.
    Fleet(FleetEvent),
}

impl TraceEvent {
    /// Sim-time of the event, microseconds.
    pub fn at_us(&self) -> u64 {
        match self {
            TraceEvent::Request(e) => e.at_us,
            TraceEvent::Batch(e) => e.at_us,
            TraceEvent::Fleet(e) => e.at_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_lowercase_identifiers() {
        assert_eq!(
            RequestEventKind::Replace { from_shard: 3 }.name(),
            "replace"
        );
        assert_eq!(FleetEventKind::Retire.name(), "retire");
        let e = TraceEvent::Batch(BatchEvent {
            at_us: 7,
            shard: 0,
            branch: 1,
            len: 2,
            service_us: 3,
        });
        assert_eq!(e.at_us(), 7);
    }
}
