//! Chrome `trace_event` JSON export, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Layout: process 0 ("serve") has one track per shard carrying request
//! phase spans (`queued`, then `service`) plus a `fleet` track of instant
//! markers for scale events and kills; process 1 ("fabric") mirrors the
//! shards with one batch span per dispatch. Timestamps are sim-time
//! microseconds — the native unit of the format — so a fixed seed renders
//! a byte-identical file.

use std::collections::BTreeMap;

use crate::cast::usize_to_u64;
use crate::event::{RequestEvent, RequestEventKind, TraceEvent};
use crate::json::{array, JsonObject};

/// Pid hosting request-phase tracks and the fleet track.
const SERVE_PID: u64 = 0;

/// Pid hosting per-shard fabric batch tracks.
const FABRIC_PID: u64 = 1;

fn meta_thread(pid: u64, tid: u64, name: &str) -> String {
    JsonObject::new()
        .str("ph", "M")
        .str("name", "thread_name")
        .u64("pid", pid)
        .u64("tid", tid)
        .raw("args", &JsonObject::new().str("name", name).render())
        .render()
}

fn meta_process(pid: u64, name: &str) -> String {
    JsonObject::new()
        .str("ph", "M")
        .str("name", "process_name")
        .u64("pid", pid)
        .raw("args", &JsonObject::new().str("name", name).render())
        .render()
}

fn request_args(e: &RequestEvent) -> String {
    JsonObject::new()
        .u64("id", e.id)
        .u64("session", usize_to_u64(e.session))
        .u64("branch", usize_to_u64(e.branch))
        .str("class", e.class_name)
        .render()
}

fn span(name: &str, cat: &str, pid: u64, tid: u64, ts: u64, dur: u64, args: &str) -> String {
    JsonObject::new()
        .str("ph", "X")
        .str("name", name)
        .str("cat", cat)
        .u64("pid", pid)
        .u64("tid", tid)
        .u64("ts", ts)
        .u64("dur", dur)
        .raw("args", args)
        .render()
}

/// The `queued` span of a request that waited on `tid` from `since` until
/// `e` took it out of the queue.
fn queued_span(tid: u64, since: u64, e: &RequestEvent) -> String {
    span(
        "queued",
        "request",
        SERVE_PID,
        tid,
        since,
        e.at_us - since,
        &request_args(e),
    )
}

fn instant(name: &str, cat: &str, pid: u64, tid: u64, ts: u64, args: &str) -> String {
    JsonObject::new()
        .str("ph", "i")
        .str("name", name)
        .str("cat", cat)
        .str("s", "t")
        .u64("pid", pid)
        .u64("tid", tid)
        .u64("ts", ts)
        .raw("args", args)
        .render()
}

/// Renders the event stream as one Chrome `trace_event` JSON document.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    // Group request events per id to reconstruct phase spans; BTreeMap
    // keeps the per-request iteration order deterministic.
    let mut per_request: BTreeMap<u64, Vec<&RequestEvent>> = BTreeMap::new();
    let mut shard_slots = 0usize;
    for event in events {
        match event {
            TraceEvent::Request(e) => {
                if let Some(shard) = e.shard {
                    shard_slots = shard_slots.max(shard + 1);
                }
                if let RequestEventKind::Replace { from_shard } = e.kind {
                    shard_slots = shard_slots.max(from_shard + 1);
                }
                per_request.entry(e.id).or_default().push(e);
            }
            TraceEvent::Batch(b) => shard_slots = shard_slots.max(b.shard + 1),
            TraceEvent::Fleet(f) => shard_slots = shard_slots.max(f.shard + 1),
        }
    }
    let fleet_tid = usize_to_u64(shard_slots);

    let mut rows: Vec<String> = Vec::new();
    rows.push(meta_process(SERVE_PID, "serve"));
    rows.push(meta_process(FABRIC_PID, "fabric"));
    for shard in 0..shard_slots {
        let tid = usize_to_u64(shard);
        rows.push(meta_thread(SERVE_PID, tid, &format!("shard {shard}")));
        rows.push(meta_thread(FABRIC_PID, tid, &format!("fabric {shard}")));
    }
    rows.push(meta_thread(SERVE_PID, fleet_tid, "fleet"));

    // Request phase spans, per id.
    for timeline in per_request.values() {
        let mut queued_since: Option<(u64, u64)> = None; // (tid, ts)
        let mut service_since: Option<(u64, u64)> = None;
        for e in timeline {
            let tid = e.shard.map_or(fleet_tid, usize_to_u64);
            match e.kind {
                RequestEventKind::Enqueue => queued_since = Some((tid, e.at_us)),
                RequestEventKind::Replace { from_shard } => {
                    // Close the queued span on the failed shard, reopen on
                    // the replacement target.
                    if let Some((q_tid, since)) = queued_since.take() {
                        let from = usize_to_u64(from_shard);
                        debug_assert_eq!(q_tid, from, "replace must leave the failed shard");
                        rows.push(queued_span(from, since, e));
                    }
                    queued_since = Some((tid, e.at_us));
                }
                RequestEventKind::ServiceStart => {
                    if let Some((q_tid, since)) = queued_since.take() {
                        rows.push(queued_span(q_tid, since, e));
                    }
                    service_since = Some((tid, e.at_us));
                }
                RequestEventKind::Complete { latency_us } => {
                    if let Some((s_tid, since)) = service_since.take() {
                        let args = JsonObject::new()
                            .u64("id", e.id)
                            .u64("session", usize_to_u64(e.session))
                            .u64("branch", usize_to_u64(e.branch))
                            .str("class", e.class_name)
                            .u64("latency_us", latency_us)
                            .render();
                        rows.push(span(
                            "service",
                            "request",
                            SERVE_PID,
                            s_tid,
                            since,
                            e.at_us - since,
                            &args,
                        ));
                    }
                }
                RequestEventKind::Drop
                | RequestEventKind::Shed
                | RequestEventKind::Lost { .. }
                | RequestEventKind::Expired => {
                    // A request that leaves its queue unserved (expired,
                    // or orphaned by a failure and lost) ends its wait on
                    // the shard that held it.
                    if let Some((q_tid, since)) = queued_since.take() {
                        rows.push(queued_span(q_tid, since, e));
                    }
                    rows.push(instant(
                        e.kind.name(),
                        "request",
                        SERVE_PID,
                        tid,
                        e.at_us,
                        &request_args(e),
                    ));
                }
                RequestEventKind::Arrival | RequestEventKind::Admit => {}
            }
        }
    }

    // Batch spans and fleet instants, in stream order.
    for event in events {
        match event {
            TraceEvent::Batch(b) => {
                let args = JsonObject::new()
                    .u64("len", usize_to_u64(b.len))
                    .u64("branch", usize_to_u64(b.branch))
                    .render();
                rows.push(span(
                    &format!("batch b{} x{}", b.branch, b.len),
                    "fabric",
                    FABRIC_PID,
                    usize_to_u64(b.shard),
                    b.at_us,
                    b.service_us,
                    &args,
                ));
            }
            TraceEvent::Fleet(f) => {
                let args = JsonObject::new()
                    .u64("shard", usize_to_u64(f.shard))
                    .u64("active_after", usize_to_u64(f.active_after))
                    .render();
                rows.push(instant(
                    f.kind.name(),
                    "fleet",
                    SERVE_PID,
                    fleet_tid,
                    f.at_us,
                    &args,
                ));
            }
            TraceEvent::Request(_) => {}
        }
    }

    JsonObject::new()
        .raw("traceEvents", &array(&rows))
        .str("displayTimeUnit", "ms")
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BatchEvent, FleetEvent, FleetEventKind};
    use crate::json::validate_json;

    fn req(at_us: u64, id: u64, shard: Option<usize>, kind: RequestEventKind) -> TraceEvent {
        TraceEvent::Request(RequestEvent {
            at_us,
            id,
            session: 3,
            branch: 1,
            class: 0,
            class_name: "interactive",
            shard,
            kind,
        })
    }

    #[test]
    fn exports_phase_spans_batches_and_fleet_instants() {
        let events = vec![
            req(100, 7, Some(0), RequestEventKind::Arrival),
            req(100, 7, Some(0), RequestEventKind::Admit),
            req(100, 7, Some(0), RequestEventKind::Enqueue),
            TraceEvent::Batch(BatchEvent {
                at_us: 400,
                shard: 0,
                branch: 1,
                len: 1,
                service_us: 600,
            }),
            req(400, 7, Some(0), RequestEventKind::ServiceStart),
            req(
                1_000,
                7,
                Some(0),
                RequestEventKind::Complete { latency_us: 900 },
            ),
            TraceEvent::Fleet(FleetEvent {
                at_us: 500,
                shard: 1,
                kind: FleetEventKind::Up,
                active_after: 2,
            }),
        ];
        let doc = chrome_trace(&events);
        validate_json(&doc).expect("trace is valid JSON");
        assert!(doc.contains("\"name\":\"queued\""));
        assert!(doc.contains("\"name\":\"service\""));
        assert!(doc.contains("\"name\":\"batch b1 x1\""));
        assert!(doc.contains("\"name\":\"up\""));
        assert!(doc.contains("\"name\":\"fleet\""));
        assert!(doc.contains("\"displayTimeUnit\":\"ms\""));
        // queued span: 100 → 400 on shard 0.
        assert!(doc.contains("\"ts\":100,\"dur\":300"));
        // service span: 400 → 1000.
        assert!(doc.contains("\"ts\":400,\"dur\":600"));
    }

    #[test]
    fn replace_closes_the_queued_span_on_the_failed_shard() {
        let events = vec![
            req(0, 1, Some(1), RequestEventKind::Enqueue),
            req(50, 1, Some(0), RequestEventKind::Replace { from_shard: 1 }),
            req(80, 1, Some(0), RequestEventKind::ServiceStart),
            req(
                200,
                1,
                Some(0),
                RequestEventKind::Complete { latency_us: 200 },
            ),
        ];
        let doc = chrome_trace(&events);
        validate_json(&doc).expect("trace is valid JSON");
        // First queued span on shard (tid) 1, 0 → 50.
        assert!(doc.contains("\"tid\":1,\"ts\":0,\"dur\":50"));
        // Second queued span on shard 0, 50 → 80.
        assert!(doc.contains("\"tid\":0,\"ts\":50,\"dur\":30"));
    }

    #[test]
    fn terminal_instants_cover_drop_shed_lost_expired() {
        let events = vec![
            req(10, 1, Some(0), RequestEventKind::Drop),
            req(20, 2, Some(0), RequestEventKind::Shed),
            req(30, 3, None, RequestEventKind::Lost { orphaned: false }),
            req(40, 4, Some(0), RequestEventKind::Expired),
        ];
        let doc = chrome_trace(&events);
        validate_json(&doc).expect("trace is valid JSON");
        for name in [
            "\"name\":\"drop\"",
            "\"name\":\"shed\"",
            "\"name\":\"lost\"",
            "\"name\":\"expired\"",
        ] {
            assert!(doc.contains(name), "missing {name}");
        }
    }

    #[test]
    fn a_request_that_leaves_its_queue_unserved_closes_its_queued_span() {
        let events = vec![
            req(0, 1, Some(0), RequestEventKind::Enqueue),
            req(90, 1, Some(0), RequestEventKind::Expired),
            req(0, 2, Some(1), RequestEventKind::Enqueue),
            req(50, 2, None, RequestEventKind::Lost { orphaned: true }),
        ];
        let doc = chrome_trace(&events);
        validate_json(&doc).expect("trace is valid JSON");
        assert_eq!(doc.matches("\"name\":\"queued\"").count(), 2);
        // Expired on its shard: queued 0 → 90 on shard (tid) 0.
        assert!(doc.contains("\"tid\":0,\"ts\":0,\"dur\":90"));
        // Lost with no shard: the span closes on shard 1, which held it.
        assert!(doc.contains("\"tid\":1,\"ts\":0,\"dur\":50"));
    }

    #[test]
    fn empty_stream_is_still_a_valid_document() {
        let doc = chrome_trace(&[]);
        validate_json(&doc).expect("empty trace is valid JSON");
        assert!(doc.contains("\"traceEvents\":["));
    }
}
