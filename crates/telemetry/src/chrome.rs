//! Chrome `trace_event` JSON export of a collected trace stream.

use crate::event::TraceEvent;
use std::fmt::{self, Write as _};

/// Deterministic export order: group by shard, then node port, then time,
/// with the kernel's own `(band, seq)` and the remaining fields as
/// tie-breaks. Sorting makes the rendered JSON byte-stable even when the
/// stream was recorded from parallel component simulations in arbitrary
/// interleavings.
fn sort_key(ev: &TraceEvent) -> (usize, usize, u64, u8, u64, u64, u8, u32) {
    (
        ev.shard.unwrap_or(0),
        ev.node.map_or(usize::MAX, |n| n),
        ev.time,
        ev.band,
        ev.seq,
        ev.session,
        ev.kind.rank(),
        ev.chunk,
    )
}

/// Renders a trace stream as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form), loadable in `chrome://tracing`
/// or Perfetto.
///
/// Layout: each shard is a "process" (`pid`), each global node port a
/// "thread" (`tid`), so the one-port occupancy claim is visually checkable
/// — a node's `send`/`receive`/`repair` spans (`ph: "X"`, with sim ticks
/// as microseconds) must never overlap on its row. Non-occupancy kinds
/// (parks, wakes, NACKs, chunk releases, admission decisions, ...) render
/// as thread-scoped instants (`ph: "i"`); events without a node land on
/// `tid` 0. The output is deterministically sorted, so traced runs of the
/// same seed export byte-identical files at any thread count.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by_key(|ev| sort_key(ev));
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in ordered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = write_event(&mut out, ev);
    }
    out.push_str("]}");
    out
}

/// Appends one event's JSON object to `out`.
fn write_event(out: &mut String, ev: &TraceEvent) -> fmt::Result {
    let pid = ev.shard.unwrap_or(0);
    let tid = ev.node.unwrap_or(0);
    let name = ev.kind.name();
    if ev.kind.is_occupancy() {
        write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"occupancy\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},",
            ev.time, ev.dur
        )?;
    } else {
        write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"kernel\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},",
            ev.time
        )?;
    }
    write!(
        out,
        "\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"session\":{},\"chunk\":{},\"band\":{},\"seq\":{}}}}}",
        ev.session, ev.chunk, ev.band, ev.seq
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind as K;
    use serde::Deserialize;

    #[derive(Deserialize)]
    #[allow(non_snake_case)]
    struct Export {
        traceEvents: Vec<Entry>,
    }

    #[derive(Deserialize)]
    struct Entry {
        name: String,
        ph: String,
        ts: u64,
        pid: u64,
        tid: u64,
        dur: Option<u64>,
    }

    #[test]
    fn export_is_valid_json_and_sorted_independently_of_input_order() {
        let mut events = vec![
            TraceEvent::new(10, K::SendStart, 1)
                .node(2)
                .band(1)
                .seq(4)
                .dur(5),
            TraceEvent::new(3, K::SessionOpen, 1).seq(0),
            TraceEvent::new(15, K::Receive, 1)
                .node(0)
                .band(1)
                .seq(6)
                .dur(2),
            TraceEvent::new(15, K::Nack, 2).node(0).band(2).seq(9),
        ];
        let forward = chrome_trace_json(&events);
        events.reverse();
        let backward = chrome_trace_json(&events);
        assert_eq!(forward, backward);
        let parsed: Export = serde_json::from_str(&forward).unwrap();
        assert_eq!(parsed.traceEvents.len(), 4);
        let spans: Vec<&Entry> = parsed.traceEvents.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|e| e.dur.is_some()));
        let instants: Vec<&Entry> = parsed.traceEvents.iter().filter(|e| e.ph == "i").collect();
        assert_eq!(instants.len(), 2);
        assert!(parsed.traceEvents.iter().all(|e| e.pid == 0));
        let send = parsed
            .traceEvents
            .iter()
            .find(|e| e.name == "send")
            .unwrap();
        assert_eq!((send.ts, send.dur, send.tid), (10, Some(5), 2));
    }

    #[test]
    fn empty_stream_exports_an_empty_event_list() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    }
}
