//! Chrome trace-event export: stage spans and per-goal resolution
//! spans as a `traceEvents` JSON document loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Every span becomes one *complete* event (`"ph": "X"`) with
//! microsecond `ts`/`dur` offsets from the telemetry epoch. All events
//! share one pid/tid, so the viewer nests them by time containment:
//! per-goal resolution spans recorded against the same epoch render
//! inside the `elaborate` stage span without any explicit parent
//! links. The document is emitted through [`JsonWriter`], so it can
//! never be structurally malformed.

use crate::json::JsonWriter;
use crate::Telemetry;

/// One generic named span, nanoseconds relative to the telemetry
/// epoch. Pipeline stages come from [`Telemetry::spans`]; other
/// producers (the resolver's per-goal spans) build these directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event name shown in the viewer (e.g. a goal's predicate).
    pub name: String,
    /// Event category (`"stage"`, `"resolve"`, ...), filterable in the
    /// viewer.
    pub cat: &'static str,
    /// Start offset from the telemetry epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub duration_ns: u64,
}

/// Every event of one pipeline run carries this pid/tid: a single
/// track lets the viewer nest spans by time containment.
const TRACE_PID: u64 = 1;
const TRACE_TID: u64 = 1;

/// Render `(pid, name, cat, start_ns, duration_ns)` events as one
/// Chrome trace-event document, each a complete event on its pid's
/// track.
pub(crate) fn trace_document<'a>(
    events: impl Iterator<Item = (u64, &'a str, &'a str, u64, u64)>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.begin_array_field("traceEvents");
    for (pid, name, cat, start_ns, duration_ns) in events {
        w.begin_object();
        w.field_str("name", name);
        w.field_str("cat", cat);
        w.field_str("ph", "X");
        // The trace-event format measures in microseconds; keep the
        // sub-microsecond part as decimals so short spans stay nonzero.
        w.field_f64("ts", start_ns as f64 / 1e3, 3);
        w.field_f64("dur", duration_ns as f64 / 1e3, 3);
        w.field_u64("pid", pid);
        w.field_u64("tid", TRACE_TID);
        w.end_object();
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.end_object();
    w.finish()
}

/// Render telemetry stage spans plus any extra spans (same epoch!) as
/// one Chrome trace-event JSON document. With telemetry disabled and
/// no extra spans the document is valid and empty.
pub fn chrome_trace_json(telemetry: &Telemetry, extra: &[SpanEvent]) -> String {
    let stages = telemetry.spans().iter().map(|s| {
        let name = s.stage.name();
        (TRACE_PID, name, "stage", s.start_ns, s.duration_ns)
    });
    let extra = extra
        .iter()
        .map(|e| (TRACE_PID, e.name.as_str(), e.cat, e.start_ns, e.duration_ns));
    trace_document(stages.chain(extra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Stage};

    #[test]
    fn empty_trace_is_valid_json() {
        let t = Telemetry::off();
        let s = chrome_trace_json(&t, &[]);
        json::check(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        assert!(s.contains("\"traceEvents\": []"), "{s}");
    }

    #[test]
    fn stage_and_extra_events_are_complete_events() {
        let mut t = Telemetry::new();
        let timer = t.start();
        std::hint::black_box((0..1000).sum::<u64>());
        t.record(Stage::Elaborate, timer, 0);
        let goal = SpanEvent {
            name: "Eq (List Int)".to_string(),
            cat: "resolve",
            start_ns: 100,
            duration_ns: 50,
        };
        let s = chrome_trace_json(&t, &[goal]);
        json::check(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        assert!(s.contains("\"name\": \"elaborate\""), "{s}");
        assert!(s.contains("\"name\": \"Eq (List Int)\""), "{s}");
        assert!(s.contains("\"cat\": \"resolve\""), "{s}");
        assert_eq!(s.matches("\"ph\": \"X\"").count(), 2, "{s}");
        // 100ns = 0.100µs.
        assert!(s.contains("\"ts\": 0.100"), "{s}");
        assert!(s.contains("\"dur\": 0.050"), "{s}");
    }
}
