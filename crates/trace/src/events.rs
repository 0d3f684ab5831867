//! The flight recorder: request-scoped event tracing over fixed-size
//! ring buffers.
//!
//! Where [`crate::Telemetry`] answers "where did the time go" for one
//! pipeline run and [`crate::metrics::MetricsRegistry`] answers "how
//! much work happened" in aggregate, the [`EventLog`] answers "what
//! happened *inside this request*": a monotonic-clock-stamped sequence
//! of statically-keyed events (stage boundaries, resolver goals, cache
//! evictions, evaluator budget checkpoints, cancellations, injected
//! faults) tagged with a per-request `trace_id`. The design constraints
//! mirror the other two instruments:
//!
//! * **Static keys.** Every event is an [`EventKind`] variant with two
//!   `u64` payload slots whose meaning is fixed per kind. No strings on
//!   the hot path; names only appear at serialization time.
//! * **Fixed memory.** An enabled log is one pre-allocated ring of
//!   [`Event`]s (plain `Copy` structs). Recording overwrites the oldest
//!   entry when full, so steady-state recording never allocates after
//!   warm-up — [`EventLog::capacity_is_fixed`] is asserted by tests.
//! * **Zero cost when off.** [`EventLog::off`] holds `None`; every
//!   record call is a branch and nothing else, in the same style as
//!   `MetricsRegistry::allocates_nothing`.
//!
//! Servers hand each request an [`EventScope`] (the log plus the
//! request's `trace_id`) so pipeline stages record without knowing
//! where ids come from; a tail sampler later extracts one request's
//! events with [`EventLog::extract`] when the request turns out to be
//! worth keeping.

use crate::chrome::{trace_document, SpanEvent};
use crate::json::{JsonWriter, Value};
use crate::Stage;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Outcome-class codes carried by [`EventKind::RequestEnd`] (`arg0`).
pub const OUTCOME_OK: u64 = 0;
pub const OUTCOME_INTERNAL: u64 = 1;
pub const OUTCOME_DEADLINE: u64 = 2;
pub const OUTCOME_OVERLOADED: u64 = 3;
pub const OUTCOME_BAD_REQUEST: u64 = 4;

/// Memo codes carried by [`EventKind::Goal`] (`arg1`): how the
/// resolver's memo table answered the goal.
pub const MEMO_MISS: u64 = 0;
pub const MEMO_HIT: u64 = 1;
pub const MEMO_UNCACHED: u64 = 2;

/// Action codes carried by [`EventKind::FaultInjected`] (`arg1`).
pub const FAULT_PANIC: u64 = 0;
pub const FAULT_DELAY: u64 = 1;
pub const FAULT_BUDGET: u64 = 2;

/// Spellings of a code in JSON: `.0[code]`, or `.1` for any code past
/// the table. A name outside the table reads back as `.0.len()`, which
/// spells `.1` again.
#[derive(Clone, Copy)]
struct Names(&'static [&'static str], &'static str);

impl Names {
    fn name(self, code: u64) -> &'static str {
        self.0.get(code as usize).copied().unwrap_or(self.1)
    }

    fn code(self, name: &str) -> u64 {
        self.0
            .iter()
            .position(|n| *n == name)
            .unwrap_or(self.0.len()) as u64
    }
}

const OUTCOMES: Names = Names(
    &["ok", "internal", "deadline", "overloaded", "bad-request"],
    "unknown",
);
const MEMOS: Names = Names(&["miss", "hit"], "uncached");
const FAULT_ACTIONS: Names = Names(&["panic", "delay"], "budget");
/// A stage index out of range (a malformed event, not a panic)
/// spells "?".
const STAGES: Names = Names(&Stage::NAMES, "?");

/// The class label for a [`EventKind::RequestEnd`] outcome code.
pub fn outcome_name(code: u64) -> &'static str {
    OUTCOMES.name(code)
}

/// The label for a [`EventKind::FaultInjected`] action code.
pub fn fault_action_name(code: u64) -> &'static str {
    FAULT_ACTIONS.name(code)
}

/// What a recorded event means. The two payload args are interpreted
/// per kind; see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request began processing. `arg0` = request sequence number.
    RequestStart,
    /// A request finished. `arg0` = outcome code ([`outcome_name`]),
    /// `arg1` = end-to-end latency in microseconds.
    RequestEnd,
    /// A pipeline stage began. `arg0` = [`Stage`] index in
    /// [`Stage::ALL`].
    StageStart,
    /// A pipeline stage ended. `arg0` = stage index, `arg1` =
    /// diagnostics produced so far.
    StageEnd,
    /// The resolver answered one goal. `arg0` = backward-chaining
    /// depth, `arg1` = [`MEMO_MISS`] / [`MEMO_HIT`] /
    /// [`MEMO_UNCACHED`].
    Goal,
    /// The resolve cache evicted entries to stay under capacity.
    /// `arg0` = entries evicted by this trim.
    CacheEvict,
    /// The evaluator passed a budget checkpoint (the cancellation-poll
    /// cadence). `arg0` = fuel used so far, `arg1` = current depth.
    EvalCheckpoint,
    /// Cooperative cancellation observed. `arg0` = stage index where
    /// the deadline tripped.
    Cancelled,
    /// The deterministic fault plan fired. `arg0` = stage index,
    /// `arg1` = [`FAULT_PANIC`] / [`FAULT_DELAY`] / [`FAULT_BUDGET`].
    FaultInjected,
    /// The request was shed at admission. `arg0` = queue depth,
    /// `arg1` = the `retry_after_ms` hint returned.
    Shed,
}

impl EventKind {
    pub const ALL: [EventKind; 10] = [
        EventKind::RequestStart,
        EventKind::RequestEnd,
        EventKind::StageStart,
        EventKind::StageEnd,
        EventKind::Goal,
        EventKind::CacheEvict,
        EventKind::EvalCheckpoint,
        EventKind::Cancelled,
        EventKind::FaultInjected,
        EventKind::Shed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestStart => "request-start",
            EventKind::RequestEnd => "request-end",
            EventKind::StageStart => "stage-start",
            EventKind::StageEnd => "stage-end",
            EventKind::Goal => "goal",
            EventKind::CacheEvict => "cache-evict",
            EventKind::EvalCheckpoint => "eval-checkpoint",
            EventKind::Cancelled => "cancelled",
            EventKind::FaultInjected => "fault-injected",
            EventKind::Shed => "shed",
        }
    }

    /// How `arg0` and `arg1` are spelled in the kind's JSON object.
    fn fields(self) -> [Field; 2] {
        use Field::{Named, Num, Unused};
        match self {
            EventKind::RequestStart => [Num("seq"), Unused],
            EventKind::RequestEnd => [Named("outcome", OUTCOMES), Num("latency_us")],
            EventKind::StageStart | EventKind::Cancelled => [Named("stage", STAGES), Unused],
            EventKind::StageEnd => [Named("stage", STAGES), Num("diags")],
            EventKind::Goal => [Num("depth"), Named("memo", MEMOS)],
            EventKind::CacheEvict => [Num("evicted"), Unused],
            EventKind::EvalCheckpoint => [Num("fuel_used"), Num("depth")],
            EventKind::FaultInjected => [Named("stage", STAGES), Named("action", FAULT_ACTIONS)],
            EventKind::Shed => [Num("queue_depth"), Num("retry_after_ms")],
        }
    }
}

/// How one payload slot is spelled in an event's JSON object. Reading
/// is lenient: a missing field reads as 0 (or, named, as unknown).
#[derive(Clone, Copy)]
enum Field {
    Unused,
    Num(&'static str),
    Named(&'static str, Names),
}

impl Field {
    fn write(self, w: &mut JsonWriter, arg: u64) {
        match self {
            Field::Unused => {}
            Field::Num(key) => w.field_u64(key, arg),
            Field::Named(key, names) => w.field_str(key, names.name(arg)),
        }
    }

    fn read(self, v: &Value) -> u64 {
        match self {
            Field::Unused => 0,
            Field::Num(key) => v.get(key).and_then(Value::as_u64).unwrap_or(0),
            Field::Named(key, names) => {
                names.code(v.get(key).and_then(Value::as_str).unwrap_or(""))
            }
        }
    }
}

/// One recorded event: fixed-size, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The request this event belongs to.
    pub trace_id: u64,
    /// Nanoseconds since the log's epoch (monotonic clock).
    pub ts_ns: u64,
    pub kind: EventKind,
    pub arg0: u64,
    pub arg1: u64,
}

impl Event {
    /// Serialize as one object with kind-specific field names, so
    /// dumps are self-describing without consumers memorizing the
    /// `arg0`/`arg1` conventions.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("ts_ns", self.ts_ns);
        w.field_str("kind", self.kind.name());
        let [f0, f1] = self.kind.fields();
        f0.write(w, self.arg0);
        f1.write(w, self.arg1);
        w.end_object();
    }

    /// Rebuild an event of trace `trace_id` from the object
    /// [`Event::write_json`] wrote (a dump carries the trace id on the
    /// enclosing trace, not per event). `None` when `ts_ns` or a known
    /// `kind` is missing.
    pub fn from_json(trace_id: u64, v: &Value) -> Option<Event> {
        let ts_ns = v.get("ts_ns")?.as_u64()?;
        let name = v.get("kind")?.as_str()?;
        let kind = EventKind::ALL.into_iter().find(|k| k.name() == name)?;
        let [f0, f1] = kind.fields();
        Some(Event {
            trace_id,
            ts_ns,
            kind,
            arg0: f0.read(v),
            arg1: f1.read(v),
        })
    }
}

/// Fixed-capacity overwrite-oldest ring. `events` is allocated once at
/// construction and never grows.
#[derive(Debug)]
struct Ring {
    events: Vec<Event>,
    capacity: usize,
    /// Next write position.
    head: usize,
    /// Live entries (≤ capacity).
    len: usize,
    /// Total events ever recorded, including overwritten ones.
    recorded: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    ring: Mutex<Ring>,
}

/// Non-poisoning lock: a worker that panicked mid-record leaves at
/// worst one torn `Copy` event, never a torn data structure, so the
/// recorder keeps working after isolation catches the panic.
fn lock_ring(inner: &Inner) -> std::sync::MutexGuard<'_, Ring> {
    inner.ring.lock().unwrap_or_else(|e| e.into_inner())
}

/// The flight-recorder handle. Cloning shares the underlying ring
/// (it is an `Arc`); the disabled log is a single `None`.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<Inner>>,
}

impl EventLog {
    /// The disabled recorder: records nothing, allocates nothing.
    pub fn off() -> Self {
        EventLog::default()
    }

    /// An enabled recorder holding a ring of exactly `capacity`
    /// events (minimum 1), allocated here and never again.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventLog {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                ring: Mutex::new(Ring {
                    events: Vec::with_capacity(capacity),
                    capacity,
                    head: 0,
                    len: 0,
                    recorded: 0,
                }),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True iff the recorder is disabled and holds no heap memory —
    /// the zero-cost-when-off guarantee, asserted by tests.
    pub fn allocates_nothing(&self) -> bool {
        self.inner.is_none()
    }

    /// True iff the ring's backing storage still has its construction
    /// capacity — recording can never have grown it. Vacuously true
    /// when disabled.
    pub fn capacity_is_fixed(&self) -> bool {
        self.inner.as_ref().is_none_or(|i| {
            let r = lock_ring(i);
            r.events.capacity() == r.capacity && r.len <= r.capacity
        })
    }

    /// Record one event. No-op when disabled; overwrites the oldest
    /// event when the ring is full.
    pub fn record(&self, trace_id: u64, kind: EventKind, arg0: u64, arg1: u64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let ts_ns = inner.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let ev = Event {
            trace_id,
            ts_ns,
            kind,
            arg0,
            arg1,
        };
        let mut r = lock_ring(inner);
        if r.len < r.capacity {
            r.events.push(ev);
            r.len += 1;
        } else {
            let h = r.head;
            r.events[h] = ev;
        }
        r.head = (r.head + 1) % r.capacity;
        r.recorded = r.recorded.saturating_add(1);
    }

    /// Total events ever recorded (0 when disabled), including those
    /// later overwritten by ring wraparound.
    pub fn recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| lock_ring(i).recorded)
    }

    /// Copy out one request's surviving events, oldest first. Events
    /// already overwritten by wraparound are gone — the returned
    /// prefix may be truncated for requests larger than the ring.
    pub fn extract(&self, trace_id: u64) -> Vec<Event> {
        let Some(inner) = self.inner.as_ref() else {
            return Vec::new();
        };
        let r = lock_ring(inner);
        let mut out = Vec::new();
        // Oldest entry sits at `head` once the ring has wrapped, at 0
        // before that.
        let start = if r.len < r.capacity { 0 } else { r.head };
        for k in 0..r.len {
            let ev = r.events[(start + k) % r.capacity];
            if ev.trace_id == trace_id {
                out.push(ev);
            }
        }
        out
    }

    /// A recording scope bound to one request's `trace_id`.
    pub fn scope(&self, trace_id: u64) -> EventScope {
        EventScope {
            log: self.clone(),
            trace_id,
        }
    }
}

/// One request's handle into the recorder: the log plus the request's
/// `trace_id`, cloned cheaply into every pipeline layer. The default
/// scope is disabled, so code paths outside a server record nothing
/// and pay one branch.
#[derive(Debug, Clone, Default)]
pub struct EventScope {
    log: EventLog,
    trace_id: u64,
}

impl EventScope {
    /// The disabled scope (the default): every record is one branch.
    pub fn off() -> Self {
        EventScope::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.log.is_enabled()
    }

    /// See [`EventLog::allocates_nothing`].
    pub fn allocates_nothing(&self) -> bool {
        self.log.allocates_nothing()
    }

    pub fn record(&self, kind: EventKind, arg0: u64, arg1: u64) {
        self.log.record(self.trace_id, kind, arg0, arg1);
    }

    pub fn stage_start(&self, stage: Stage) {
        self.record(EventKind::StageStart, stage as u64, 0);
    }

    pub fn stage_end(&self, stage: Stage, diags: u64) {
        self.record(EventKind::StageEnd, stage as u64, diags);
    }

    pub fn cancelled(&self, stage: Stage) {
        self.record(EventKind::Cancelled, stage as u64, 0);
    }
}

/// Pair a trace's events into Chrome spans, rebased so the trace's
/// first event sits at t=0: `StageStart`/`StageEnd` become stage
/// spans, `RequestStart`/`RequestEnd` a whole-request span, and point
/// events (goals, checkpoints, faults, ...) zero-duration markers.
pub fn chrome_spans(events: &[Event]) -> Vec<SpanEvent> {
    let t0 = events.first().map_or(0, |e| e.ts_ns);
    let mut spans = Vec::new();
    let mut open_stages: Vec<(u64, u64)> = Vec::new(); // (stage index, start)
    let mut request_start: Option<u64> = None;
    let last_ts = events.last().map_or(0, |e| e.ts_ns);
    for e in events {
        let ts = e.ts_ns.saturating_sub(t0);
        match e.kind {
            EventKind::RequestStart => request_start = Some(ts),
            EventKind::RequestEnd => {
                let start = request_start.take().unwrap_or(0);
                spans.push(SpanEvent {
                    name: format!("request ({})", outcome_name(e.arg0)),
                    cat: "request",
                    start_ns: start,
                    duration_ns: ts.saturating_sub(start),
                });
            }
            EventKind::StageStart => open_stages.push((e.arg0, ts)),
            EventKind::StageEnd => {
                if let Some(pos) = open_stages.iter().rposition(|&(s, _)| s == e.arg0) {
                    let (s, start) = open_stages.remove(pos);
                    spans.push(SpanEvent {
                        name: STAGES.name(s).to_string(),
                        cat: "stage",
                        start_ns: start,
                        duration_ns: ts.saturating_sub(start),
                    });
                }
            }
            _ => spans.push(SpanEvent {
                name: e.kind.name().to_string(),
                cat: "event",
                start_ns: ts,
                duration_ns: 0,
            }),
        }
    }
    // A stage that never ended (panic, deadline) still gets a span so
    // the failing stage is visible in the viewer.
    let end = last_ts.saturating_sub(t0);
    for (s, start) in open_stages {
        spans.push(SpanEvent {
            name: format!("{} (unfinished)", STAGES.name(s)),
            cat: "stage",
            start_ns: start,
            duration_ns: end.saturating_sub(start),
        });
    }
    if let Some(start) = request_start {
        spans.push(SpanEvent {
            name: "request (unfinished)".to_string(),
            cat: "request",
            start_ns: start,
            duration_ns: end.saturating_sub(start),
        });
    }
    spans.sort_by_key(|s| s.start_ns);
    spans
}

/// Render several traces' spans as one Chrome trace-event document,
/// one `pid` per trace so the viewer shows each request on its own
/// track. Used by `report --chrome`.
pub fn traces_chrome_json(traces: &[(u64, Vec<SpanEvent>)]) -> String {
    trace_document(traces.iter().flat_map(|(pid, spans)| {
        spans
            .iter()
            .map(|s| (*pid, s.name.as_str(), s.cat, s.start_ns, s.duration_ns))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn off_log_allocates_nothing_and_records_nothing() {
        let log = EventLog::off();
        assert!(!log.is_enabled());
        assert!(log.allocates_nothing());
        log.record(1, EventKind::Goal, 2, 1);
        assert!(log.allocates_nothing(), "recording must not allocate");
        assert_eq!(log.recorded(), 0);
        assert!(log.extract(1).is_empty());
        let scope = EventScope::off();
        scope.record(EventKind::Goal, 0, 0);
        scope.stage_start(Stage::Parse);
        assert!(scope.allocates_nothing());
    }

    #[test]
    fn ring_overwrites_oldest_and_never_grows() {
        let log = EventLog::with_capacity(4);
        for i in 0..10u64 {
            log.record(7, EventKind::Goal, i, 0);
        }
        assert_eq!(log.recorded(), 10);
        assert!(
            log.capacity_is_fixed(),
            "ring must never grow past construction capacity"
        );
        let events = log.extract(7);
        assert_eq!(events.len(), 4, "only the newest `capacity` survive");
        let depths: Vec<u64> = events.iter().map(|e| e.arg0).collect();
        assert_eq!(depths, vec![6, 7, 8, 9], "oldest-first order");
        // Timestamps are monotone.
        for pair in events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }

    #[test]
    fn extract_filters_by_trace_id() {
        let log = EventLog::with_capacity(16);
        let a = log.scope(1);
        let b = log.scope(2);
        a.record(EventKind::RequestStart, 1, 0);
        b.record(EventKind::RequestStart, 2, 0);
        a.stage_start(Stage::Parse);
        a.stage_end(Stage::Parse, 0);
        b.record(EventKind::RequestEnd, OUTCOME_OK, 10);
        a.record(EventKind::RequestEnd, OUTCOME_DEADLINE, 99);
        let ta = log.extract(1);
        let tb = log.extract(2);
        assert_eq!(ta.len(), 4);
        assert_eq!(tb.len(), 2);
        assert!(ta.iter().all(|e| e.trace_id == 1));
        assert_eq!(ta[3].kind, EventKind::RequestEnd);
        assert_eq!(ta[3].arg0, OUTCOME_DEADLINE);
    }

    #[test]
    fn event_json_is_valid_and_self_describing() {
        let log = EventLog::with_capacity(16);
        let s = log.scope(3);
        s.record(EventKind::RequestStart, 3, 0);
        s.stage_start(Stage::Elaborate);
        s.record(EventKind::Goal, 2, 1);
        s.record(EventKind::FaultInjected, 4, 0);
        s.record(EventKind::Shed, 31, 50);
        for e in log.extract(3) {
            let mut w = JsonWriter::new();
            e.write_json(&mut w);
            let out = w.finish();
            json::check(&out).unwrap_or_else(|err| panic!("{err}\n{out}"));
        }
        let goal = log.extract(3)[2];
        let mut w = JsonWriter::new();
        goal.write_json(&mut w);
        let out = w.finish();
        assert!(out.contains("\"kind\": \"goal\""), "{out}");
        assert!(out.contains("\"memo\": \"hit\""), "{out}");
        let fault = log.extract(3)[3];
        let mut w = JsonWriter::new();
        fault.write_json(&mut w);
        let out = w.finish();
        assert!(out.contains("\"stage\": \"elaborate\""), "{out}");
        assert!(out.contains("\"action\": \"panic\""), "{out}");
    }

    fn round_trip(ev: Event) {
        let mut w = JsonWriter::new();
        ev.write_json(&mut w);
        let text = w.finish();
        let v = json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(Event::from_json(ev.trace_id, &v), Some(ev), "{text}");
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        let event = |kind, arg0, arg1| Event {
            trace_id: 9,
            ts_ns: 100 + arg0,
            kind,
            arg0,
            arg1,
        };
        for kind in EventKind::ALL {
            let (arg0, arg1) = match kind {
                EventKind::RequestStart | EventKind::CacheEvict => (41, 0),
                EventKind::RequestEnd => (OUTCOME_BAD_REQUEST, 1234),
                EventKind::StageStart | EventKind::Cancelled => (Stage::Lint as u64, 0),
                EventKind::StageEnd => (Stage::Eval as u64, 3),
                EventKind::Goal => (7, MEMO_HIT),
                EventKind::FaultInjected => (Stage::Elaborate as u64, FAULT_DELAY),
                EventKind::EvalCheckpoint | EventKind::Shed => (41, 52),
            };
            round_trip(event(kind, arg0, arg1));
        }
        for memo in [MEMO_MISS, MEMO_HIT, MEMO_UNCACHED] {
            round_trip(event(EventKind::Goal, 2, memo));
        }
        for action in [FAULT_PANIC, FAULT_DELAY, FAULT_BUDGET] {
            round_trip(event(EventKind::FaultInjected, 4, action));
        }
        for outcome in OUTCOME_OK..=OUTCOME_BAD_REQUEST {
            round_trip(event(EventKind::RequestEnd, outcome, 10));
        }
        let bogus = json::parse("{\"ts_ns\": 1, \"kind\": \"nope\"}").unwrap();
        assert_eq!(Event::from_json(1, &bogus), None);
    }

    #[test]
    fn chrome_spans_pair_stage_boundaries_and_flag_unfinished_work() {
        let log = EventLog::with_capacity(32);
        let s = log.scope(5);
        s.record(EventKind::RequestStart, 5, 0);
        s.stage_start(Stage::Parse);
        s.stage_end(Stage::Parse, 0);
        s.stage_start(Stage::Elaborate);
        s.record(EventKind::FaultInjected, 4, 0); // panic: elaborate never ends
        let spans = chrome_spans(&log.extract(5));
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"parse"), "{names:?}");
        assert!(names.contains(&"fault-injected"), "{names:?}");
        assert!(
            names.contains(&"elaborate (unfinished)"),
            "the failing stage must be visible: {names:?}"
        );
        assert!(names.contains(&"request (unfinished)"), "{names:?}");
        let doc = traces_chrome_json(&[(5, spans)]);
        json::check(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert!(doc.contains("\"ph\": \"X\""), "{doc}");
        assert!(doc.contains("\"pid\": 5"), "{doc}");
    }
}
