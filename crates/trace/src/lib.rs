//! `tc-trace`: structured telemetry for the pipeline.
//!
//! Zero-dependency observability primitives shared by every stage of
//! the dictionary-passing pipeline:
//!
//! * [`Telemetry`] — a handle collecting per-stage **spans** (wall-clock
//!   start offset, duration, diagnostics emitted) plus arbitrary named
//!   counters, rendered as a human timing table
//!   ([`Telemetry::render_table`]) or serialized into one JSON object
//!   ([`Telemetry::write_json`]). A disabled handle
//!   ([`Telemetry::off`], the default) records nothing and **allocates
//!   nothing** — timing an opt-out run costs one branch per stage.
//! * [`TraceNode`] — a generic labelled tree, used by the resolver's
//!   explain-traces to render instance derivations as an indented goal
//!   tree ([`TraceNode::render`]). Rendering is iterative, so
//!   adversarially deep derivations cannot overflow the native stack.
//! * [`MetricsRegistry`] — statically-keyed **counters, gauges, and
//!   log2-bucketed histograms** ([`metrics`]), threaded through every
//!   crate with the same zero-cost-when-off discipline as telemetry:
//!   one branch + one add when enabled, no allocation when disabled.
//! * [`CancelToken`] — a cooperative cancellation flag with an
//!   optional deadline ([`cancel`]), polled by the resolver and
//!   evaluator budget loops and at stage boundaries so a server can
//!   bound a request's wall-clock time without killing threads.
//! * [`chrome`] — the Chrome trace-event exporter: stage spans and
//!   per-goal resolution spans ([`SpanEvent`]) as `"ph": "X"` complete
//!   events, loadable in Perfetto.
//! * [`json`] — the shared [`json::JsonWriter`], the [`json::check`]
//!   well-formedness validator, and the [`json::parse`] value parser,
//!   so stats, trace, and bench output cannot drift into invalid JSON
//!   and our own reports can be read back (the bench comparator).
//!
//! The crate deliberately knows nothing about types, classes, or core
//! IR: stages describe themselves through [`Stage`] names, labels, and
//! counters, which keeps `tc-trace` at the bottom of the dependency
//! graph where every other crate can use it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod cancel;
pub mod chrome;
pub mod events;
pub mod json;
pub mod metrics;

pub use cancel::CancelToken;
pub use chrome::{chrome_trace_json, SpanEvent};
pub use events::{Event, EventKind, EventLog, EventScope};
pub use json::JsonWriter;
pub use metrics::{
    bucket_index, bucket_lo, CounterId, GaugeId, Histogram, HistogramId, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot,
};

use std::fmt;
use std::time::Instant;

/// The pipeline stages a span can describe, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    Lex,
    Parse,
    ClassEnv,
    Coherence,
    Elaborate,
    Share,
    Lint,
    Eval,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Lex,
        Stage::Parse,
        Stage::ClassEnv,
        Stage::Coherence,
        Stage::Elaborate,
        Stage::Share,
        Stage::Lint,
        Stage::Eval,
    ];

    /// Every stage's name, in [`Stage::ALL`] order.
    pub(crate) const NAMES: [&'static str; 8] = [
        "lex",
        "parse",
        "class-env",
        "coherence",
        "elaborate",
        "share",
        "lint",
        "eval",
    ];

    pub fn name(self) -> &'static str {
        Stage::NAMES[self as usize]
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One completed stage: when it started (nanoseconds after the
/// telemetry handle was created), how long it ran, and how many
/// diagnostics it emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    pub stage: Stage,
    pub start_ns: u64,
    pub duration_ns: u64,
    pub diags: u64,
}

impl StageSpan {
    /// Nanosecond offset at which the span ended.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }
}

/// An in-flight stage measurement, handed out by [`Telemetry::start`]
/// and consumed by [`Telemetry::record`]. For a disabled handle it is
/// inert (`None` inside), so instrumentation sites need no `if`s.
#[derive(Debug, Clone, Copy)]
pub struct StageTimer(Option<Instant>);

/// The telemetry handle threaded through one pipeline run.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    /// Creation time; span starts are offsets from this. `None` iff
    /// disabled.
    epoch: Option<Instant>,
    spans: Vec<StageSpan>,
    counters: Vec<(&'static str, u64)>,
}

impl Telemetry {
    /// An enabled handle; spans recorded from now on.
    pub fn new() -> Self {
        Telemetry {
            enabled: true,
            epoch: Some(Instant::now()),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// The disabled handle: records nothing, allocates nothing.
    pub fn off() -> Self {
        Telemetry::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span offsets are measured from (`None` when
    /// disabled). Other span producers — the resolver's per-goal spans
    /// — time against this same epoch so their events nest correctly
    /// inside the stage spans in a Chrome trace.
    pub fn epoch(&self) -> Option<Instant> {
        self.epoch
    }

    /// True iff the handle is disabled *and* holds no heap memory —
    /// the zero-cost-when-off guarantee, asserted by tests.
    pub fn allocates_nothing(&self) -> bool {
        !self.enabled && self.spans.capacity() == 0 && self.counters.capacity() == 0
    }

    /// Begin timing a stage. Cheap and infallible either way; on a
    /// disabled handle the returned timer is inert.
    pub fn start(&self) -> StageTimer {
        StageTimer(if self.enabled {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Close a stage span opened by [`Telemetry::start`], attributing
    /// `diags` diagnostics to it. No-op on a disabled handle.
    pub fn record(&mut self, stage: Stage, timer: StageTimer, diags: u64) {
        let (Some(epoch), Some(t0)) = (self.epoch, timer.0) else {
            return;
        };
        self.spans.push(StageSpan {
            stage,
            start_ns: saturating_ns(t0.duration_since(epoch).as_nanos()),
            duration_ns: saturating_ns(t0.elapsed().as_nanos()),
            diags,
        });
    }

    /// Record a named counter (core node counts, cache sizes, ...).
    /// No-op on a disabled handle.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            self.counters.push((name, value));
        }
    }

    pub fn spans(&self) -> &[StageSpan] {
        &self.spans
    }

    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// Sum of all recorded span durations.
    pub fn total_ns(&self) -> u64 {
        self.spans
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.duration_ns))
    }

    /// Human-readable per-stage timing table.
    ///
    /// ```text
    /// stage         time        %   diags
    /// lex          0.041ms   3.1%       0
    /// ...
    /// total        1.315ms    —        2
    /// ```
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.total_ns().max(1);
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>7} {:>7}",
            "stage", "time", "%", "diags"
        );
        let mut diags_total = 0u64;
        for s in &self.spans {
            diags_total += s.diags;
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>6.1}% {:>7}",
                s.stage.name(),
                fmt_ns(s.duration_ns),
                s.duration_ns as f64 * 100.0 / total as f64,
                s.diags,
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>7} {:>7}",
            "total",
            fmt_ns(self.total_ns()),
            "",
            diags_total,
        );
        if !self.counters.is_empty() {
            let _ = writeln!(out, "--");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<24} {value}");
            }
        }
        out
    }

    /// Serialize the spans and counters as two fields (`"spans"`,
    /// `"counters"`) of the writer's current object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array_field("spans");
        for s in &self.spans {
            w.begin_object();
            w.field_str("stage", s.stage.name());
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("duration_ns", s.duration_ns);
            w.field_u64("diags", s.diags);
            w.end_object();
        }
        w.end_array();
        w.begin_object_field("counters");
        for (name, value) in &self.counters {
            w.field_u64(name, *value);
        }
        w.end_object();
    }
}

fn saturating_ns(n: u128) -> u64 {
    n.min(u64::MAX as u128) as u64
}

/// Render nanoseconds as fixed-width milliseconds.
fn fmt_ns(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// A labelled tree node: the building block of resolution
/// explain-traces (and any future hierarchical trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    pub label: String,
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    pub fn leaf(label: impl Into<String>) -> Self {
        TraceNode {
            label: label.into(),
            children: Vec::new(),
        }
    }

    pub fn new(label: impl Into<String>, children: Vec<TraceNode>) -> Self {
        TraceNode {
            label: label.into(),
            children,
        }
    }

    /// Total number of nodes in the tree (iterative).
    pub fn size(&self) -> usize {
        let mut n = 0;
        let mut stack = vec![self];
        while let Some(node) = stack.pop() {
            n += 1;
            stack.extend(node.children.iter());
        }
        n
    }

    /// Render the tree as indented lines, two spaces per level.
    /// Iterative depth-first traversal: derivations as deep as the
    /// resolver's budget allows cannot overflow the native stack.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    pub fn render_into(&self, out: &mut String) {
        let mut stack: Vec<(&TraceNode, usize)> = vec![(self, 0)];
        while let Some((node, depth)) = stack.pop() {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&node.label);
            out.push('\n');
            for child in node.children.iter().rev() {
                stack.push((child, depth + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_allocates_nothing_and_records_nothing() {
        let mut t = Telemetry::off();
        assert!(!t.is_enabled());
        assert!(t.allocates_nothing());
        let timer = t.start();
        t.record(Stage::Lex, timer, 3);
        t.counter("core_nodes", 17);
        assert!(t.spans().is_empty());
        assert!(t.counters().is_empty());
        assert!(t.allocates_nothing(), "record/counter must not allocate");
    }

    #[test]
    fn enabled_handle_records_monotone_spans() {
        let mut t = Telemetry::new();
        for stage in [Stage::Lex, Stage::Parse, Stage::Elaborate] {
            let timer = t.start();
            // A tiny bit of work so durations are nonzero on coarse clocks.
            let mut x = 0u64;
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            t.record(stage, timer, 1);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        for w in spans.windows(2) {
            assert!(w[1].start_ns >= w[0].start_ns, "{spans:?}");
            assert!(w[1].start_ns >= w[0].end_ns(), "spans overlap: {spans:?}");
        }
        assert!(t.total_ns() > 0);
        let table = t.render_table();
        assert!(table.contains("elaborate"), "{table}");
        assert!(table.contains("total"), "{table}");
    }

    #[test]
    fn telemetry_json_is_well_formed() {
        let mut t = Telemetry::new();
        let timer = t.start();
        t.record(Stage::Eval, timer, 0);
        t.counter("core_nodes", 99);
        let mut w = JsonWriter::new();
        w.begin_object();
        t.write_json(&mut w);
        w.end_object();
        let s = w.finish();
        let res = json::check(&s);
        assert!(res.is_ok(), "{res:?}\n{s}");
        assert!(s.contains("\"stage\": \"eval\""), "{s}");
        assert!(s.contains("\"core_nodes\": 99"), "{s}");
    }

    #[test]
    fn trace_tree_renders_indented() {
        let tree = TraceNode::new(
            "goal A",
            vec![
                TraceNode::new("goal B", vec![TraceNode::leaf("goal C")]),
                TraceNode::leaf("goal D"),
            ],
        );
        assert_eq!(tree.size(), 4);
        assert_eq!(tree.render(), "goal A\n  goal B\n    goal C\n  goal D\n");
    }

    #[test]
    fn deep_trace_tree_renders_iteratively() {
        // Deep enough that a recursive render would overflow the native
        // stack; indentation grows with depth so keep it modest — the
        // rendered size is quadratic in depth.
        const DEPTH: usize = 10_000;
        let mut node = TraceNode::leaf("bottom");
        for i in 0..DEPTH {
            node = TraceNode::new(format!("level {i}"), vec![node]);
        }
        assert_eq!(node.size(), DEPTH + 1);
        let rendered = node.render();
        assert!(rendered.ends_with(&format!("{}bottom\n", "  ".repeat(DEPTH))));
        // Dismantle iteratively too: Drop on a deep Vec chain recurses.
        let mut stack = vec![node];
        while let Some(mut n) = stack.pop() {
            stack.append(&mut n.children);
        }
    }
}
