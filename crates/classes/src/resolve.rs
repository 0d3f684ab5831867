//! Budgeted instance resolution, entailment, and context reduction.
//!
//! Resolution is a backward-chaining search over instances and
//! superclass edges. Two robustness mechanisms make it total:
//!
//! * a **visited-goal set** detects exact cycles (a goal recurring as
//!   its own subgoal, as with `instance C (List a) => C (List a)`),
//!   reported as [`ResolveError::Cycle`];
//! * a **[`ReduceBudget`]** (recursion depth + total step count) stops
//!   ever-growing goal chains (`instance C (List (List a)) => C (List a)`)
//!   with [`ResolveError::BudgetExhausted`].
//!
//! Successful resolution returns a [`DictDeriv`]: an explicit recipe
//! for constructing the dictionary, consumed by `tc-core`'s dictionary
//! conversion pass. This mirrors the tabled-resolution observation that
//! instance search must be treated as a real (terminating) search
//! procedure, not naive recursion.
//!
//! # Tabling
//!
//! On top of the budgeted search sits a **memo table**
//! ([`ResolveCache`]), in the spirit of *Tabled Typeclass Resolution*:
//! completed derivations for *pure* goals (ground types, no skolem
//! constants) are recorded keyed by a hash-consed `(class, type)` pair
//! ([`tc_types::Interner`]), so re-deriving `Eq (List (List Int))` at a
//! second use site is a single O(1) lookup charged **one budget step**
//! instead of a full backward-chaining search. Cycle detection is
//! untouched: in-progress goals are never tabled, only completed ones,
//! so the recursive-instance self-knot still resolves (and still
//! reports cycles) exactly as without the table.
//!
//! Soundness of a table hit requires the cached derivation to be valid
//! under the *current* assumption set, not the one it was derived
//! under. Two guards ensure this, keeping cached resolution
//! bit-identical to fresh resolution:
//!
//! * only derivations that are **closed** (built purely from instance
//!   constructors, no [`DictDeriv::FromParam`] /
//!   [`DictDeriv::FromSuper`] references into the assumption list) are
//!   stored;
//! * the table is consulted only when every assumption in scope is in
//!   head-normal form (variable-headed). A variable-headed assumption
//!   can never discharge a ground goal — neither directly nor through
//!   superclass projection, which preserves the constrained type — so
//!   under this guard the instance-chaining portion of the search is
//!   independent of the assumptions and safe to share.
//!
//! Failures are never cached: they are the cold path, and their
//! diagnostics carry use-site spans that must be rebuilt per call.
//!
//! # Observation
//!
//! [`ResolveStats`] is always on. Every other observer — explain trees
//! and goal spans ([`GoalLog`]), metrics, flight-recorder events — sits
//! in one [`GoalSink`], installed once per session
//! ([`ResolveCache::install`]) and detached once
//! ([`ResolveCache::detach`]); a detached cache records nothing. A
//! goal reports in two places: where its memo disposition is known
//! (memo counters, `goal` event) and where it closes (depth histogram,
//! explain node, span). With no sink installed, each is one branch.

use crate::env::ClassEnv;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;
use tc_trace::events::{MEMO_HIT, MEMO_MISS, MEMO_UNCACHED};
use tc_trace::{
    CancelToken, CounterId, EventKind, EventScope, GaugeId, HistogramId, MetricsRegistry,
    SpanEvent, Stage, TraceNode,
};
use tc_types::{Interner, NameId, Pred, Type, TypeId};

/// Limits for one resolution / context-reduction call.
#[derive(Debug, Clone, Copy)]
pub struct ReduceBudget {
    /// Maximum backward-chaining depth.
    pub max_depth: usize,
    /// Maximum total goals examined.
    pub max_steps: usize,
}

impl Default for ReduceBudget {
    fn default() -> Self {
        ReduceBudget {
            max_depth: 64,
            max_steps: 10_000,
        }
    }
}

/// The cancellation token is polled once every this many search steps
/// (must be a power of two). Steps are bounded work, so 64 keeps
/// deadline latency well under a millisecond without a clock read per
/// goal.
const CANCEL_POLL_GOALS: usize = 64;

/// Why a predicate could not be resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    /// No instance (and no assumption) covers the predicate.
    NoInstance { pred: Pred },
    /// The goal recurred as its own subgoal.
    Cycle { pred: Pred, trail: Vec<Pred> },
    /// Depth or step budget exhausted.
    BudgetExhausted { pred: Pred, depth: bool },
    /// The predicate mentions an unknown class (already reported at
    /// build time; resolution refuses rather than guessing).
    UnknownClass { pred: Pred },
    /// The session's cancellation token fired (deadline or explicit
    /// cancellation) while this goal was being resolved.
    Cancelled { pred: Pred },
}

impl ResolveError {
    pub fn pred(&self) -> &Pred {
        match self {
            ResolveError::NoInstance { pred }
            | ResolveError::Cycle { pred, .. }
            | ResolveError::BudgetExhausted { pred, .. }
            | ResolveError::UnknownClass { pred }
            | ResolveError::Cancelled { pred } => pred,
        }
    }

    /// The stable diagnostic code this error surfaces under, so tests
    /// and tooling can match a *kind* of resolution failure instead of
    /// string-matching the rendered message:
    ///
    /// | code    | meaning                                   |
    /// |---------|-------------------------------------------|
    /// | `E0410` | no instance / not deducible from context  |
    /// | `E0420` | instance resolution is cyclic             |
    /// | `E0421` | resolution depth/step budget exhausted    |
    /// | `E0422` | predicate names an unknown class          |
    /// | `E0423` | resolution cancelled (deadline)           |
    pub fn code(&self) -> &'static str {
        match self {
            ResolveError::NoInstance { .. } => "E0410",
            ResolveError::Cycle { .. } => "E0420",
            ResolveError::BudgetExhausted { .. } => "E0421",
            ResolveError::UnknownClass { .. } => "E0422",
            ResolveError::Cancelled { .. } => "E0423",
        }
    }
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NoInstance { pred } => write!(f, "no instance for `{pred}`"),
            ResolveError::Cycle { pred, trail } => {
                write!(f, "instance resolution for `{pred}` is cyclic")?;
                if !trail.is_empty() {
                    write!(f, " (via ")?;
                    for (i, p) in trail.iter().enumerate() {
                        if i > 0 {
                            write!(f, " -> ")?;
                        }
                        write!(f, "`{p}`")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            ResolveError::BudgetExhausted { pred, depth } => write!(
                f,
                "instance resolution for `{pred}` exceeded the {} budget",
                if *depth { "depth" } else { "step" }
            ),
            ResolveError::UnknownClass { pred } => {
                write!(f, "`{pred}` refers to an unknown class")
            }
            ResolveError::Cancelled { pred } => {
                write!(f, "instance resolution for `{pred}` cancelled (deadline)")
            }
        }
    }
}

/// A dictionary construction recipe.
#[derive(Debug, Clone, PartialEq)]
pub enum DictDeriv {
    /// The dictionary is an assumption in scope (a dictionary lambda
    /// parameter); `index` is the position in the assumption list the
    /// resolution was run against.
    FromParam { index: usize },
    /// Project the `slot`-th superclass dictionary out of `base`.
    FromSuper { base: Box<DictDeriv>, slot: usize },
    /// Apply instance `inst_id`'s dictionary constructor to the
    /// dictionaries for its context predicates.
    FromInstance {
        inst_id: usize,
        args: Vec<DictDeriv>,
    },
}

impl DictDeriv {
    /// Is the derivation built purely from instance constructors —
    /// no references into a particular assumption list? Only closed
    /// derivations are context-independent and safe to memoize.
    pub fn is_closed(&self) -> bool {
        let mut stack = vec![self];
        while let Some(d) = stack.pop() {
            match d {
                DictDeriv::FromParam { .. } | DictDeriv::FromSuper { .. } => return false,
                DictDeriv::FromInstance { args, .. } => stack.extend(args.iter()),
            }
        }
        true
    }
}

/// How a resolved goal was discharged, for its explain node:
/// assumption, superclass projection (its assumption and slot path),
/// instance (`[tabled]` when its derivation entered the memo table),
/// or memo hit (with the goal that derived the entry).
fn describe(env: &ClassEnv, assumptions: &[Pred], memo: Memo, d: &DictDeriv) -> String {
    let mut slots: Vec<String> = Vec::new();
    let mut cur = d;
    while let DictDeriv::FromSuper { base, slot } = cur {
        slots.push(slot.to_string());
        cur = base;
    }
    // Collected outermost-first; projections apply from the
    // assumption outward.
    slots.reverse();
    match (memo, cur) {
        (Memo::Hit { origin }, _) => format!("memo hit (derived at goal #{origin})"),
        (_, DictDeriv::FromParam { index }) if slots.is_empty() => {
            let a = assumptions
                .get(*index)
                .map_or(String::new(), Pred::to_string);
            format!("assumption #{index} `{a}`")
        }
        (_, DictDeriv::FromParam { index }) => format!(
            "superclass projection of assumption #{index} (slots [{}])",
            slots.join(", ")
        ),
        (_, DictDeriv::FromInstance { inst_id, .. }) if slots.is_empty() => {
            let head = env.instance_by_id(*inst_id).map(|i| i.head.to_string());
            // A missed goal's closed derivation is always tabled.
            let tabled = matches!(memo, Memo::Miss { .. }) && d.is_closed();
            let mark = if tabled { " [tabled]" } else { "" };
            format!("instance #{inst_id} `{}`{mark}", head.unwrap_or_default())
        }
        _ => "superclass projection".to_string(),
    }
}

/// Counters describing one resolution session (typically one
/// elaboration run). All monotone; rendered by the driver's `--stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Goals entering [`Search::resolve`] (including subgoals).
    pub goals: u64,
    /// Goals answered by the memo table in O(1).
    pub table_hits: u64,
    /// Cacheable goals that had to be derived from scratch.
    pub table_misses: u64,
    /// `FromInstance` derivation nodes built fresh (each corresponds
    /// to one dictionary-constructor application in the output).
    pub dicts_constructed: u64,
    /// Total budget steps consumed across all calls.
    pub steps: u64,
}

impl ResolveStats {
    /// Fraction of goals answered from the table, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.goals == 0 {
            0.0
        } else {
            self.table_hits as f64 / self.goals as f64
        }
    }
}

/// One completed, closed derivation for a pure goal.
#[derive(Debug, Clone)]
struct CacheEntry {
    deriv: DictDeriv,
    /// Budget steps the original derivation consumed (≥ 1). A table
    /// hit charges exactly one step, never more than this.
    cost: usize,
    /// Sequence number (1-based, session-wide goal count) of the goal
    /// whose derivation populated this entry. Explain-traces report it
    /// so a memo hit can point back at the originating derivation.
    origin: u64,
}

/// How the memo table answered one goal: the `goal` event's memo
/// payload, kept on the goal's explain frame until the goal closes.
#[derive(Debug, Clone, Copy)]
enum Memo {
    /// Not consulted: an assumption answered the goal, the table is
    /// off, an assumption in scope is not in HNF, or the goal is open.
    Uncached,
    /// Answered by the entry that goal `origin` derived.
    Hit { origin: u64 },
    /// Consulted and missed; a closed derivation is tabled under `key`.
    Miss { key: (NameId, TypeId) },
}

/// A goal that reached its memo disposition and has not closed yet;
/// collects the explain nodes of its subgoals.
#[derive(Debug)]
struct Frame {
    depth: usize,
    seq: u64,
    memo: Memo,
    children: Vec<TraceNode>,
}

/// The explain trees and top-level goal spans of one resolution
/// session. A tree's root is a top-level goal and its children are the
/// goal's instance-context subgoals; each node reads `[#n] pred: how`,
/// with the goal's session-wide sequence number. Spans are timed
/// against the pipeline telemetry's epoch, so they nest inside the
/// `elaborate` stage span of a Chrome trace.
#[derive(Debug)]
pub struct GoalLog {
    explain: bool,
    trees: Vec<TraceNode>,
    frames: Vec<Frame>,
    epoch: Option<Instant>,
    /// One span per top-level goal; empty unless an epoch was given.
    pub spans: Vec<SpanEvent>,
}

impl GoalLog {
    /// A log that records explain trees when `explain` is set and
    /// goal spans when `span_epoch` is; `None` when both are off.
    pub fn new(explain: bool, span_epoch: Option<Instant>) -> Option<GoalLog> {
        (explain || span_epoch.is_some()).then(|| GoalLog {
            explain,
            trees: Vec::new(),
            frames: Vec::new(),
            epoch: span_epoch,
            spans: Vec::new(),
        })
    }

    /// Number of explain trees (top-level goals explained).
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Every explain tree as an indented block, in order; `None` when
    /// the log was not explaining.
    pub fn render(&self) -> Option<String> {
        self.explain.then(|| {
            let mut out = String::new();
            for tree in &self.trees {
                tree.render_into(&mut out);
            }
            out
        })
    }
}

/// Every observer of a resolution session beyond the always-on
/// [`ResolveStats`], installed on a [`ResolveCache`] as one unit with
/// [`ResolveCache::install`] and taken out with
/// [`ResolveCache::detach`]. Each part is off by default.
#[derive(Debug, Default)]
pub struct GoalSink {
    /// Explain trees and top-level goal spans.
    pub log: Option<GoalLog>,
    /// The goal-depth histogram and evictions, plus the session totals
    /// folded in on detach.
    pub metrics: MetricsRegistry,
    /// Flight recorder: `goal`, `cache-evict` and `cancelled` events.
    pub events: EventScope,
}

/// Saturating `u128 -> u64` for nanosecond readings.
fn saturate_ns(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// The memo table for instance resolution: hash-consed goal keys to
/// completed closed derivations, plus session counters. One cache is
/// intended to live for a whole elaboration run (and may live longer —
/// entries never go stale, because they are context-independent and
/// class environments are immutable once built).
#[derive(Debug, Default)]
pub struct ResolveCache {
    interner: Interner,
    table: HashMap<(NameId, TypeId), CacheEntry>,
    /// When `false`, the table is neither consulted nor populated but
    /// counters still accumulate — the cache-off baseline.
    pub enabled: bool,
    pub stats: ResolveStats,
    /// Entry cap for the memo table. `None` (the default) means
    /// unbounded; `Some(n)` evicts an arbitrary tabled derivation
    /// before each insert that would exceed `n` entries.
    capacity: Option<usize>,
    /// Cooperative cancellation, polled every [`CANCEL_POLL_GOALS`]
    /// goals inside the search loop. `None` (the default) costs one
    /// branch per poll site.
    cancel: Option<CancelToken>,
    /// The session's observers; `None` (the default) costs one branch
    /// per report site and allocates nothing.
    sink: Option<Box<GoalSink>>,
}

impl ResolveCache {
    /// An active cache.
    pub fn new() -> Self {
        ResolveCache {
            enabled: true,
            ..Default::default()
        }
    }

    /// A counters-only cache: never hits, never stores. Used for the
    /// memo-off baseline so the same code path is measured both ways.
    pub fn disabled() -> Self {
        ResolveCache::default()
    }

    /// Number of tabled derivations.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The cost (in budget steps) recorded for a goal, if tabled.
    pub fn cost_of(&mut self, pred: &Pred) -> Option<usize> {
        let class = self.interner.intern_name(&pred.class);
        let ty = self.interner.intern(&pred.ty);
        self.table.get(&(class, ty)).map(|e| e.cost)
    }

    /// Cap the memo table at `n` entries; inserts beyond the cap evict
    /// an arbitrary existing entry (counted under
    /// `resolve.cache.evictions` when metrics are on).
    pub fn set_capacity(&mut self, n: usize) {
        self.capacity = Some(n);
    }

    /// Install a cancellation token; subsequent resolutions return
    /// [`ResolveError::Cancelled`] shortly after it fires.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Install `sink` as the observers of the resolutions that follow,
    /// replacing any installed before. A sink with every part off
    /// installs nothing.
    pub fn install(&mut self, sink: GoalSink) {
        let on = sink.log.is_some() || sink.metrics.is_enabled() || sink.events.is_enabled();
        self.sink = on.then(|| Box::new(sink));
    }

    /// Take every observer out — later resolutions record nothing
    /// anywhere — and hand them back, with the session totals
    /// (resolution counters, interner traffic, end-of-run table sizes)
    /// folded into the metrics. The fold is cumulative over the
    /// cache's life, so a cache reused across sessions should collect
    /// metrics in one of them only.
    pub fn detach(&mut self) -> GoalSink {
        let Some(mut sink) = self.sink.take() else {
            return GoalSink::default();
        };
        let (m, s) = (&mut sink.metrics, self.stats);
        m.add(CounterId::ResolveCacheHits, s.table_hits);
        m.add(CounterId::ResolveCacheMisses, s.table_misses);
        m.add(CounterId::ResolveGoals, s.goals);
        m.add(CounterId::ResolveDictsConstructed, s.dicts_constructed);
        let intern = self.interner.stats();
        m.add(CounterId::InternHits, intern.hits);
        m.add(CounterId::InternFresh, intern.fresh);
        m.set_gauge(GaugeId::InternTableSize, self.interner.len() as u64);
        m.set_gauge(GaugeId::ResolveCacheEntries, self.table.len() as u64);
        *sink
    }

    /// Report a goal at `depth` whose memo disposition is now known:
    /// the memo counters, the `goal` event and, when explaining, the
    /// frame that collects the goal's subgoals.
    fn disposed(&mut self, depth: usize, memo: Memo) {
        let code = match memo {
            Memo::Hit { .. } => {
                self.stats.table_hits += 1;
                MEMO_HIT
            }
            Memo::Miss { .. } => {
                self.stats.table_misses += 1;
                MEMO_MISS
            }
            Memo::Uncached => MEMO_UNCACHED,
        };
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.events.record(EventKind::Goal, depth as u64, code);
            if let Some(log) = sink.log.as_mut().filter(|l| l.explain) {
                log.frames.push(Frame {
                    depth,
                    // Nothing between a goal's count and its
                    // disposition counts goals.
                    seq: self.stats.goals,
                    memo,
                    children: Vec::new(),
                });
            }
        }
    }
}

struct Search<'e> {
    env: &'e ClassEnv,
    assumptions: &'e [Pred],
    budget: ReduceBudget,
    steps: usize,
    /// Goals on the current derivation path (for cycle detection).
    in_progress: Vec<(String, Type)>,
    cache: &'e mut ResolveCache,
    /// Every assumption is head-normal-form (variable-headed), so no
    /// pure goal can ever be discharged by one — the precondition for
    /// consulting the table (see the module docs on soundness).
    assumptions_hnf: bool,
    /// When this search's top-level goal started, if goal spans are on.
    start: Option<Instant>,
}

impl<'e> Search<'e> {
    fn new(
        env: &'e ClassEnv,
        assumptions: &'e [Pred],
        budget: ReduceBudget,
        cache: &'e mut ResolveCache,
    ) -> Self {
        let assumptions_hnf = assumptions.iter().all(|a| a.in_hnf());
        let epoch = cache.sink.as_ref().and_then(|s| s.log.as_ref()?.epoch);
        Search {
            start: epoch.map(|_| Instant::now()),
            env,
            assumptions,
            budget,
            steps: 0,
            in_progress: Vec::new(),
            cache,
            assumptions_hnf,
        }
    }

    /// Resolve one goal: [`Search::resolve_step`], then
    /// [`Search::close`] when a sink is installed.
    fn resolve(&mut self, pred: &Pred, depth: usize) -> Result<DictDeriv, ResolveError> {
        let result = self.resolve_step(pred, depth);
        if self.cache.sink.is_some() {
            self.close(pred, depth, &result);
        }
        result
    }

    /// Close one goal: its depth-histogram observation, its explain
    /// node (whose children its subgoals closed into its frame), and
    /// for the top-level goal its span.
    fn close(&mut self, pred: &Pred, depth: usize, result: &Result<DictDeriv, ResolveError>) {
        let (env, assumptions, goals) = (self.env, self.assumptions, self.cache.stats.goals);
        let Some(sink) = self.cache.sink.as_deref_mut() else {
            return;
        };
        sink.metrics
            .observe(HistogramId::ResolveGoalDepth, depth as u64);
        let Some(log) = sink.log.as_mut() else {
            return;
        };
        if let (0, Some(start), Some(epoch)) = (depth, self.start, log.epoch) {
            // `duration_since` saturates to zero if `start` somehow
            // precedes the epoch — no panic path.
            log.spans.push(SpanEvent {
                name: pred.to_string(),
                cat: "resolve",
                start_ns: saturate_ns(start.duration_since(epoch).as_nanos()),
                duration_ns: saturate_ns(start.elapsed().as_nanos()),
            });
        }
        if !log.explain {
            return;
        }
        // A goal that failed before its memo disposition has no frame
        // and no subgoals, and no goal was counted after its own.
        let (seq, memo, children) = match log.frames.pop_if(|f| f.depth == depth) {
            Some(f) => (f.seq, f.memo, f.children),
            None => (goals, Memo::Uncached, Vec::new()),
        };
        let outcome = match result {
            Ok(d) => describe(env, assumptions, memo, d),
            Err(e) => format!("failed: {e}"),
        };
        let node = TraceNode::new(format!("[#{seq}] {pred}: {outcome}"), children);
        match log.frames.last_mut() {
            Some(parent) => parent.children.push(node),
            None => log.trees.push(node),
        }
    }

    /// The actual backward-chaining step behind [`Search::resolve`].
    fn resolve_step(&mut self, pred: &Pred, depth: usize) -> Result<DictDeriv, ResolveError> {
        self.steps += 1;
        self.cache.stats.goals += 1;
        self.cache.stats.steps += 1;
        let goal_seq = self.cache.stats.goals;
        // Poll the cancellation token every few goals: cheap enough to
        // keep deadline latency low (one goal is itself bounded work),
        // rare enough that the clock read stays off the hot path.
        if self.steps & (CANCEL_POLL_GOALS - 1) == 0 {
            if let Some(c) = &self.cache.cancel {
                if c.is_cancelled() {
                    if let Some(sink) = &self.cache.sink {
                        sink.events.cancelled(Stage::Elaborate);
                    }
                    return Err(ResolveError::Cancelled { pred: pred.clone() });
                }
            }
        }
        if self.steps > self.budget.max_steps {
            return Err(ResolveError::BudgetExhausted {
                pred: pred.clone(),
                depth: false,
            });
        }
        if depth > self.budget.max_depth {
            return Err(ResolveError::BudgetExhausted {
                pred: pred.clone(),
                depth: true,
            });
        }

        let (memo, answer) = self.lookup(pred)?;
        self.cache.disposed(depth, memo);
        if let Some(d) = answer {
            return Ok(d);
        }
        let steps_at_entry = self.steps;

        // 4. Cycle check before chaining through instances.
        let key = (pred.class.clone(), pred.ty.clone());
        if self.in_progress.contains(&key) {
            let trail = self
                .in_progress
                .iter()
                .map(|(c, t)| Pred::new(c.clone(), t.clone(), pred.span))
                .collect();
            return Err(ResolveError::Cycle {
                pred: pred.clone(),
                trail,
            });
        }

        // 5. Instance chaining.
        let Some((inst, subst)) = self.env.matching_instance(pred) else {
            return Err(ResolveError::NoInstance { pred: pred.clone() });
        };
        let inst_id = inst.id;
        let subgoals: Vec<Pred> = inst
            .preds
            .iter()
            .map(|p| {
                let mut sp = p.apply(&subst);
                // Blame the original use site, not the instance decl.
                sp.span = pred.span;
                sp
            })
            .collect();

        self.in_progress.push(key);
        let mut args = Vec::with_capacity(subgoals.len());
        let mut result = Ok(());
        for sg in &subgoals {
            match self.resolve(sg, depth + 1) {
                Ok(d) => args.push(d),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.in_progress.pop();
        result?;
        self.cache.stats.dicts_constructed += 1;
        let deriv = DictDeriv::FromInstance { inst_id, args };

        // 6. Table the completed derivation. `is_closed` re-checks
        //    that no subgoal leaned on an assumption (belt and braces —
        //    the HNF guard already rules it out for pure goals).
        if let Memo::Miss { key } = memo {
            if deriv.is_closed() {
                // Honour the entry cap: make room by dropping an
                // arbitrary tabled derivation. Correctness is
                // unaffected — an evicted goal is simply re-derived.
                if let Some(cap) = self.cache.capacity {
                    let cap = cap.max(1);
                    let mut evicted = 0u64;
                    while self.cache.table.len() >= cap {
                        let Some(victim) = self.cache.table.keys().next().copied() else {
                            break;
                        };
                        self.cache.table.remove(&victim);
                        evicted += 1;
                    }
                    if let Some(sink) = self.cache.sink.as_deref_mut().filter(|_| evicted > 0) {
                        sink.metrics.add(CounterId::ResolveCacheEvictions, evicted);
                        sink.events.record(EventKind::CacheEvict, evicted, 0);
                    }
                }
                // The goal's own entry step plus everything below it.
                let cost = (self.steps - steps_at_entry).saturating_add(1);
                self.cache.table.insert(
                    key,
                    CacheEntry {
                        deriv: deriv.clone(),
                        cost,
                        origin: goal_seq,
                    },
                );
            }
        }
        Ok(deriv)
    }

    /// Steps 1–3 of [`Search::resolve_step`]: the goal's memo
    /// disposition, plus its derivation when an assumption, a
    /// superclass projection or a table hit discharges it without
    /// instance chaining.
    fn lookup(&mut self, pred: &Pred) -> Result<(Memo, Option<DictDeriv>), ResolveError> {
        // 1. Direct assumption?
        if let Some(index) = self
            .assumptions
            .iter()
            .position(|a| a.same_constraint(pred))
        {
            return Ok((Memo::Uncached, Some(DictDeriv::FromParam { index })));
        }

        // 2. Reachable from an assumption through superclass edges?
        //    (`class Eq a => Ord a` + assumption `Ord t` entails `Eq t`.)
        if let Some(d) = self.via_supers(pred) {
            return Ok((Memo::Uncached, Some(d)));
        }

        if !self.env.classes.contains_key(&pred.class) {
            return Err(ResolveError::UnknownClass { pred: pred.clone() });
        }

        // 3. Memo table. Consulted only after the assumption checks
        //    (which are per-call) and only for pure goals under an
        //    all-HNF assumption set, so a hit is exactly what a fresh
        //    instance-chaining search would have derived. A hit has
        //    already been charged its single budget step.
        if !(self.cache.enabled && self.assumptions_hnf) {
            return Ok((Memo::Uncached, None));
        }
        let class = self.cache.interner.intern_name(&pred.class);
        let ty = self.cache.interner.intern(&pred.ty);
        if !self.cache.interner.is_pure(ty) {
            return Ok((Memo::Uncached, None));
        }
        Ok(match self.cache.table.get(&(class, ty)) {
            Some(e) => (Memo::Hit { origin: e.origin }, Some(e.deriv.clone())),
            None => (Memo::Miss { key: (class, ty) }, None),
        })
    }

    /// BFS over superclass edges from each assumption, looking for
    /// `pred`. Returns the projection chain if found. The search is
    /// bounded by a visited set, so superclass graphs (validated
    /// acyclic at build time, but belt and braces) cannot loop it.
    fn via_supers(&mut self, pred: &Pred) -> Option<DictDeriv> {
        let mut queue: Vec<(Pred, DictDeriv)> = self
            .assumptions
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), DictDeriv::FromParam { index: i }))
            .collect();
        let mut visited: HashSet<(String, Type)> = HashSet::new();
        let mut qi = 0usize;
        while qi < queue.len() {
            if self.steps >= self.budget.max_steps {
                return None;
            }
            self.steps += 1;
            self.cache.stats.steps += 1;
            let (cur, deriv) = queue[qi].clone();
            qi += 1;
            if !visited.insert((cur.class.clone(), cur.ty.clone())) {
                continue;
            }
            if cur.same_constraint(pred) {
                return Some(deriv);
            }
            if let Some(ci) = self.env.classes.get(&cur.class) {
                for (slot, sup) in ci.supers.iter().enumerate() {
                    queue.push((
                        Pred::new(sup.clone(), cur.ty.clone(), cur.span),
                        DictDeriv::FromSuper {
                            base: Box::new(deriv.clone()),
                            slot: ci.super_slot(slot),
                        },
                    ));
                }
            }
        }
        None
    }
}

impl ClassEnv {
    /// Resolve `pred` to a dictionary recipe against `assumptions`
    /// (the dictionary parameters in scope, in order), without
    /// memoization. Equivalent to [`ClassEnv::resolve_with`] against a
    /// throwaway disabled cache.
    pub fn resolve(
        &self,
        pred: &Pred,
        assumptions: &[Pred],
        budget: ReduceBudget,
    ) -> Result<DictDeriv, ResolveError> {
        let mut cache = ResolveCache::disabled();
        self.resolve_with(pred, assumptions, budget, &mut cache)
    }

    /// Resolve `pred` against `assumptions`, consulting and populating
    /// `cache`. Guaranteed to return exactly what [`ClassEnv::resolve`]
    /// would — the table only short-circuits derivations that are
    /// independent of the assumption set (see the module docs) — while
    /// charging a tabled goal a single budget step.
    pub fn resolve_with(
        &self,
        pred: &Pred,
        assumptions: &[Pred],
        budget: ReduceBudget,
        cache: &mut ResolveCache,
    ) -> Result<DictDeriv, ResolveError> {
        let mut s = Search::new(self, assumptions, budget, cache);
        s.resolve(pred, 0)
    }

    /// Can `pred` be discharged at all (ignoring the recipe)?
    pub fn entails(&self, pred: &Pred, assumptions: &[Pred], budget: ReduceBudget) -> bool {
        self.resolve(pred, assumptions, budget).is_ok()
    }

    /// Context reduction for generalization: rewrite each predicate to
    /// head-normal form (variable-headed), discharging constructor-headed
    /// predicates through instances, then drop duplicates and
    /// predicates entailed by the rest via superclasses.
    ///
    /// Returns the reduced context and all resolution errors
    /// encountered (e.g. `NoInstance` for `Eq (Int -> Int)`).
    pub fn reduce_context(
        &self,
        preds: &[Pred],
        budget: ReduceBudget,
    ) -> (Vec<Pred>, Vec<ResolveError>) {
        let mut hnf: Vec<Pred> = Vec::new();
        let mut errors: Vec<ResolveError> = Vec::new();
        let mut steps = 0usize;

        // Phase 1: to HNF. Worklist with explicit budget.
        let mut work: Vec<(Pred, usize)> = preds.iter().map(|p| (p.clone(), 0)).collect();
        work.reverse();
        while let Some((p, depth)) = work.pop() {
            steps += 1;
            if steps > budget.max_steps {
                errors.push(ResolveError::BudgetExhausted {
                    pred: p,
                    depth: false,
                });
                break;
            }
            if p.in_hnf() {
                hnf.push(p);
                continue;
            }
            if depth > budget.max_depth {
                errors.push(ResolveError::BudgetExhausted {
                    pred: p,
                    depth: true,
                });
                continue;
            }
            if !self.classes.contains_key(&p.class) {
                errors.push(ResolveError::UnknownClass { pred: p });
                continue;
            }
            match self.matching_instance(&p) {
                Some((inst, subst)) => {
                    for sub in inst.preds.iter().rev() {
                        let mut sp = sub.apply(&subst);
                        sp.span = p.span;
                        work.push((sp, depth + 1));
                    }
                }
                None => errors.push(ResolveError::NoInstance { pred: p }),
            }
        }

        // Phase 2: simplify. Keep a predicate only if it is not entailed
        // by the *other* retained predicates (via superclasses), and
        // drop structural duplicates.
        let mut kept: Vec<Pred> = Vec::new();
        for (i, p) in hnf.iter().enumerate() {
            let others: Vec<Pred> = kept
                .iter()
                .cloned()
                .chain(hnf.iter().skip(i + 1).cloned())
                .collect();
            let redundant = others.iter().any(|o| o.same_constraint(p))
                || self.resolve_via_supers_only(p, &others, budget).is_some();
            if !redundant {
                kept.push(p.clone());
            }
        }
        (kept, errors)
    }

    /// Entailment using only assumption + superclass edges (no
    /// instances). Used by simplification, where discharging via an
    /// instance would be wrong (an HNF pred has a variable head, so no
    /// instance applies anyway — this is the THIH `bySuper` half).
    fn resolve_via_supers_only(
        &self,
        pred: &Pred,
        assumptions: &[Pred],
        budget: ReduceBudget,
    ) -> Option<DictDeriv> {
        let mut cache = ResolveCache::disabled();
        let mut s = Search::new(self, assumptions, budget, &mut cache);
        s.via_supers(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ClassInfo, Instance};
    use tc_syntax::Span;
    use tc_types::{Scheme, TyVar};

    fn sp() -> Span {
        Span::DUMMY
    }

    /// Eq (no supers), Ord (super Eq); instances Eq Int, Eq (List a) <= Eq a, Ord Int.
    fn env() -> ClassEnv {
        let mut env = ClassEnv::default();
        env.classes.insert(
            "Eq".into(),
            ClassInfo {
                name: "Eq".into(),
                supers: vec![],
                methods: vec![crate::env::MethodInfo {
                    name: "eq".into(),
                    scheme: Scheme::mono(Type::int()),
                    index: 0,
                    span: sp(),
                }],
                span: sp(),
            },
        );
        env.classes.insert(
            "Ord".into(),
            ClassInfo {
                name: "Ord".into(),
                supers: vec!["Eq".into()],
                methods: vec![],
                span: sp(),
            },
        );
        env.method_owner.insert("eq".into(), "Eq".into());
        env.instances.insert(
            "Eq".into(),
            vec![
                Instance {
                    ast_index: 0,
                    id: 0,
                    preds: vec![],
                    head: Pred::new("Eq", Type::int(), sp()),
                    span: sp(),
                },
                Instance {
                    ast_index: 0,
                    id: 1,
                    preds: vec![Pred::new("Eq", Type::Var(TyVar(0)), sp())],
                    head: Pred::new("Eq", Type::list(Type::Var(TyVar(0))), sp()),
                    span: sp(),
                },
            ],
        );
        env.instances.insert(
            "Ord".into(),
            vec![Instance {
                ast_index: 0,
                id: 2,
                preds: vec![],
                head: Pred::new("Ord", Type::int(), sp()),
                span: sp(),
            }],
        );
        env
    }

    #[test]
    fn resolves_ground_instance() {
        let e = env();
        let d = e
            .resolve(&Pred::new("Eq", Type::int(), sp()), &[], Default::default())
            .unwrap();
        assert_eq!(
            d,
            DictDeriv::FromInstance {
                inst_id: 0,
                args: vec![]
            }
        );
    }

    #[test]
    fn resolves_nested_instance() {
        let e = env();
        let d = e
            .resolve(
                &Pred::new("Eq", Type::list(Type::list(Type::int())), sp()),
                &[],
                Default::default(),
            )
            .unwrap();
        // Eq (List (List Int)) = inst1 (inst1 (inst0))
        assert_eq!(
            d,
            DictDeriv::FromInstance {
                inst_id: 1,
                args: vec![DictDeriv::FromInstance {
                    inst_id: 1,
                    args: vec![DictDeriv::FromInstance {
                        inst_id: 0,
                        args: vec![]
                    }]
                }]
            }
        );
    }

    #[test]
    fn resolves_from_assumption_and_superclass() {
        let e = env();
        let assump = [Pred::new("Ord", Type::Var(TyVar(5)), sp())];
        // Ord t5 is a param; Eq t5 comes from Ord's superclass slot 0.
        let d1 = e.resolve(&assump[0], &assump, Default::default()).unwrap();
        assert_eq!(d1, DictDeriv::FromParam { index: 0 });
        let d2 = e
            .resolve(
                &Pred::new("Eq", Type::Var(TyVar(5)), sp()),
                &assump,
                Default::default(),
            )
            .unwrap();
        assert_eq!(
            d2,
            DictDeriv::FromSuper {
                base: Box::new(DictDeriv::FromParam { index: 0 }),
                slot: 0
            }
        );
    }

    #[test]
    fn missing_instance() {
        let e = env();
        let err = e
            .resolve(
                &Pred::new("Eq", Type::bool(), sp()),
                &[],
                Default::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ResolveError::NoInstance { .. }));
    }

    #[test]
    fn self_referential_instance_is_cycle() {
        let mut e = env();
        // instance Eq Bool => Eq Bool  (exact self-cycle)
        if let Some(insts) = e.instances.get_mut("Eq") {
            insts.push(Instance {
                ast_index: 0,
                id: 9,
                preds: vec![Pred::new("Eq", Type::bool(), sp())],
                head: Pred::new("Eq", Type::bool(), sp()),
                span: sp(),
            });
        }
        let err = e
            .resolve(
                &Pred::new("Eq", Type::bool(), sp()),
                &[],
                Default::default(),
            )
            .unwrap_err();
        assert!(matches!(err, ResolveError::Cycle { .. }), "{err:?}");
    }

    #[test]
    fn growing_goals_hit_budget() {
        let mut e = ClassEnv::default();
        e.classes.insert(
            "C".into(),
            ClassInfo {
                name: "C".into(),
                supers: vec![],
                methods: vec![],
                span: sp(),
            },
        );
        // instance C (List (List a)) => C (List a): goals grow forever.
        e.instances.insert(
            "C".into(),
            vec![Instance {
                ast_index: 0,
                id: 0,
                preds: vec![Pred::new(
                    "C",
                    Type::list(Type::list(Type::Var(TyVar(0)))),
                    sp(),
                )],
                head: Pred::new("C", Type::list(Type::Var(TyVar(0))), sp()),
                span: sp(),
            }],
        );
        let err = e
            .resolve(
                &Pred::new("C", Type::list(Type::int()), sp()),
                &[],
                Default::default(),
            )
            .unwrap_err();
        assert!(
            matches!(err, ResolveError::BudgetExhausted { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn reduce_context_discharges_and_simplifies() {
        let e = env();
        let preds = vec![
            Pred::new("Eq", Type::list(Type::Var(TyVar(3))), sp()), // -> Eq t3
            Pred::new("Eq", Type::Var(TyVar(3)), sp()),             // duplicate after HNF
            Pred::new("Ord", Type::Var(TyVar(3)), sp()),            // entails Eq t3
        ];
        let (kept, errs) = e.reduce_context(&preds, Default::default());
        assert!(errs.is_empty(), "{errs:?}");
        // Only Ord t3 should remain: Eq t3 is implied by its superclass.
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].class, "Ord");
    }

    #[test]
    fn reduce_context_reports_no_instance() {
        let e = env();
        let preds = vec![Pred::new("Eq", Type::fun(Type::int(), Type::int()), sp())];
        let (kept, errs) = e.reduce_context(&preds, Default::default());
        assert!(kept.is_empty());
        assert!(matches!(errs[0], ResolveError::NoInstance { .. }));
    }

    /// A sink with just the explain log.
    fn explain() -> GoalSink {
        GoalSink {
            log: GoalLog::new(true, None),
            ..GoalSink::default()
        }
    }

    /// A sink with just metrics.
    fn metrics() -> GoalSink {
        GoalSink {
            metrics: MetricsRegistry::new(),
            ..GoalSink::default()
        }
    }

    /// `Eq (List^depth Int)`.
    fn tower(depth: usize) -> Pred {
        let mut t = Type::int();
        for _ in 0..depth {
            t = Type::list(t);
        }
        Pred::new("Eq", t, sp())
    }

    #[test]
    fn tabled_resolution_agrees_with_fresh() {
        let e = env();
        let mut cache = ResolveCache::new();
        for depth in [0, 1, 3, 5, 3, 1, 0] {
            let goal = tower(depth);
            let fresh = e.resolve(&goal, &[], Default::default());
            let tabled = e.resolve_with(&goal, &[], Default::default(), &mut cache);
            assert_eq!(fresh, tabled, "depth {depth}");
        }
        assert!(cache.stats.table_hits > 0, "{:?}", cache.stats);
        assert!(!cache.is_empty());
    }

    #[test]
    fn table_hit_costs_one_step() {
        let e = env();
        let mut cache = ResolveCache::new();
        let goal = tower(6);
        e.resolve_with(&goal, &[], Default::default(), &mut cache)
            .unwrap();
        let original_cost = cache.cost_of(&goal).expect("tabled");
        assert!(original_cost > 1, "a tower derivation is multi-step");
        // A second resolution fits in a one-step budget: pure lookup.
        let tight = ReduceBudget {
            max_depth: 64,
            max_steps: 1,
        };
        let hit = e.resolve_with(&goal, &[], tight, &mut cache);
        assert!(hit.is_ok(), "{hit:?}");
        // Without the table the same budget is exhausted.
        let fresh = e.resolve(&goal, &[], tight);
        assert!(
            matches!(fresh, Err(ResolveError::BudgetExhausted { .. })),
            "{fresh:?}"
        );
    }

    #[test]
    fn cycle_detection_survives_tabling() {
        let mut e = env();
        if let Some(insts) = e.instances.get_mut("Eq") {
            insts.push(Instance {
                ast_index: 0,
                id: 9,
                preds: vec![Pred::new("Eq", Type::bool(), sp())],
                head: Pred::new("Eq", Type::bool(), sp()),
                span: sp(),
            });
        }
        let mut cache = ResolveCache::new();
        for _ in 0..2 {
            let err = e
                .resolve_with(
                    &Pred::new("Eq", Type::bool(), sp()),
                    &[],
                    Default::default(),
                    &mut cache,
                )
                .unwrap_err();
            assert!(matches!(err, ResolveError::Cycle { .. }), "{err:?}");
        }
        // Failures are never tabled.
        assert!(cache.is_empty());
        assert_eq!(cache.stats.table_hits, 0);
    }

    #[test]
    fn non_pure_goals_are_not_tabled() {
        let e = env();
        let mut cache = ResolveCache::new();
        let assump = [Pred::new("Eq", Type::Var(TyVar(7)), sp())];
        let goal = Pred::new("Eq", Type::list(Type::Var(TyVar(7))), sp());
        for _ in 0..3 {
            let d = e
                .resolve_with(&goal, &assump, Default::default(), &mut cache)
                .unwrap();
            assert_eq!(
                d,
                DictDeriv::FromInstance {
                    inst_id: 1,
                    args: vec![DictDeriv::FromParam { index: 0 }]
                }
            );
        }
        assert!(cache.is_empty(), "open derivations must not be tabled");
        assert_eq!(cache.stats.table_hits, 0);
    }

    #[test]
    fn ground_assumptions_bypass_the_table() {
        // A ground (non-HNF) assumption can discharge a ground goal;
        // the table must stand aside so cached and fresh resolution
        // stay identical.
        let e = env();
        let mut cache = ResolveCache::new();
        // Prime the table with the closed derivation.
        let goal = Pred::new("Eq", Type::list(Type::int()), sp());
        e.resolve_with(&goal, &[], Default::default(), &mut cache)
            .unwrap();
        assert!(!cache.is_empty());
        // Now resolve the same goal with itself as a ground assumption:
        // fresh resolution answers FromParam, and so must cached.
        let assump = [goal.clone()];
        let cached = e
            .resolve_with(&goal, &assump, Default::default(), &mut cache)
            .unwrap();
        let fresh = e.resolve(&goal, &assump, Default::default()).unwrap();
        assert_eq!(cached, DictDeriv::FromParam { index: 0 });
        assert_eq!(cached, fresh);
    }

    #[test]
    fn disabled_cache_counts_but_never_hits() {
        let e = env();
        let mut cache = ResolveCache::disabled();
        for _ in 0..3 {
            e.resolve_with(&tower(4), &[], Default::default(), &mut cache)
                .unwrap();
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats.table_hits, 0);
        assert_eq!(cache.stats.dicts_constructed, 15, "{:?}", cache.stats);
        assert!(cache.stats.goals >= 15);
    }

    #[test]
    fn explain_trace_records_instances_and_memo_hits() {
        let e = env();
        let mut cache = ResolveCache::new();
        cache.install(explain());
        // First derivation: full instance chain, tabled.
        e.resolve_with(&tower(1), &[], Default::default(), &mut cache)
            .unwrap();
        // Second: answered by the table, with provenance.
        e.resolve_with(&tower(1), &[], Default::default(), &mut cache)
            .unwrap();
        let log = cache.detach().log.expect("tracing was enabled");
        assert!(cache.detach().log.is_none(), "detach turns tracing off");
        assert_eq!(log.len(), 2, "{log:?}");
        let rendered = log.render().expect("explaining");
        assert!(rendered.contains("Eq (List Int)"), "{rendered}");
        assert!(rendered.contains("instance #1"), "{rendered}");
        assert!(rendered.contains("[tabled]"), "{rendered}");
        assert!(rendered.contains("instance #0"), "{rendered}");
        // The second goal's node is a memo hit pointing at goal #1.
        assert!(
            rendered.contains("memo hit (derived at goal #1)"),
            "{rendered}"
        );
        // The subgoal (Eq Int) is indented under its parent.
        assert!(rendered.contains("\n  [#2]"), "{rendered}");
    }

    #[test]
    fn explain_trace_records_assumptions_and_projections() {
        let e = env();
        let mut cache = ResolveCache::new();
        cache.install(explain());
        let assump = [Pred::new("Ord", Type::Var(TyVar(5)), sp())];
        e.resolve_with(&assump[0], &assump, Default::default(), &mut cache)
            .unwrap();
        e.resolve_with(
            &Pred::new("Eq", Type::Var(TyVar(5)), sp()),
            &assump,
            Default::default(),
            &mut cache,
        )
        .unwrap();
        let rendered = cache
            .detach()
            .log
            .and_then(|l| l.render())
            .expect("tracing on");
        assert!(rendered.contains("assumption #0"), "{rendered}");
        assert!(
            rendered.contains("superclass projection of assumption #0 (slots [0])"),
            "{rendered}"
        );
    }

    #[test]
    fn explain_trace_records_failures() {
        let e = env();
        let mut cache = ResolveCache::new();
        cache.install(explain());
        e.resolve_with(
            &Pred::new("Eq", Type::bool(), sp()),
            &[],
            Default::default(),
            &mut cache,
        )
        .unwrap_err();
        let rendered = cache
            .detach()
            .log
            .and_then(|l| l.render())
            .expect("tracing on");
        assert!(
            rendered.contains("failed: no instance for `Eq Bool`"),
            "{rendered}"
        );
    }

    #[test]
    fn tracing_off_allocates_no_trace_structures() {
        let e = env();
        let mut cache = ResolveCache::new();
        e.resolve_with(&tower(3), &[], Default::default(), &mut cache)
            .unwrap();
        assert!(cache.sink.is_none());
        assert!(cache.detach().log.is_none());
    }

    #[test]
    fn traced_resolution_agrees_with_untraced() {
        let e = env();
        let mut traced = ResolveCache::new();
        traced.install(explain());
        let mut plain = ResolveCache::new();
        for depth in [0, 2, 4, 2, 0] {
            let goal = tower(depth);
            let a = e.resolve_with(&goal, &[], Default::default(), &mut traced);
            let b = e.resolve_with(&goal, &[], Default::default(), &mut plain);
            assert_eq!(a, b, "depth {depth}");
        }
        assert_eq!(
            traced.stats, plain.stats,
            "tracing must not perturb counters"
        );
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = ResolveStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.goals = 10;
        s.table_hits = 9;
        assert!((s.hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn metrics_agree_with_stats_after_flush() {
        let e = env();
        let mut cache = ResolveCache::new();
        cache.install(metrics());
        for depth in [4, 4, 2] {
            e.resolve_with(&tower(depth), &[], Default::default(), &mut cache)
                .unwrap();
        }
        let sink = cache.detach();
        let m = &sink.metrics;
        assert_eq!(
            m.counter(CounterId::ResolveCacheHits),
            cache.stats.table_hits
        );
        assert_eq!(
            m.counter(CounterId::ResolveCacheMisses),
            cache.stats.table_misses
        );
        assert_eq!(m.counter(CounterId::ResolveGoals), cache.stats.goals);
        assert_eq!(
            m.counter(CounterId::ResolveDictsConstructed),
            cache.stats.dicts_constructed
        );
        assert!(m.counter(CounterId::InternFresh) > 0);
        assert_eq!(m.gauge(GaugeId::ResolveCacheEntries), cache.len() as u64);
        // One histogram observation per goal, and the tower goes at
        // least 4 deep, so some observation sits in a bucket >= 4's.
        let h = m.histogram(HistogramId::ResolveGoalDepth).expect("on");
        assert_eq!(h.count, cache.stats.goals);
        assert!(h.sum > 0, "subgoals run at nonzero depth");
    }

    #[test]
    fn metrics_off_by_default_and_allocation_free() {
        let e = env();
        let mut cache = ResolveCache::new();
        e.resolve_with(&tower(3), &[], Default::default(), &mut cache)
            .unwrap();
        let sink = cache.detach();
        assert!(sink.metrics.allocates_nothing());
        assert_eq!(sink.metrics.counter(CounterId::ResolveGoals), 0);
    }

    #[test]
    fn capacity_caps_table_and_counts_evictions() {
        let e = env();
        let mut cache = ResolveCache::new();
        cache.install(metrics());
        cache.set_capacity(2);
        // A depth-6 tower tables one derivation per layer: 7 without a
        // cap, so the cap must evict.
        e.resolve_with(&tower(6), &[], Default::default(), &mut cache)
            .unwrap();
        assert!(cache.len() <= 2, "table holds {} entries", cache.len());
        let sink = cache.detach();
        assert!(sink.metrics.counter(CounterId::ResolveCacheEvictions) > 0);
        // Capped resolution still answers identically to fresh.
        let fresh = e.resolve(&tower(6), &[], Default::default());
        let capped = e.resolve_with(&tower(6), &[], Default::default(), &mut cache);
        assert_eq!(fresh, capped);
    }

    #[test]
    fn goal_spans_record_top_level_goals_only() {
        let e = env();
        let mut cache = ResolveCache::new();
        let epoch = Instant::now();
        cache.install(GoalSink {
            log: GoalLog::new(false, Some(epoch)),
            ..GoalSink::default()
        });
        e.resolve_with(&tower(3), &[], Default::default(), &mut cache)
            .unwrap();
        e.resolve_with(&tower(1), &[], Default::default(), &mut cache)
            .unwrap();
        let spans = cache.detach().log.map(|l| l.spans).unwrap_or_default();
        // One span per *top-level* goal, not per subgoal.
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert!(spans.iter().all(|s| s.cat == "resolve"));
        assert!(spans[0].name.contains("Eq"), "{spans:?}");
        // Monotone: the second goal starts at or after the first.
        assert!(spans[1].start_ns >= spans[0].start_ns);
        // Collection turned itself off with detach.
        assert!(cache.detach().log.is_none());
    }

    #[test]
    fn goal_spans_off_reads_no_clock_state() {
        let e = env();
        let mut cache = ResolveCache::new();
        e.resolve_with(&tower(2), &[], Default::default(), &mut cache)
            .unwrap();
        assert!(cache.sink.is_none());
        assert!(cache.detach().log.is_none());
    }

    #[test]
    fn cancellation_interrupts_a_deep_resolution() {
        let e = env();
        let budget = ReduceBudget {
            max_depth: 300,
            max_steps: 100_000,
        };
        // Deep enough that the search passes the 64-step poll point.
        let goal = tower(200);
        let mut cache = ResolveCache::new();
        let token = CancelToken::new();
        token.cancel();
        cache.set_cancel(token);
        let err = e.resolve_with(&goal, &[], budget, &mut cache).unwrap_err();
        assert!(matches!(err, ResolveError::Cancelled { .. }), "{err:?}");
        assert_eq!(err.code(), "E0423");
        // The same goal resolves under the same budget without a token.
        let mut plain = ResolveCache::new();
        assert!(e.resolve_with(&goal, &[], budget, &mut plain).is_ok());
    }
}
