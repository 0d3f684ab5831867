//! `tc-driver`: the end-to-end pipeline.
//!
//! One call to [`run_source`] takes Mini-Haskell source text through
//! every stage of the dictionary-passing compilation scheme of
//! Peterson & Jones:
//!
//! 1. **lex** / **parse** ([`tc_syntax`]) — error-recovering; junk
//!    input yields diagnostics plus a partial AST, never a panic;
//! 2. **class environment** ([`tc_classes`]) — class and instance
//!    declarations are checked (duplicate methods, overlapping
//!    instances, superclass cycles) and method slots laid out;
//! 3. **elaboration** ([`tc_core`]) — Hindley-Milner inference with
//!    class contexts, inserting dictionary placeholders, then the
//!    conversion pass that spells each placeholder out as a parameter
//!    reference, superclass projection, or instance application;
//! 4. **lint** ([`tc_lint`], via [`lint_source`] only) — the
//!    whole-program static-analysis pass over the surface AST, class
//!    environment, and converted core, with per-rule allow/warn/deny
//!    levels ([`Options::lint_levels`]);
//! 5. **evaluation** ([`tc_eval`]) — the lazy core interpreter runs
//!    `main` under an explicit [`Budget`] (fuel, nesting depth,
//!    allocation cap), so even adversarial programs terminate with a
//!    structured [`EvalError`].
//!
//! A prelude (classes `Eq`, `Ord`, `Num`; instances for `Int`, `Bool`
//! and `List`; `member` and the usual list functions) is spliced in
//! front of the user program by default. The driver concatenates the
//! prelude *source* with the user source and compiles the combined
//! text, so every diagnostic span points into one coherent buffer —
//! [`Check::full_source`] — and [`Check::render_diagnostics`] shows
//! correct line/column information for both halves.
//!
//! Every stage accumulates into one [`Diagnostics`] collection; no
//! stage aborts the pipeline, so a single call reports parse errors,
//! type errors, and unresolved constraints together.
//!
//! Every stage runs through one stage runner, keyed by
//! [`tc_trace::Stage`], which owns the stage boundary: the deadline
//! check (one `E0430`, after which later stages are skipped), the
//! flight-recorder stage events, the fault site ([`resilience`]), and
//! the telemetry span. With [`Options::trace_timing`] on, the stage
//! spans land in [`Check::telemetry`] and one span per top-level
//! resolution goal in [`Check::goal_spans`], on the same epoch.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod resilience;

use resilience::{FaultOutcome, Faults};
use tc_classes::{build_class_env, ReduceBudget};
use tc_coherence::{CoherenceInput, LawInput, LawOptions};
use tc_core::{elaborate_with, ElabOptions, Elaboration};
use tc_coreir::ShareStats;
use tc_eval::{Budget, EvalError, EvalOptions};
use tc_lint::LintInput;
use tc_syntax::{Diagnostics, ParseOptions, Span, Stage as DiagStage};
use tc_trace::{
    CancelToken, CounterId, EventScope, HistogramId, JsonWriter, MetricsRegistry, SpanEvent,
    Stage as TraceStage, Telemetry,
};
use tc_types::VarGen;

pub use resilience::FaultPlan;
pub use tc_classes::{GoalLog, ResolveStats};
pub use tc_coherence::{CoherenceConfig, Rule as CoherenceRule};
pub use tc_coreir::ShareStats as DictShareStats;
pub use tc_eval::{BudgetSnapshot, EvalProfile, EvalStats};
pub use tc_lint::{LintConfig, Rule as LintRule};
pub use tc_syntax::LintLevel;

/// Diagnostic code for a compilation cut short by its deadline (the
/// resolver's in-flight flavor of the same event is `E0423`).
pub const CANCELLED_CODE: &str = "E0430";

/// The prelude source spliced in front of user programs.
pub const PRELUDE: &str = include_str!("prelude.mh");

/// Pipeline configuration: which prelude to use and how much of each
/// resource the stages may spend.
#[derive(Debug, Clone)]
pub struct Options {
    /// Splice the standard prelude in front of the user program.
    pub use_prelude: bool,
    /// Parser robustness limits (expression depth, error cap, ...).
    pub parse: ParseOptions,
    /// Instance-resolution / context-reduction budget.
    pub reduce: ReduceBudget,
    /// Evaluator budget (fuel, nesting depth, allocation cap).
    pub budget: Budget,
    /// Per-rule lint levels, used by [`lint_source`]. Rules left at
    /// their default warn; `deny` escalates findings to errors (so
    /// [`Check::ok`] fails), `allow` silences a rule.
    pub lint_levels: LintConfig,
    /// Per-rule coherence levels (`L0008`–`L0011`). The structural
    /// rules — overlapping instances, prelude duplicates, superclass
    /// cycles — deny by default, so an incoherent instance world
    /// still fails compilation the way it did when the class-env
    /// build rejected it outright; now with spans for *both*
    /// instances and a counterexample type.
    pub coherence_levels: CoherenceConfig,
    /// Run the class-law harness ([`tc_coherence::check_laws`]) after
    /// the static passes: generated `Eq`/`Ord` law programs are
    /// elaborated through the ordinary dictionary conversion (reusing
    /// this run's warm resolve cache) and evaluated under
    /// [`Options::law_budget`]; violations report as `L0011`. Off by
    /// default — it costs one extra elaboration plus a few dozen tiny
    /// evaluations.
    pub check_laws: bool,
    /// Evaluator budget per generated law program. Laws are a handful
    /// of applications over enumerated samples, so the default is the
    /// evaluator's small budget.
    pub law_budget: Budget,
    /// Memoize instance resolution across the whole elaboration (the
    /// tabled-resolution layer). On by default; the off switch exists
    /// for baselines and the differential suite.
    pub memoize_resolution: bool,
    /// Hoist repeated compound-dictionary constructions into shared
    /// bindings after conversion (and before linting, so `L0007` sees
    /// the shared program). On by default.
    pub share_dictionaries: bool,
    /// Record per-stage wall-clock spans and pipeline counters in
    /// [`Check::telemetry`], plus one span per top-level resolution
    /// goal in [`Check::goal_spans`] on the same epoch (for the Chrome
    /// trace export, [`Check::chrome_trace_json`]). Off by default;
    /// when off, neither allocates anything.
    pub trace_timing: bool,
    /// Record an explain-trace of every instance resolution in
    /// [`Elaboration::goal_log`] (rendered by
    /// [`Check::render_explain`]). Off by default and zero-cost when
    /// off.
    pub trace_resolution: bool,
    /// Profile the evaluator per top-level binding; the profile lands
    /// in [`RunResult::profile`]. Off by default and zero-cost when
    /// off.
    pub profile_eval: bool,
    /// Collect the whole-pipeline metric catalog — parser recoveries,
    /// interner traffic, resolver cache counters and goal-depth
    /// histogram, sharing counters, evaluator counters — into
    /// [`PipelineStats::metrics`]. Off by default; when off, every
    /// instrumented path is a single branch and allocates nothing.
    pub collect_metrics: bool,
    /// Cooperative cancellation token (usually deadline-backed, from
    /// the serve layer). Checked at stage boundaries, inside the
    /// resolver's search loop, and inside the evaluator's fuel loop;
    /// a tripped token yields an `E0430` diagnostic (or a structured
    /// `cancelled` eval error), never a partial hang. `None` (the
    /// default) disables every check's slow path.
    pub cancel: Option<CancelToken>,
    /// Override the resolution memo-table capacity (graceful
    /// degradation under load: a smaller table sheds memory, not
    /// correctness). `None` keeps the cache's own default.
    pub cache_capacity: Option<usize>,
    /// Deterministic fault injection for this run; disabled (and one
    /// branch per site) by default. See [`resilience`].
    pub faults: Faults,
    /// Flight-recorder scope for this run (see [`tc_trace::events`]):
    /// stage boundaries, resolver goals, cache evictions, evaluator
    /// budget checkpoints, deadline cancellations, and fault firings
    /// each record one fixed-size event into the scope's ring buffer.
    /// Off by default — every site is a single branch and allocates
    /// nothing.
    pub events: EventScope,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            use_prelude: true,
            parse: ParseOptions::default(),
            reduce: ReduceBudget::default(),
            budget: Budget::default(),
            lint_levels: LintConfig::default(),
            coherence_levels: CoherenceConfig::default(),
            check_laws: false,
            law_budget: Budget::small(),
            memoize_resolution: true,
            share_dictionaries: true,
            trace_timing: false,
            trace_resolution: false,
            profile_eval: false,
            collect_metrics: false,
            cancel: None,
            cache_capacity: None,
            faults: Faults::none(),
            events: EventScope::off(),
        }
    }
}

impl Options {
    /// Options without the prelude — the program is compiled alone.
    pub fn bare() -> Self {
        Options {
            use_prelude: false,
            ..Options::default()
        }
    }

    /// Options with the resolution memo table and dictionary sharing
    /// both off — the unoptimized baseline the differential suite and
    /// benches compare against.
    pub fn unoptimized() -> Self {
        Options {
            memoize_resolution: false,
            share_dictionaries: false,
            ..Options::default()
        }
    }

    /// Replace the evaluator budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Counters from one pipeline run: instance resolution, dictionary
/// sharing, and — after evaluation — evaluator resource usage.
/// Rendered by the example runner's `--stats` flag and serialized into
/// bench reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStats {
    pub resolve: ResolveStats,
    pub share: ShareStats,
    /// Evaluator counters; `None` until the program has been run
    /// (populated by [`run_checked`]).
    pub eval: Option<EvalStats>,
    /// The whole-pipeline metric catalog; enabled (and populated) iff
    /// [`Options::collect_metrics`] was set, otherwise off and
    /// allocation-free.
    pub metrics: MetricsRegistry,
}

impl PipelineStats {
    /// Write the counters as fields of the writer's current object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field_u64("goals", self.resolve.goals);
        w.field_u64("table_hits", self.resolve.table_hits);
        w.field_u64("table_misses", self.resolve.table_misses);
        w.field_f64("hit_rate", self.resolve.hit_rate(), 4);
        w.field_f64("hit_rate_pct", self.resolve.hit_rate() * 100.0, 1);
        w.field_u64("dicts_constructed", self.resolve.dicts_constructed);
        w.field_u64("resolve_steps", self.resolve.steps);
        w.field_u64("dict_sites_before_sharing", self.share.constructions_before);
        w.field_u64("dict_sites_after_sharing", self.share.constructions_after);
        w.field_u64("dicts_shared", self.share.occurrences_shared);
        w.field_u64("share_bindings", self.share.hoisted_bindings);
        match &self.eval {
            Some(e) => {
                w.begin_object_field("eval");
                w.field_u64("fuel_used", e.fuel_used);
                w.field_u64("peak_allocs", e.peak_allocs);
                w.field_u64("thunks_created", e.thunks_created);
                w.field_u64("forces", e.forces);
                w.end_object();
            }
            None => w.field_null("eval"),
        }
        if self.metrics.is_enabled() {
            w.begin_object_field("metrics");
            self.metrics.write_json(w);
            w.end_object();
        } else {
            w.field_null("metrics");
        }
    }

    /// One JSON object (the build is offline — no serde; serialization
    /// goes through the shared [`tc_trace::JsonWriter`]).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_json(&mut w);
        w.end_object();
        w.finish()
    }
}

/// The result of compiling (but not running) a program: the combined
/// source, the elaborated core, and every diagnostic from every stage.
pub struct Check {
    /// Exactly the text that was compiled (prelude + user program when
    /// the prelude is enabled). All diagnostic spans index into this.
    pub full_source: String,
    /// Byte offset where the user program starts in `full_source`.
    pub user_offset: usize,
    /// Elaborated core program and the inferred type schemes.
    pub elab: Elaboration,
    /// Accumulated diagnostics from lexing through dictionary
    /// conversion.
    pub diags: Diagnostics,
    /// Resolution and sharing counters for this run.
    pub stats: PipelineStats,
    /// Per-stage spans and counters; disabled (and allocation-free)
    /// unless [`Options::trace_timing`] was set.
    pub telemetry: Telemetry,
    /// One wall-clock span per top-level resolution goal, on the same
    /// epoch as the telemetry stage spans; empty unless
    /// [`Options::trace_timing`] was set.
    pub goal_spans: Vec<SpanEvent>,
}

impl Check {
    /// Did the program compile without errors? (Warnings are fine.)
    pub fn ok(&self) -> bool {
        !self.diags.has_errors()
    }

    /// Render every diagnostic against the compiled source, in source
    /// order (errors before warnings at the same location) with a
    /// severity summary line.
    pub fn render_diagnostics(&self) -> String {
        self.diags.render_all_sorted(&self.full_source)
    }

    /// The inferred type scheme of a top-level binding, rendered.
    pub fn scheme(&self, name: &str) -> Option<String> {
        self.elab.schemes.get(name).map(|s| s.to_string())
    }

    /// Render the resolution explain-trace as an indented goal tree.
    /// `None` unless [`Options::trace_resolution`] was set.
    pub fn render_explain(&self) -> Option<String> {
        self.elab.goal_log.as_ref().and_then(GoalLog::render)
    }

    /// Serialize the run as a Chrome trace-event JSON document —
    /// loadable in Perfetto / `chrome://tracing` — with one complete
    /// (`"ph":"X"`) event per pipeline stage span and one per
    /// top-level resolution goal. Meaningful when
    /// [`Options::trace_timing`] was set; always a valid document,
    /// possibly with an empty event list.
    pub fn chrome_trace_json(&self) -> String {
        tc_trace::chrome_trace_json(&self.telemetry, &self.goal_spans)
    }

    /// Pretty-print the whole converted core program (for debugging
    /// and for tests that inspect the translation).
    pub fn pretty_core(&self) -> String {
        let mut out = String::new();
        for (name, body) in &self.elab.core.binds {
            out.push_str(name);
            out.push_str(" = ");
            out.push_str(&tc_coreir::pretty(body));
            out.push_str(";\n");
        }
        out
    }
}

/// What happened when the program was run.
#[derive(Debug)]
pub enum Outcome {
    /// `main` evaluated to a value, rendered as text.
    Value(String),
    /// The program did not compile; see [`Check::diags`].
    CompileErrors,
    /// The program compiled but defines no `main`.
    NoMain,
    /// `main` evaluation failed with a structured error (including
    /// budget exhaustion — never a panic, never a hang).
    Eval(EvalError),
}

/// A full pipeline run: the compilation record, the outcome, and —
/// when [`Options::profile_eval`] was set — the evaluator profile.
pub struct RunResult {
    pub check: Check,
    pub outcome: Outcome,
    /// Per-binding evaluator profile; `None` unless profiling was on
    /// and the program was actually evaluated.
    pub profile: Option<EvalProfile>,
}

impl RunResult {
    /// Serialize the whole run — stage spans, counters, pipeline
    /// stats, profile, outcome — as one JSON object.
    pub fn trace_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.check.telemetry.write_json(&mut w);
        w.begin_object_field("stats");
        self.check.stats.write_json(&mut w);
        w.end_object();
        match &self.profile {
            Some(p) => {
                w.begin_array_field("profile");
                for b in &p.bindings {
                    w.begin_object();
                    w.field_str("binding", &b.name);
                    w.field_u64("forces", b.forces);
                    w.field_u64("fuel", b.fuel);
                    w.field_u64("thunks", b.thunks);
                    w.end_object();
                }
                w.end_array();
            }
            None => w.field_null("profile"),
        }
        w.begin_object_field("outcome");
        let (kind, detail) = match &self.outcome {
            Outcome::Value(v) => ("value", Some(v.clone())),
            Outcome::CompileErrors => ("compile-errors", None),
            Outcome::NoMain => ("no-main", None),
            Outcome::Eval(e) => ("eval-error", Some(e.to_string())),
        };
        w.field_str("kind", kind);
        match &detail {
            Some(d) => w.field_str("detail", d),
            None => w.field_null("detail"),
        }
        // Structured error shape for machine consumers (the serve
        // protocol relays these): a stable kebab-case code plus, for
        // budget errors, where the budget died and what was left.
        if let Outcome::Eval(e) = &self.outcome {
            w.field_str("code", e.code());
            match e.budget() {
                Some(b) => b.write_json_field(&mut w),
                None => w.field_null("budget"),
            }
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// The stage runner (see the module docs), so that [`compile`] and
/// [`run_checked`] are plain lists of stage bodies. Each body gets the
/// run's diagnostics and the fault outcome (`Budget` asks it to run
/// with an exhausted budget); the runner counts the diagnostics it
/// adds for the span and the `stage-end` event.
struct Stages<'a> {
    opts: &'a Options,
    telemetry: &'a mut Telemetry,
    diags: &'a mut Diagnostics,
    /// Latched by the first tripped deadline check, so later
    /// boundaries skip their stages silently instead of piling on
    /// duplicate `E0430`s.
    cancelled: bool,
}

/// How a stage reports itself.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Report {
    /// Stage events, the fault site, and a span when the stage runs.
    Full,
    /// `Full`, plus an empty span when the stage is skipped, so the
    /// span sequence is the same across configs (share).
    AlwaysTimed,
    /// A span only: an extra pass timed under an earlier stage, with
    /// no stage events and no fault site (the law harness, timed under
    /// `coherence`).
    SpanOnly,
}

impl<'a> Stages<'a> {
    fn new(opts: &'a Options, telemetry: &'a mut Telemetry, diags: &'a mut Diagnostics) -> Self {
        Stages {
            opts,
            telemetry,
            diags,
            cancelled: false,
        }
    }

    /// Run a stage if `on` and the deadline has not tripped; a skipped
    /// stage leaves a default (empty) result.
    fn checked<T: Default>(
        &mut self,
        stage: TraceStage,
        on: bool,
        report: Report,
        body: impl FnOnce(&mut Diagnostics, FaultOutcome) -> T,
    ) -> T {
        if on && !self.tripped(stage) {
            return self.run(stage, report, body);
        }
        if report == Report::AlwaysTimed {
            let timer = self.telemetry.start();
            self.telemetry.record(stage, timer, 0);
        }
        T::default()
    }

    /// Run a stage unconditionally, with no deadline check in front.
    fn run<T>(
        &mut self,
        stage: TraceStage,
        report: Report,
        body: impl FnOnce(&mut Diagnostics, FaultOutcome) -> T,
    ) -> T {
        let events = &self.opts.events;
        let timer = self.telemetry.start();
        let seen = self.diags.len();
        let fault = if report == Report::SpanOnly {
            FaultOutcome::None
        } else {
            events.stage_start(stage);
            self.opts.faults.fire_traced(stage, events)
        };
        let out = body(self.diags, fault);
        let produced = (self.diags.len() - seen) as u64;
        self.telemetry.record(stage, timer, produced);
        if report != Report::SpanOnly {
            events.stage_end(stage, produced);
        }
        out
    }

    /// The deadline check in front of `next`. The first tripped check
    /// emits one `E0430`, records a `cancelled` event naming `next`,
    /// and latches.
    fn tripped(&mut self, next: TraceStage) -> bool {
        if !self.cancelled && self.opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            self.cancelled = true;
            self.opts.events.cancelled(next);
            self.diags.error(
                DiagStage::Driver,
                CANCELLED_CODE,
                "compilation deadline exceeded; remaining stages skipped",
                Span::DUMMY,
            );
        }
        self.cancelled
    }

    /// The final boundary: a deadline that expired during the last
    /// stage still surfaces as `E0430`, attributed to `eval`.
    fn finish(mut self) {
        self.tripped(TraceStage::Eval);
    }
}

/// Shared pipeline body behind [`check_source`] and [`lint_source`].
/// Every deadline-checked stage doubles as a cancellation point: a
/// deadline that expires mid-pipeline stops the run at the next
/// boundary, and the skipped stages leave default (empty) results.
/// Fault sites sit at stage entry, so an injected panic unwinds out of
/// this function exactly where a real stage bug would.
fn compile(src: &str, opts: &Options, lint: bool) -> Check {
    let mut telemetry = if opts.trace_timing {
        Telemetry::new()
    } else {
        Telemetry::off()
    };
    let mut metrics = if opts.collect_metrics {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::off()
    };
    let (full_source, user_offset) = if opts.use_prelude {
        (format!("{PRELUDE}\n{src}"), PRELUDE.len() + 1)
    } else {
        (src.to_string(), 0)
    };
    // Goal spans share the telemetry epoch so they nest inside the
    // `elaborate` stage span; with timing off there are none.
    let goal_span_epoch = telemetry.epoch();
    let mut diags = Diagnostics::new();
    let mut gen = VarGen::new();
    let mut stages = Stages::new(opts, &mut telemetry, &mut diags);

    let toks = stages.run(TraceStage::Lex, Report::Full, |d, _| {
        let (toks, ld) = tc_syntax::lex(&full_source);
        d.extend(ld);
        toks
    });

    let (prog, pstats) = stages.run(TraceStage::Parse, Report::Full, |d, _| {
        let (prog, pd, pstats) = tc_syntax::parse_program_with(&toks, opts.parse.clone());
        d.extend(pd);
        (prog, pstats)
    });
    metrics.add(CounterId::ParseRecoveries, pstats.recoveries);

    let cenv = stages.checked(TraceStage::ClassEnv, true, Report::Full, |d, _| {
        let (cenv, cd) = build_class_env(&prog, &mut gen);
        d.extend(cd);
        cenv
    });

    // Coherence runs between the class env and elaboration: overlap
    // and cycle findings only need instance heads, so they stay
    // available even when a tripped deadline skips elaboration.
    stages.checked(TraceStage::Coherence, true, Report::Full, |d, _| {
        d.extend(tc_coherence::check_coherence(
            &CoherenceInput {
                cenv: &cenv,
                user_start: user_offset,
            },
            &opts.coherence_levels,
            &mut metrics,
        ));
    });

    let mut elab = stages.checked(TraceStage::Elaborate, true, Report::Full, |d, fault| {
        let budget = if fault == FaultOutcome::Budget {
            // Injected budget exhaustion: every nontrivial
            // resolution goal now fails structurally (E0421),
            // never hangs.
            ReduceBudget {
                max_depth: 1,
                max_steps: 1,
            }
        } else {
            opts.reduce
        };
        let (elab, ed) = elaborate_with(
            &prog,
            &cenv,
            &mut gen,
            ElabOptions {
                budget,
                memoize: opts.memoize_resolution,
                trace_resolution: opts.trace_resolution,
                collect_metrics: opts.collect_metrics,
                goal_span_epoch,
                cancel: opts.cancel.clone(),
                cache_capacity: opts.cache_capacity,
                events: opts.events.clone(),
            },
        );
        d.extend(ed);
        elab
    });

    // Dictionary sharing runs between conversion and linting: `L0007`
    // must see the shared program, or it would report constructions
    // the pass has already hoisted.
    let share = stages.checked(
        TraceStage::Share,
        opts.share_dictionaries,
        Report::AlwaysTimed,
        |_, _| tc_coreir::share_program_metered(&mut elab.core, &mut metrics),
    );

    stages.checked(TraceStage::Lint, lint, Report::Full, |d, _| {
        d.extend(tc_lint::run_lints(
            &LintInput {
                program: &prog,
                cenv: &cenv,
                core: &elab.core,
                user_start: user_offset,
            },
            &opts.lint_levels,
        ));
    });

    // The law harness runs last among the static passes: it needs the
    // elaboration's warm resolve cache (so law goals resolve in O(1))
    // and only makes sense for programs that compile — law verdicts
    // on an erroneous program would blame dictionaries that were never
    // built. Its findings land under the same `Coherence` stage as the
    // structural checks.
    let laws = opts.check_laws && !stages.diags.has_errors();
    stages.checked(TraceStage::Coherence, laws, Report::SpanOnly, |d, _| {
        d.extend(tc_coherence::check_laws(
            &LawInput {
                program: &prog,
                cenv: &cenv,
                user_start: user_offset,
            },
            &opts.coherence_levels,
            &LawOptions {
                eval_budget: opts.law_budget,
                reduce: opts.reduce,
                cancel: opts.cancel.clone(),
                cache_capacity: opts.cache_capacity,
            },
            elab.cache.take(),
            &mut gen,
            &mut metrics,
        ));
    });
    stages.finish();

    if telemetry.is_enabled() {
        telemetry.counter("core_bindings", elab.core.binds.len() as u64);
        telemetry.counter("core_nodes", elab.core.node_count());
        telemetry.counter("diagnostics", diags.len() as u64);
    }

    // Fold the elaboration's resolver/interner metrics into the
    // pipeline registry (counters add; gauges and histograms come only
    // from the elaboration side, so the merge is lossless).
    metrics.merge(&elab.metrics);
    let goal_spans = elab
        .goal_log
        .as_mut()
        .map(|l| std::mem::take(&mut l.spans))
        .unwrap_or_default();

    let stats = PipelineStats {
        resolve: elab.stats,
        share,
        eval: None,
        metrics,
    };
    Check {
        full_source,
        user_offset,
        elab,
        diags,
        stats,
        telemetry,
        goal_spans,
    }
}

/// Compile source text through elaboration and dictionary conversion.
/// Never panics; all failures are reported in [`Check::diags`].
pub fn check_source(src: &str, opts: &Options) -> Check {
    compile(src, opts, false)
}

/// Like [`check_source`], but additionally run the `tc-lint`
/// static-analysis pass over the surface AST, the class environment,
/// and the converted core, at the levels in [`Options::lint_levels`].
/// Warn-level findings never make [`Check::ok`] fail; deny-level
/// findings do.
pub fn lint_source(src: &str, opts: &Options) -> Check {
    compile(src, opts, true)
}

/// Run an already-compiled program: if it is error-free and has a
/// `main`, evaluate it under the evaluator budget. Evaluation is
/// timed into the check's telemetry, and its resource counters land
/// in [`PipelineStats::eval`].
pub fn run_checked(mut check: Check, opts: &Options) -> RunResult {
    let entry = match (check.ok(), check.elab.core.main.clone()) {
        (true, Some(entry)) => entry,
        (ok, _) => {
            let outcome = if ok {
                Outcome::NoMain
            } else {
                Outcome::CompileErrors
            };
            return RunResult {
                check,
                outcome,
                profile: None,
            };
        }
    };
    // Metrics want the per-binding fuel histogram, which only the
    // profiler collects — profile internally when metrics are on, but
    // surface the profile to the caller only when they asked for it.
    let metrics_on = check.stats.metrics.is_enabled();
    // No deadline check in front of eval: the evaluator polls the
    // token itself.
    let mut stages = Stages::new(opts, &mut check.telemetry, &mut check.diags);
    let run = stages.run(TraceStage::Eval, Report::Full, |_, fault| {
        let budget = if fault == FaultOutcome::Budget {
            // Injected exhaustion: the very first tick trips, producing
            // a structured fuel error with a zero-remaining snapshot.
            Budget {
                fuel: 1,
                max_depth: 1,
                max_allocs: 1,
            }
        } else {
            opts.budget
        };
        tc_eval::run_entry_with(
            &check.elab.core,
            &entry,
            &EvalOptions {
                budget,
                profile: opts.profile_eval || metrics_on,
                cancel: opts.cancel.clone(),
                events: opts.events.clone(),
            },
        )
    });
    check.stats.eval = Some(run.stats);
    if metrics_on {
        let m = &mut check.stats.metrics;
        m.add(CounterId::EvalThunksCreated, run.stats.thunks_created);
        m.add(CounterId::EvalForces, run.stats.forces);
        m.add(CounterId::EvalFuelUsed, run.stats.fuel_used);
        if let Some(p) = &run.profile {
            for b in &p.bindings {
                m.observe(HistogramId::EvalBindingFuel, b.fuel);
            }
        }
    }
    let outcome = match run.result {
        Ok(v) => Outcome::Value(v),
        Err(e) => Outcome::Eval(e),
    };
    RunResult {
        check,
        outcome,
        profile: if opts.profile_eval { run.profile } else { None },
    }
}

/// Compile and, if the program is error-free and has a `main`, run it
/// under the evaluator budget.
pub fn run_source(src: &str, opts: &Options) -> RunResult {
    run_checked(check_source(src, opts), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> RunResult {
        run_source(src, &Options::default())
    }

    fn value(src: &str) -> String {
        let r = run(src);
        match r.outcome {
            Outcome::Value(v) => v,
            other => panic!(
                "expected a value, got {other:?}\n{}",
                r.check.render_diagnostics()
            ),
        }
    }

    #[test]
    fn prelude_is_clean() {
        let c = check_source("", &Options::default());
        assert!(c.ok(), "{}", c.render_diagnostics());
        assert!(c.elab.core.verify_converted().is_empty());
    }

    #[test]
    fn member_from_the_paper() {
        let v = value("main = member 3 (enumFromTo 1 5);");
        assert_eq!(v, "True");
        let c = check_source("", &Options::default());
        assert_eq!(
            c.scheme("member").as_deref(),
            Some("Eq a => a -> List a -> Bool")
        );
    }

    #[test]
    fn num_methods_dispatch_through_dictionaries() {
        assert_eq!(value("main = add (mul 6 7) (neg 2);"), "40");
    }

    #[test]
    fn equality_on_lists_uses_instance_context() {
        assert_eq!(
            value("main = eq (cons 1 (cons 2 nil)) (enumFromTo 1 2);"),
            "True"
        );
        assert_eq!(value("main = neq nil (cons False nil);"), "True");
    }

    #[test]
    fn list_pipeline_renders() {
        assert_eq!(
            value("main = map (\\x -> mul x x) (enumFromTo 1 4);"),
            "[1, 4, 9, 16]"
        );
    }

    #[test]
    fn laziness_take_from_infinite_list() {
        let v = value("from n = cons n (from (add n 1));\nmain = take 3 (from 10);");
        assert_eq!(v, "[10, 11, 12]");
    }

    #[test]
    fn compile_errors_stop_evaluation() {
        let r = run("main = eq 1 True;");
        assert!(matches!(r.outcome, Outcome::CompileErrors));
        assert!(r.check.diags.has_errors());
        // Rendering must point into the combined source without panicking.
        let rendered = r.check.render_diagnostics();
        assert!(!rendered.is_empty());
    }

    #[test]
    fn missing_main_reported() {
        let r = run("x = 1;");
        assert!(matches!(r.outcome, Outcome::NoMain));
    }

    #[test]
    fn fuel_exhaustion_is_structured() {
        // Rendering an infinite list forces cell after cell at shallow
        // depth, so the fuel budget is what trips.
        let opts = Options::default().with_budget(Budget::small());
        let r = run_source("from n = cons n (from (add n 1));\nmain = from 0;", &opts);
        assert!(
            matches!(r.outcome, Outcome::Eval(EvalError::FuelExhausted(_))),
            "{:?}",
            r.outcome
        );
        // The budget payload shows an empty tank (fuel died while
        // rendering, outside any named global, so no binding here)
        // and the run trace relays the structured shape.
        let Outcome::Eval(e) = &r.outcome else {
            unreachable!()
        };
        let b = e.budget().expect("fuel errors carry a snapshot");
        assert_eq!(b.fuel_left, 0);
        let json = r.trace_json();
        assert!(json.contains("\"code\": \"fuel-exhausted\""), "{json}");
        assert!(json.contains("\"fuel_left\": 0"), "{json}");
    }

    #[test]
    fn nonterminating_loop_is_budgeted() {
        // Deep non-tail recursion trips whichever budget fills first —
        // either way the outcome is structured, not a hang.
        let opts = Options::default().with_budget(Budget::small());
        let r = run_source("loop x = loop x;\nmain = loop 1;", &opts);
        assert!(
            matches!(
                r.outcome,
                Outcome::Eval(EvalError::FuelExhausted(_) | EvalError::DepthExceeded(_))
            ),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn user_code_diagnostics_point_after_prelude() {
        let r = run("main = undefinedName;");
        assert!(matches!(r.outcome, Outcome::CompileErrors));
        assert!(r
            .check
            .diags
            .iter()
            .any(|d| d.code == "E0405" && (d.span.start as usize) >= r.check.user_offset));
    }

    #[test]
    fn bare_options_skip_prelude() {
        let c = check_source("main = eq 1 1;", &Options::bare());
        // No prelude => no Eq class => unbound `eq`.
        assert!(c.diags.iter().any(|d| d.code == "E0405"));
    }

    #[test]
    fn core_dump_mentions_dictionaries() {
        let c = check_source("same x y = eq x y;", &Options::default());
        assert!(c.ok(), "{}", c.render_diagnostics());
        let core = c.pretty_core();
        assert!(core.contains("$dict"), "{core}");
    }

    #[test]
    fn stats_are_populated_and_memo_hits() {
        // The prelude alone resolves plenty of goals; with the memo
        // table on, repeated ground goals hit.
        let c = check_source(
            "a = eq (cons 1 nil) nil;\nb = eq (cons 2 nil) nil;",
            &Options::default(),
        );
        assert!(c.ok(), "{}", c.render_diagnostics());
        assert!(c.stats.resolve.goals > 0);
        assert!(c.stats.resolve.table_hits > 0, "{:?}", c.stats.resolve);
        let off = check_source(
            "a = eq (cons 1 nil) nil;\nb = eq (cons 2 nil) nil;",
            &Options::unoptimized(),
        );
        assert_eq!(off.stats.resolve.table_hits, 0, "{:?}", off.stats.resolve);
        assert!(
            off.stats.resolve.dicts_constructed > c.stats.resolve.dicts_constructed,
            "memoization must reduce fresh constructions: {:?} vs {:?}",
            off.stats.resolve,
            c.stats.resolve
        );
        // JSON rendering stays well-formed enough to eyeball.
        let json = c.stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"table_hits\""), "{json}");
    }

    #[test]
    fn sharing_hoists_repeated_dictionaries_in_core() {
        let src = "p = eq (cons 1 nil) (cons 2 nil);\n\
                   q = and (eq (cons 1 nil) nil) (eq (cons 3 nil) nil);";
        let shared = check_source(src, &Options::default());
        assert!(shared.ok(), "{}", shared.render_diagnostics());
        assert!(
            shared.stats.share.hoisted_bindings > 0,
            "{:?}",
            shared.stats.share
        );
        assert!(shared.pretty_core().contains("$sh0"), "no shared binding");
        let unshared = check_source(src, &Options::unoptimized());
        assert!(!unshared.pretty_core().contains("$sh0"));
        assert!(
            shared.stats.share.constructions_after < unshared.stats.share.constructions_before
                || unshared.stats.share.constructions_before == 0,
        );
    }

    #[test]
    fn metrics_off_by_default_and_allocation_free() {
        let r = run("main = eq (cons 1 nil) (cons 1 nil);");
        assert!(r.check.stats.metrics.allocates_nothing());
        assert!(r.check.goal_spans.is_empty());
        // The stats JSON still carries an (explicitly null) metrics field.
        let json = r.check.stats.to_json();
        assert!(json.contains("\"metrics\": null"), "{json}");
    }

    #[test]
    fn metrics_collect_across_the_whole_pipeline() {
        let opts = Options {
            collect_metrics: true,
            ..Options::default()
        };
        let src = "p = eq (cons 1 nil) (cons 2 nil);\n\
                   q = and (eq (cons 1 nil) nil) (eq (cons 3 nil) nil);\n\
                   main = q;";
        let r = run_source(src, &opts);
        assert!(matches!(r.outcome, Outcome::Value(_)), "{:?}", r.outcome);
        let stats = &r.check.stats;
        let m = &stats.metrics;
        // Resolver metrics agree with the existing counters.
        assert_eq!(m.counter(CounterId::ResolveGoals), stats.resolve.goals);
        assert_eq!(
            m.counter(CounterId::ResolveCacheHits),
            stats.resolve.table_hits
        );
        // Interner, sharing, and evaluator all contributed.
        assert!(m.counter(CounterId::InternFresh) > 0);
        assert_eq!(
            m.counter(CounterId::ShareDictsHoisted),
            stats.share.hoisted_bindings
        );
        let Some(eval) = stats.eval.as_ref() else {
            panic!("main was evaluated");
        };
        assert_eq!(m.counter(CounterId::EvalForces), eval.forces);
        assert_eq!(m.counter(CounterId::EvalFuelUsed), eval.fuel_used);
        // The goal-depth histogram saw every goal.
        let Some(h) = m.histogram(HistogramId::ResolveGoalDepth) else {
            panic!("metrics are on");
        };
        assert_eq!(h.count, stats.resolve.goals);
        // Per-binding fuel was observed even though no profile is
        // surfaced (profiling ran internally for the histogram).
        assert!(r.profile.is_none());
        let Some(fuel) = m.histogram(HistogramId::EvalBindingFuel) else {
            panic!("metrics are on");
        };
        assert!(fuel.count > 0);
        // And the JSON form is well-formed with a metrics object.
        let json = stats.to_json();
        tc_trace::json::check(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"resolve.goals\""), "{json}");
    }

    #[test]
    fn metrics_do_not_perturb_results_or_counters() {
        let src = "main = member 3 (enumFromTo 1 5);";
        let plain = run_source(src, &Options::default());
        let metered = run_source(
            src,
            &Options {
                collect_metrics: true,
                trace_timing: true,
                ..Options::default()
            },
        );
        let (Outcome::Value(a), Outcome::Value(b)) = (&plain.outcome, &metered.outcome) else {
            panic!("{:?} / {:?}", plain.outcome, metered.outcome);
        };
        assert_eq!(a, b);
        assert_eq!(plain.check.stats.resolve, metered.check.stats.resolve);
        assert_eq!(plain.check.stats.share, metered.check.stats.share);
        assert_eq!(plain.check.stats.eval, metered.check.stats.eval);
    }

    #[test]
    fn goal_spans_cover_top_level_goals() {
        let opts = Options {
            trace_timing: true,
            ..Options::default()
        };
        let c = check_source("main = eq (cons 1 nil) (cons 2 nil);", &opts);
        assert!(c.ok(), "{}", c.render_diagnostics());
        assert!(!c.goal_spans.is_empty());
        assert!(c.goal_spans.iter().all(|s| s.cat == "resolve"));
        let trace = c.chrome_trace_json();
        tc_trace::json::check(&trace).unwrap_or_else(|e| panic!("{e}\n{trace}"));
        assert!(trace.contains("\"ph\": \"X\""), "{trace}");
    }

    #[test]
    fn pre_expired_deadline_stops_the_pipeline_structurally() {
        let token = tc_trace::CancelToken::new();
        token.cancel();
        let opts = Options {
            cancel: Some(token),
            ..Options::default()
        };
        let r = run_source("main = member 3 (enumFromTo 1 5);", &opts);
        assert!(
            matches!(r.outcome, Outcome::CompileErrors),
            "{:?}",
            r.outcome
        );
        assert!(
            r.check.diags.iter().any(|d| d.code == CANCELLED_CODE),
            "{}",
            r.check.render_diagnostics()
        );
        // Exactly one deadline diagnostic — the latch holds across
        // every later stage boundary.
        assert_eq!(
            r.check
                .diags
                .iter()
                .filter(|d| d.code == CANCELLED_CODE)
                .count(),
            1
        );
    }

    #[test]
    fn deadline_interrupts_evaluation_with_a_structured_error() {
        // Compilation beats the deadline; the infinite render then
        // trips the evaluator's cancellation poll (fuel is ample, so
        // only the deadline can stop it).
        let token = tc_trace::CancelToken::with_deadline(std::time::Duration::from_millis(30));
        let opts = Options {
            cancel: Some(token),
            ..Options::default()
        }
        .with_budget(Budget {
            fuel: u64::MAX / 2,
            max_depth: 200,
            max_allocs: u64::MAX / 2,
        });
        let r = run_source("ones = cons 1 ones;\nmain = ones;", &opts);
        match &r.outcome {
            Outcome::Eval(e @ EvalError::Cancelled(_)) => {
                assert_eq!(e.code(), "cancelled");
            }
            other => panic!("expected a cancelled eval error, got {other:?}"),
        }
    }

    #[test]
    fn injected_panics_unwind_and_are_isolated() {
        let plan = FaultPlan::parse("elaborate=panic").unwrap();
        let opts = Options {
            faults: plan.for_request(0),
            ..Options::default()
        };
        let err = match resilience::isolated(|| run_source("main = 1;", &opts)) {
            Err(e) => e,
            Ok(_) => panic!("the injected panic should have unwound"),
        };
        assert!(err.starts_with("tc-fault:"), "{err}");
        assert!(err.contains("elaborate"), "{err}");
    }

    #[test]
    fn injected_budget_faults_produce_structured_exhaustion() {
        // At the elaborate site: resolution budget dies => E0421.
        let plan = FaultPlan::parse("elaborate=budget").unwrap();
        let opts = Options {
            faults: plan.for_request(0),
            ..Options::default()
        };
        let c = check_source("main = eq (cons 1 nil) nil;", &opts);
        assert!(!c.ok());
        assert!(
            c.diags.iter().any(|d| d.code == "E0421"),
            "{}",
            c.render_diagnostics()
        );
        // At the eval site: the first tick trips fuel.
        let plan = FaultPlan::parse("eval=budget").unwrap();
        let opts = Options {
            faults: plan.for_request(0),
            ..Options::default()
        };
        let r = run_source("main = member 3 (enumFromTo 1 5);", &opts);
        assert!(
            matches!(
                r.outcome,
                Outcome::Eval(EvalError::FuelExhausted(_) | EvalError::DepthExceeded(_))
            ),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn optimizations_do_not_change_results() {
        let src = "main = and (eq (cons 1 (cons 2 nil)) (enumFromTo 1 2))\n\
                   (eq (cons 1 (cons 2 nil)) (enumFromTo 1 2));";
        let on = run_source(src, &Options::default());
        let off = run_source(src, &Options::unoptimized());
        let (Outcome::Value(a), Outcome::Value(b)) = (&on.outcome, &off.outcome) else {
            panic!("{:?} / {:?}", on.outcome, off.outcome);
        };
        assert_eq!(a, b);
        assert_eq!(a, "True");
    }
}
