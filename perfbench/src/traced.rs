//! The traced run: replay generated requests in-process, calling each
//! layer's public function in the order `tc_driver::compile` does, with
//! one span around each call. Spans live in memory and are written out
//! when the run ends.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::gen::{Expect, Kind, Request};
use tc_classes::build_class_env;
use tc_coherence::{CoherenceConfig, CoherenceInput, LawInput, LawOptions};
use tc_core::{elaborate_with, ElabOptions};
use tc_driver::{lint_source, run_source, Options, Outcome, PRELUDE};
use tc_eval::EvalOptions;
use tc_lint::{LintConfig, LintInput};
use tc_syntax::ParseOptions;
use tc_trace::{CounterId, MetricsRegistry};
use tc_types::VarGen;

/// Layer spans in pipeline order. `laws` and `lint` run only for
/// checks, `eval` only for runs.
pub const LAYERS: [&str; 9] = [
    "lex",
    "parse",
    "classenv",
    "coherence",
    "elaborate",
    "share",
    "lint",
    "laws",
    "eval",
];

/// One recorded span, in ns from the start of its request's root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The observable result of one pipeline run, compared across the
/// direct layer chain, `run_source`/`lint_source`, and the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Value(String),
    Verdict { ok: bool, codes: BTreeSet<String> },
    Other(String),
}

impl Answer {
    pub fn matches(&self, e: &Expect) -> bool {
        match (self, e) {
            (Answer::Value(a), Expect::Value(b)) => a == b,
            (
                Answer::Verdict { ok, codes },
                Expect::Verdict {
                    ok: eok,
                    codes: ecodes,
                },
            ) => ok == eok && codes == ecodes,
            _ => false,
        }
    }
}

/// Counters recorded at the layer boundaries of one traced request.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub tokens: u64,
    pub goals: u64,
    pub table_hits: u64,
    pub dicts_constructed: u64,
    pub pairs_unified: u64,
    pub intern_hits: u64,
    pub intern_fresh: u64,
    pub core_nodes: u64,
    pub dicts_hoisted: u64,
    pub eval_fuel: u64,
    pub eval_forces: u64,
    pub eval_thunks: u64,
}

/// One request through the direct layer chain.
pub struct Traced {
    /// Layer durations in µs, indexed like [`LAYERS`]; `None` for
    /// layers that did not run.
    pub layer_us: [Option<f64>; 9],
    pub total_us: f64,
    pub counts: Counts,
    pub core: String,
    pub answer: Answer,
    pub spans: Vec<Span>,
}

impl Traced {
    pub fn span_sum_us(&self) -> f64 {
        self.layer_us.iter().flatten().sum()
    }
}

fn options(req: &Request) -> Options {
    let mut o = Options {
        check_laws: req.kind == Kind::CheckLaws,
        ..Options::default()
    };
    if let Some(f) = req.fuel {
        o.budget.fuel = f;
    }
    if let Some(a) = req.max_allocs {
        o.budget.max_allocs = a;
    }
    o
}

fn pretty_core(core: &tc_coreir::CoreProgram) -> String {
    let mut out = String::new();
    for (name, body) in &core.binds {
        out.push_str(name);
        out.push_str(" = ");
        out.push_str(&tc_coreir::pretty(body));
        out.push_str(";\n");
    }
    out
}

fn verdict(diags: &tc_syntax::Diagnostics) -> Answer {
    Answer::Verdict {
        ok: !diags.has_errors(),
        codes: diags.iter().map(|d| d.code.to_string()).collect(),
    }
}

/// Run `req` through the layer chain with one span per layer.
pub fn chain(req: &Request) -> Traced {
    let opts = options(req);
    let lint = req.kind != Kind::Run;
    let root = Instant::now();
    let mut spans = Vec::with_capacity(LAYERS.len() + 1);
    let mut layer_us = [None; 9];
    let mut span = |i: usize, t0: Instant| {
        let end = Instant::now();
        let start_ns = (t0 - root).as_nanos() as u64;
        let end_ns = (end - root).as_nanos() as u64;
        layer_us[i] = Some((end - t0).as_secs_f64() * 1e6);
        spans.push(Span {
            request: req.index,
            name: LAYERS[i],
            parent: "request",
            start_ns,
            end_ns,
        });
    };
    let mut counts = Counts::default();
    let full = format!("{PRELUDE}\n{}", req.program);
    let user_start = PRELUDE.len() + 1;

    let t = Instant::now();
    let (toks, mut diags) = tc_syntax::lex(&full);
    span(0, t);
    counts.tokens = toks.len() as u64;

    let t = Instant::now();
    let (prog, pd, _) = tc_syntax::parse_program_with(&toks, ParseOptions::default());
    span(1, t);
    diags.extend(pd);

    let mut gen = VarGen::new();
    let t = Instant::now();
    let (cenv, cd) = build_class_env(&prog, &mut gen);
    span(2, t);
    diags.extend(cd);

    let mut metrics = MetricsRegistry::new();
    let t = Instant::now();
    let coh = tc_coherence::check_coherence(
        &CoherenceInput {
            cenv: &cenv,
            user_start,
        },
        &CoherenceConfig::default(),
        &mut metrics,
    );
    span(3, t);
    diags.extend(coh);
    counts.pairs_unified = metrics.counter(CounterId::CoherencePairsUnified);

    let t = Instant::now();
    let (mut elab, ed) = elaborate_with(
        &prog,
        &cenv,
        &mut gen,
        ElabOptions {
            budget: opts.reduce,
            memoize: true,
            trace_resolution: false,
            collect_metrics: true,
            goal_span_epoch: None,
            cancel: None,
            cache_capacity: None,
            events: Default::default(),
        },
    );
    span(4, t);
    diags.extend(ed);
    counts.goals = elab.stats.goals;
    counts.table_hits = elab.stats.table_hits;
    counts.dicts_constructed = elab.stats.dicts_constructed;
    counts.intern_hits = elab.metrics.counter(CounterId::InternHits);
    counts.intern_fresh = elab.metrics.counter(CounterId::InternFresh);
    counts.core_nodes = elab.core.node_count();

    let t = Instant::now();
    let share = tc_coreir::share_program_metered(&mut elab.core, &mut metrics);
    span(5, t);
    counts.dicts_hoisted = share.hoisted_bindings;

    if lint {
        let t = Instant::now();
        let ld = tc_lint::run_lints(
            &LintInput {
                program: &prog,
                cenv: &cenv,
                core: &elab.core,
                user_start,
            },
            &LintConfig::default(),
        );
        span(6, t);
        diags.extend(ld);
    }
    if opts.check_laws && !diags.has_errors() {
        let t = Instant::now();
        let laws = tc_coherence::check_laws(
            &LawInput {
                program: &prog,
                cenv: &cenv,
                user_start,
            },
            &CoherenceConfig::default(),
            &LawOptions {
                eval_budget: opts.law_budget,
                reduce: opts.reduce,
                cancel: None,
                cache_capacity: None,
            },
            elab.cache.take(),
            &mut gen,
            &mut metrics,
        );
        span(7, t);
        diags.extend(laws);
    }

    // `compile` returns here: its tokens, AST and class environment are
    // freed before evaluation starts, so evaluation runs on the same
    // heap shape as under `run_source` (it allocates heavily, and a
    // different shape measurably changes its time).
    drop((toks, prog, cenv, gen));

    let answer = if lint {
        verdict(&diags)
    } else if diags.has_errors() {
        Answer::Other(format!(
            "compile errors: {:?}",
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        ))
    } else {
        match elab.core.main.clone() {
            None => Answer::Other("no main".to_string()),
            Some(entry) => {
                let t = Instant::now();
                let run = tc_eval::run_entry_with(
                    &elab.core,
                    &entry,
                    &EvalOptions {
                        budget: opts.budget,
                        ..EvalOptions::default()
                    },
                );
                span(8, t);
                counts.eval_fuel = run.stats.fuel_used;
                counts.eval_forces = run.stats.forces;
                counts.eval_thunks = run.stats.thunks_created;
                match run.result {
                    Ok(v) => Answer::Value(v),
                    Err(e) => Answer::Other(format!("eval error: {e}")),
                }
            }
        }
    };
    let total_us = root.elapsed().as_secs_f64() * 1e6;
    spans.push(Span {
        request: req.index,
        name: "request",
        parent: "",
        start_ns: 0,
        end_ns: (total_us * 1e3) as u64,
    });
    Traced {
        layer_us,
        total_us,
        counts,
        core: pretty_core(&elab.core),
        answer,
        spans,
    }
}

/// The untraced one-call path the server runs for `req`: elapsed µs,
/// pretty-printed core, and the answer.
pub fn untraced(req: &Request) -> (f64, String, Answer) {
    let opts = options(req);
    let t = Instant::now();
    if req.kind == Kind::Run {
        let r = run_source(&req.program, &opts);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let answer = match &r.outcome {
            Outcome::Value(v) => Answer::Value(v.clone()),
            other => Answer::Other(format!("{other:?}")),
        };
        (us, r.check.pretty_core(), answer)
    } else {
        let c = lint_source(&req.program, &opts);
        let us = t.elapsed().as_secs_f64() * 1e6;
        (us, c.pretty_core(), verdict(&c.diags))
    }
}

/// Time the layer chain on the prelude alone (an empty user program):
/// the fixed compile cost every request pays.
pub fn prelude_us() -> f64 {
    let req = Request {
        index: u64::MAX,
        kind: Kind::Run,
        family: "prelude",
        size: 0,
        large: false,
        program: String::new(),
        expect: Expect::Value(String::new()),
        fuel: None,
        max_allocs: None,
    };
    chain(&req).span_sum_us()
}
