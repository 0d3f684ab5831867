//! Pins the observable stage sequence of the driver pipeline: the
//! telemetry span list and the flight-recorder stage events, under
//! each configuration that takes a different path through the stage
//! boundaries (lint on, laws on, sharing off, injected faults, a
//! deadline that expired before the run began).
//!
//! Every expectation is a literal so that a refactor of the pipeline
//! plumbing cannot silently reorder, drop, or duplicate a stage event.

use typeclasses::driver::resilience;
use typeclasses::trace::{EventKind, EventLog, Stage};
use typeclasses::{
    check_source, lint_source, run_source, CancelToken, FaultPlan, Options, Telemetry,
};

const MEMBER_MAIN: &str = "main = member 3 (enumFromTo 1 5);";

/// Plenty of room for every goal and checkpoint event of a prelude
/// run, so the ring never wraps and the stage events all survive.
const RING: usize = 1 << 16;

/// Traced options writing into `log` under trace id 1.
fn traced(log: &EventLog) -> Options {
    Options {
        trace_timing: true,
        events: log.scope(1),
        ..Options::default()
    }
}

/// The telemetry spans as `stage:diags`.
fn spans(t: &Telemetry) -> Vec<String> {
    t.spans()
        .iter()
        .map(|s| format!("{}:{}", s.stage.name(), s.diags))
        .collect()
}

/// The stage-related flight-recorder events as `kind stage arg1`
/// (resolver goals, evaluator checkpoints and cache evictions are
/// left out: they belong to the stage bodies, not their boundaries).
fn stage_events(log: &EventLog) -> Vec<String> {
    log.extract(1)
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::StageStart
                    | EventKind::StageEnd
                    | EventKind::Cancelled
                    | EventKind::FaultInjected
            )
        })
        .map(|e| {
            format!(
                "{} {} {}",
                e.kind.name(),
                Stage::ALL[e.arg0 as usize].name(),
                e.arg1
            )
        })
        .collect()
}

/// The stage events every compiling run starts with.
const FRONT: [&str; 8] = [
    "stage-start lex 0",
    "stage-end lex 0",
    "stage-start parse 0",
    "stage-end parse 0",
    "stage-start class-env 0",
    "stage-end class-env 0",
    "stage-start coherence 0",
    "stage-end coherence 0",
];

/// `FRONT` followed by `rest`.
fn front(rest: &[&str]) -> Vec<String> {
    FRONT.iter().chain(rest).map(|s| s.to_string()).collect()
}

#[test]
fn run_sequence() {
    let log = EventLog::with_capacity(RING);
    let r = run_source(MEMBER_MAIN, &traced(&log));
    assert_eq!(
        spans(&r.check.telemetry),
        [
            "lex:0",
            "parse:0",
            "class-env:0",
            "coherence:0",
            "elaborate:0",
            "share:0",
            "eval:0"
        ]
    );
    assert_eq!(
        stage_events(&log),
        front(&[
            "stage-start elaborate 0",
            "stage-end elaborate 0",
            "stage-start share 0",
            "stage-end share 0",
            "stage-start eval 0",
            "stage-end eval 0"
        ])
    );
}

#[test]
fn lint_sequence() {
    let log = EventLog::with_capacity(RING);
    let c = lint_source("f = \\x -> 1;\nmain = f 2;", &traced(&log));
    assert_eq!(
        spans(&c.telemetry),
        [
            "lex:0",
            "parse:0",
            "class-env:0",
            "coherence:0",
            "elaborate:0",
            "share:0",
            "lint:1"
        ]
    );
    assert_eq!(
        stage_events(&log),
        front(&[
            "stage-start elaborate 0",
            "stage-end elaborate 0",
            "stage-start share 0",
            "stage-end share 0",
            "stage-start lint 0",
            "stage-end lint 1"
        ])
    );
}

#[test]
fn check_laws_sequence() {
    let log = EventLog::with_capacity(RING);
    // A lawless `Eq Int` (no prelude): the law harness reports its
    // L0011 findings under a second `coherence` span and emits no
    // stage events of its own.
    let src = "class Eq a where { eq :: a -> a -> Bool; };\n\
               instance Eq Int where { eq = primLeInt; };\n\
               main = eq 1 2;";
    let opts = Options {
        use_prelude: false,
        check_laws: true,
        ..traced(&log)
    };
    let r = run_source(src, &opts);
    assert_eq!(
        spans(&r.check.telemetry),
        [
            "lex:0",
            "parse:0",
            "class-env:0",
            "coherence:0",
            "elaborate:0",
            "share:0",
            "coherence:3",
            "eval:0"
        ]
    );
    assert_eq!(
        stage_events(&log),
        front(&[
            "stage-start elaborate 0",
            "stage-end elaborate 0",
            "stage-start share 0",
            "stage-end share 0",
            "stage-start eval 0",
            "stage-end eval 0"
        ])
    );
}

#[test]
fn sharing_off_sequence() {
    let log = EventLog::with_capacity(RING);
    let opts = Options {
        share_dictionaries: false,
        ..traced(&log)
    };
    let r = run_source(MEMBER_MAIN, &opts);
    assert_eq!(
        spans(&r.check.telemetry),
        [
            "lex:0",
            "parse:0",
            "class-env:0",
            "coherence:0",
            "elaborate:0",
            "share:0",
            "eval:0"
        ]
    );
    assert_eq!(
        stage_events(&log),
        front(&[
            "stage-start elaborate 0",
            "stage-end elaborate 0",
            "stage-start eval 0",
            "stage-end eval 0"
        ])
    );
}

#[test]
fn elaborate_budget_fault_sequence() {
    let log = EventLog::with_capacity(RING);
    let opts = Options {
        faults: FaultPlan::parse("elaborate=budget").unwrap().for_request(0),
        ..traced(&log)
    };
    let r = run_source(MEMBER_MAIN, &opts);
    assert_eq!(
        spans(&r.check.telemetry),
        [
            "lex:0",
            "parse:0",
            "class-env:0",
            "coherence:0",
            "elaborate:2",
            "share:0"
        ]
    );
    assert_eq!(
        stage_events(&log),
        front(&[
            "stage-start elaborate 0",
            "fault-injected elaborate 2",
            "stage-end elaborate 2",
            "stage-start share 0",
            "stage-end share 0"
        ])
    );
}

#[test]
fn eval_budget_fault_sequence() {
    let log = EventLog::with_capacity(RING);
    let opts = Options {
        faults: FaultPlan::parse("eval=budget").unwrap().for_request(0),
        ..traced(&log)
    };
    let r = run_source(MEMBER_MAIN, &opts);
    assert_eq!(
        spans(&r.check.telemetry),
        [
            "lex:0",
            "parse:0",
            "class-env:0",
            "coherence:0",
            "elaborate:0",
            "share:0",
            "eval:0"
        ]
    );
    assert_eq!(
        stage_events(&log),
        front(&[
            "stage-start elaborate 0",
            "stage-end elaborate 0",
            "stage-start share 0",
            "stage-end share 0",
            "stage-start eval 0",
            "fault-injected eval 2",
            "stage-end eval 0"
        ])
    );
}

#[test]
fn parse_panic_fault_sequence() {
    let log = EventLog::with_capacity(RING);
    let opts = Options {
        faults: FaultPlan::parse("parse=panic").unwrap().for_request(0),
        ..traced(&log)
    };
    let err = match resilience::isolated(|| check_source(MEMBER_MAIN, &opts)) {
        Err(e) => e,
        Ok(_) => panic!("the injected panic should have unwound"),
    };
    assert!(err.starts_with("tc-fault:"), "{err}");
    assert_eq!(
        stage_events(&log),
        [
            "stage-start lex 0",
            "stage-end lex 0",
            "stage-start parse 0",
            "fault-injected parse 0"
        ]
    );
}

/// The stage of every `goal` event in `log`: the stage whose
/// `stage-start` is the latest boundary before it, or `"outside"` when
/// the latest boundary is a `stage-end`.
fn goal_stages(log: &EventLog) -> Vec<String> {
    let mut open: Option<u64> = None;
    let mut out = Vec::new();
    for e in log.extract(1) {
        match e.kind {
            EventKind::StageStart => open = Some(e.arg0),
            EventKind::StageEnd => open = None,
            EventKind::Goal => out.push(open.map_or("outside".to_string(), |s| {
                Stage::ALL[s as usize].name().to_string()
            })),
            _ => {}
        }
    }
    out
}

#[test]
fn goal_events_stay_inside_elaborate() {
    // The law harness resolves its own goals after `lint`; none of
    // them may be recorded outside a stage.
    const LAWS: &str = "data T = A | B deriving (Eq, Ord);\nmain = eq A B;";
    type Run = fn(&Options) -> usize;
    let runs: [(&str, Run); 3] = [
        ("run", |o| {
            run_source(MEMBER_MAIN, o).check.stats.resolve.goals as usize
        }),
        ("lint", |o| {
            lint_source("f = \\x -> 1;\nmain = f 2;", o)
                .stats
                .resolve
                .goals as usize
        }),
        ("check_laws", |o| {
            let opts = Options {
                check_laws: true,
                ..o.clone()
            };
            run_source(LAWS, &opts).check.stats.resolve.goals as usize
        }),
    ];
    for (name, run) in runs {
        let log = EventLog::with_capacity(RING);
        let goals = run(&traced(&log));
        let stages = goal_stages(&log);
        assert!(!stages.is_empty(), "{name}: no goal events recorded");
        let stray = stages.iter().filter(|s| *s != "elaborate").count();
        assert_eq!(
            stray,
            0,
            "{name}: {stray} of {} goal events fall outside `elaborate` \
             (stats count {goals} goals): {stages:?}",
            stages.len()
        );
    }
}

#[test]
fn pre_expired_deadline_sequence() {
    let log = EventLog::with_capacity(RING);
    let token = CancelToken::new();
    token.cancel();
    let opts = Options {
        cancel: Some(token),
        ..traced(&log)
    };
    let r = run_source(MEMBER_MAIN, &opts);
    assert_eq!(spans(&r.check.telemetry), ["lex:0", "parse:0", "share:0"]);
    assert_eq!(
        stage_events(&log),
        [
            "stage-start lex 0",
            "stage-end lex 0",
            "stage-start parse 0",
            "stage-end parse 0",
            "cancelled class-env 0"
        ]
    );
}
