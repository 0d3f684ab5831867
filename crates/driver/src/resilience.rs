//! Deterministic fault injection and panic isolation for the
//! pipeline.
//!
//! The compilation server (`tc-serve`) needs to *prove* its fault
//! isolation works: a worker that panics mid-elaboration must answer
//! with a structured error, not die. Panics on demand are the only
//! honest way to test that, so this module provides **seeded,
//! reproducible fault injection** at named pipeline sites — a
//! FailPoint-style mechanism with three properties:
//!
//! 1. **Zero cost when off.** [`Faults`] is a newtype over
//!    `Option<Arc<FaultCtx>>`; the disabled value is `None` and every
//!    [`Faults::fire`] call is a single branch.
//! 2. **Deterministic.** Whether a rule fires depends only on
//!    `(seed, request sequence number, site name, per-rule hit
//!    count)` — re-running the same batch with the same `--faults`
//!    spec reproduces the same failures, which is what makes the
//!    chaos suite assertable.
//! 3. **Explicit blast radius.** Faults only do three things: panic
//!    (exercising `catch_unwind` isolation), sleep (exercising
//!    deadlines), or report [`FaultOutcome::Budget`] so the caller
//!    can shrink a stage budget (exercising structured exhaustion).
//!
//! # Spec grammar
//!
//! ```text
//! spec  := [ "seed=" u64 ";" ] rule { ";" rule }
//! rule  := site "=" action [ "%" pct ]
//! site  := "parse" | "classenv" | "elaborate" | "share" | "lint" | "eval"
//! action:= "panic" | "budget" | "delay:" millis
//! ```
//!
//! `pct` defaults to 100 (always fire). Example:
//! `seed=42;elaborate=panic%30;eval=delay:50%10` panics in 30% of
//! elaborations and delays 10% of evaluations by 50ms, with the 30% /
//! 10% choices fixed by seed 42.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tc_trace::events::{FAULT_BUDGET, FAULT_DELAY, FAULT_PANIC};
use tc_trace::{EventKind, EventScope, Stage};

/// The `--faults` spelling of each stage that has a fault site, in
/// pipeline order. Sites sit at stage *entry*, so a `panic` fault at
/// `elaborate` unwinds out of [`crate::check_source`] exactly as a real
/// elaboration bug would. Lex and coherence have no spelling, so no
/// rule can fire there. The spelling, not the stage, feeds [`decide`]:
/// renaming a site would change which requests a seed hits.
const SITES: [(&str, Stage); 6] = [
    ("parse", Stage::Parse),
    ("classenv", Stage::ClassEnv),
    ("elaborate", Stage::Elaborate),
    ("share", Stage::Share),
    ("lint", Stage::Lint),
    ("eval", Stage::Eval),
];

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a recognizable payload (`"tc-fault: ..."`).
    Panic,
    /// Sleep for this many milliseconds (deadline pressure).
    Delay(u64),
    /// Ask the caller to run the stage with an exhausted budget.
    /// Meaningful at `elaborate` and `eval`; a no-op elsewhere.
    Budget,
}

/// One parsed `site=action[%pct]` rule.
#[derive(Debug, Clone)]
struct FaultRule {
    site: Stage,
    /// The site's `--faults` spelling.
    name: &'static str,
    action: FaultAction,
    pct: u8,
}

/// A parsed fault spec: the seed plus the rule list. A plan is shared
/// by a whole serve session; [`FaultPlan::for_request`] derives the
/// per-request [`Faults`] handle.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse a spec per the module-level grammar. Errors name the
    /// offending fragment so a CLI can show them verbatim.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for (i, part) in spec.split(';').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if i == 0 {
                if let Some(v) = part.strip_prefix("seed=") {
                    seed = v
                        .parse::<u64>()
                        .map_err(|_| format!("bad fault seed `{v}`"))?;
                    continue;
                }
            }
            let Some((site_s, rest)) = part.split_once('=') else {
                return Err(format!("bad fault rule `{part}` (want site=action[%pct])"));
            };
            let Some(&(name, site)) = SITES.iter().find(|(name, _)| *name == site_s) else {
                return Err(format!(
                    "unknown fault site `{site_s}` (one of parse, classenv, elaborate, share, lint, eval)"
                ));
            };
            let (action_s, pct) = match rest.split_once('%') {
                Some((a, p)) => (
                    a,
                    p.parse::<u8>()
                        .ok()
                        .filter(|p| *p <= 100)
                        .ok_or_else(|| format!("bad fault percentage `{p}` (want 0-100)"))?,
                ),
                None => (rest, 100),
            };
            let action = if action_s == "panic" {
                FaultAction::Panic
            } else if action_s == "budget" {
                FaultAction::Budget
            } else if let Some(ms) = action_s.strip_prefix("delay:") {
                FaultAction::Delay(
                    ms.parse::<u64>()
                        .map_err(|_| format!("bad fault delay `{ms}` (want milliseconds)"))?,
                )
            } else {
                return Err(format!(
                    "unknown fault action `{action_s}` (one of panic, budget, delay:<ms>)"
                ));
            };
            rules.push(FaultRule {
                site,
                name,
                action,
                pct,
            });
        }
        Ok(FaultPlan { seed, rules })
    }

    /// The per-request fault handle for request number `seq`. Each
    /// handle carries fresh hit counters, so a site visited twice in
    /// one request (it isn't today, but a retry loop could) rolls the
    /// dice independently each time while staying deterministic.
    pub fn for_request(&self, seq: u64) -> Faults {
        if self.rules.is_empty() {
            return Faults::none();
        }
        let hits = self.rules.iter().map(|_| AtomicU64::new(0)).collect();
        Faults(Some(Arc::new(FaultCtx {
            seed: self.seed,
            seq,
            rules: self.rules.clone(),
            hits,
            fired: AtomicU64::new(0),
        })))
    }
}

/// Shared per-request fault state (see [`FaultPlan::for_request`]).
#[derive(Debug)]
pub struct FaultCtx {
    seed: u64,
    seq: u64,
    rules: Vec<FaultRule>,
    hits: Vec<AtomicU64>,
    fired: AtomicU64,
}

/// What [`Faults::fire`] tells its caller to do. `Panic` and `Delay`
/// are executed inside `fire` itself; `Budget` is returned because
/// only the caller knows which budget to exhaust.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Budget outcome asks the caller to shrink the stage budget"]
pub enum FaultOutcome {
    /// Nothing fired (or only a delay, which already happened).
    None,
    /// Run the stage with an exhausted budget.
    Budget,
}

/// The per-request fault-injection handle threaded through
/// [`crate::Options::faults`]. The default value is disabled and
/// every check is one branch on a `None`.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<FaultCtx>>);

impl Faults {
    /// The disabled handle (also the `Default`).
    pub fn none() -> Faults {
        Faults(None)
    }

    /// Does this handle carry any rules at all?
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Evaluate every rule attached to `site`. Fires deterministically
    /// from `(seed, seq, site, hit count)`. Panics and delays happen
    /// here; a budget fault is reported back for the caller to apply.
    /// Callers that need the injection count for metrics read
    /// [`Faults::injected`] afterwards.
    pub fn fire(&self, site: Stage) -> FaultOutcome {
        self.fire_traced(site, &EventScope::off())
    }

    /// Like [`Faults::fire`], but record a `fault-injected` event into
    /// the flight recorder *before* executing the action — a panic
    /// unwinds the stack, so recording afterwards would lose exactly
    /// the firings a retained trace most needs to show.
    pub fn fire_traced(&self, site: Stage, events: &EventScope) -> FaultOutcome {
        let Some(ctx) = &self.0 else {
            return FaultOutcome::None;
        };
        let mut outcome = FaultOutcome::None;
        for (i, rule) in ctx.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            let hit = ctx.hits[i].fetch_add(1, Ordering::Relaxed);
            if !decide(ctx.seed, ctx.seq, rule.name, hit, rule.pct) {
                continue;
            }
            ctx.fired.fetch_add(1, Ordering::Relaxed);
            let action_code = match rule.action {
                FaultAction::Panic => FAULT_PANIC,
                FaultAction::Delay(_) => FAULT_DELAY,
                FaultAction::Budget => FAULT_BUDGET,
            };
            events.record(EventKind::FaultInjected, site as u64, action_code);
            match rule.action {
                FaultAction::Panic => {
                    // The whole point: unwind out of the pipeline so
                    // catch_unwind isolation is exercised for real.
                    // The recognizable prefix lets the serve panic
                    // hook keep injected panics off stderr.
                    #[allow(clippy::panic)]
                    {
                        panic!(
                            "tc-fault: injected panic at {} (seq {})",
                            rule.name, ctx.seq
                        );
                    }
                }
                FaultAction::Delay(ms) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                FaultAction::Budget => outcome = FaultOutcome::Budget,
            }
        }
        outcome
    }

    /// How many faults this handle has injected so far. The serve
    /// layer reads this *after* a request (the `Arc` survives the
    /// unwound stack) to count injections even when the fault was a
    /// panic.
    pub fn injected(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |ctx| ctx.fired.load(Ordering::Relaxed))
    }
}

/// The deterministic die roll: splitmix-style scramble of the rule's
/// full identity, reduced mod 100 against the rule's percentage.
fn decide(seed: u64, seq: u64, site: &str, hit: u64, pct: u8) -> bool {
    if pct >= 100 {
        return true;
    }
    if pct == 0 {
        return false;
    }
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    x = x.wrapping_add(seq.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x = x
        .wrapping_add(fnv1a(site))
        .wrapping_add(hit.wrapping_mul(0x94d0_49bb_1331_11eb));
    // xorshift64* finisher.
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    let roll = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 100;
    roll < pct as u64
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Is a panic payload one of ours? The serve layer's panic hook uses
/// this to keep injected panics quiet while still printing real ones.
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    panic_message(payload).starts_with("tc-fault:")
}

/// Extract the human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` with panic isolation: a panic becomes `Err(message)`
/// instead of unwinding further. This is the serve worker's armor —
/// a pipeline bug (or injected fault) in one request must never take
/// the worker thread down.
pub fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| panic_message(&*p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_inert() {
        let plan = FaultPlan::parse("").unwrap();
        let f = plan.for_request(0);
        assert!(!f.is_active());
        assert_eq!(f.fire(Stage::Parse), FaultOutcome::None);
    }

    #[test]
    fn spec_grammar_round_trips() {
        let plan =
            FaultPlan::parse("seed=42;elaborate=panic%30;eval=delay:5%10;parse=budget").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].site, Stage::Elaborate);
        assert_eq!(plan.rules[0].action, FaultAction::Panic);
        assert_eq!(plan.rules[0].pct, 30);
        assert_eq!(plan.rules[1].action, FaultAction::Delay(5));
        assert_eq!(plan.rules[2].pct, 100);
    }

    #[test]
    fn spec_errors_name_the_fragment() {
        assert!(FaultPlan::parse("bogus=panic")
            .unwrap_err()
            .contains("bogus"));
        assert!(FaultPlan::parse("eval=explode")
            .unwrap_err()
            .contains("explode"));
        assert!(FaultPlan::parse("eval=panic%777")
            .unwrap_err()
            .contains("777"));
        assert!(FaultPlan::parse("seed=abc;eval=panic")
            .unwrap_err()
            .contains("abc"));
        assert!(FaultPlan::parse("justaword")
            .unwrap_err()
            .contains("justaword"));
    }

    #[test]
    fn budget_faults_are_reported_not_executed() {
        let plan = FaultPlan::parse("elaborate=budget").unwrap();
        let f = plan.for_request(7);
        assert_eq!(f.fire(Stage::Elaborate), FaultOutcome::Budget);
        assert_eq!(f.fire(Stage::Eval), FaultOutcome::None);
    }

    #[test]
    fn panic_faults_panic_and_are_recognizable() {
        let plan = FaultPlan::parse("parse=panic").unwrap();
        let f = plan.for_request(3);
        let err = isolated(|| {
            let _ = f.fire(Stage::Parse);
        })
        .unwrap_err();
        assert!(err.starts_with("tc-fault:"), "{err}");
        assert!(err.contains("parse"), "{err}");
    }

    #[test]
    fn percentage_decisions_are_deterministic_and_roughly_proportional() {
        let plan = FaultPlan::parse("seed=1;eval=budget%30").unwrap();
        let fired: Vec<bool> = (0..1000)
            .map(|seq| plan.for_request(seq).fire(Stage::Eval) == FaultOutcome::Budget)
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|seq| plan.for_request(seq).fire(Stage::Eval) == FaultOutcome::Budget)
            .collect();
        assert_eq!(fired, again, "same seed+seq must fire identically");
        let n = fired.iter().filter(|b| **b).count();
        assert!(
            (150..450).contains(&n),
            "30% of 1000 should be ~300, got {n}"
        );
        // A different seed makes different choices.
        let other = FaultPlan::parse("seed=2;eval=budget%30").unwrap();
        let diff: Vec<bool> = (0..1000)
            .map(|seq| other.for_request(seq).fire(Stage::Eval) == FaultOutcome::Budget)
            .collect();
        assert_ne!(fired, diff);
    }

    #[test]
    fn isolated_passes_values_through() {
        assert_eq!(isolated(|| 40 + 2).unwrap(), 42);
    }

    #[test]
    fn fire_traced_records_the_event_before_the_panic() {
        let log = tc_trace::EventLog::with_capacity(8);
        let plan = FaultPlan::parse("elaborate=panic").unwrap();
        let f = plan.for_request(9);
        let scope = log.scope(9);
        let err = isolated(|| {
            let _ = f.fire_traced(Stage::Elaborate, &scope);
        })
        .unwrap_err();
        assert!(err.starts_with("tc-fault:"), "{err}");
        // The event survived the unwind: it names the failing stage
        // and the action that fired.
        let events = log.extract(9);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::FaultInjected);
        assert_eq!(events[0].arg0, Stage::Elaborate as u64);
        assert_eq!(events[0].arg1, 0, "action code 0 = panic");
    }
}
