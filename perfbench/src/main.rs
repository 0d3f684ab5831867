//! `tc-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <small_open|batch_check|large_sweep|eval_heavy|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It builds the `run` example from the checkout in the current
//! directory and drives `run serve` as a black-box child process with
//! seeded, oracle-checked load (`--trace 0`, end-to-end metrics), or
//! drives it and then replays the same requests in-process through the
//! layer chain with one span per layer (`--trace 1`, per-layer
//! metrics). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and the metric mapping.

mod gen;
mod load;
mod quant;
mod server;
mod steal;
mod traced;

use std::io::{self, BufReader, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::{Expect, Kind, Request, Rng, Workload};
use load::{Sample, Verdict};
use server::{Server, Transport};
use steal::Steal;

/// Offered rate of the `small_open` Poisson schedule, req/s.
const OPEN_RATE: f64 = 100.0;
/// Requests per `batch_check` stdin batch (the queue holds them all).
const BATCH: u64 = 100;
/// Server spawns timed per run for `setup_s` (the measured server is
/// one more).
const SETUP_PROBES: usize = 10;
/// Longest wait for answers after the last open-loop send.
const DRAIN: Duration = Duration::from_secs(20);
/// Stated slack between the sum of layer spans and the untraced
/// `run_source` time of the same input: 25% plus 0.3 ms.
const SLACK_FRAC: f64 = 0.25;
const SLACK_ABS_US: f64 = 300.0;
/// Measurement pairs tried per input before a slack miss fails the run.
const FIDELITY_ATTEMPTS: usize = 8;
/// Longest traced replay.
const REPLAY_MAX: Duration = Duration::from_secs(10);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Corrupt the oracle's expectation for this request index (to show
    /// the oracle is live: the run must then fail, naming it).
    inject_wrong: Option<u64>,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        inject_wrong: None,
        out_dir: "perfbench/out".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = num(val()?)?,
            "--seconds" => a.seconds = num(val()?)?.max(1),
            "--trace" => a.trace = num(val()?)? != 0,
            "--inject-wrong-expect" => a.inject_wrong = Some(num(val()?)?),
            "--out" => a.out_dir = val()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload != "all" && Workload::parse(&a.workload).is_none() {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one workload run produced.
struct Report {
    attempted: u64,
    failed: u64,
    /// Wrong answers and fidelity failures, each naming its request.
    wrong: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    spans: Vec<traced::Span>,
}

/// A request generator bound to a workload, seed and injected fault.
#[derive(Clone, Copy)]
struct Gen {
    w: Workload,
    seed: u64,
    inject_wrong: Option<u64>,
}

impl Gen {
    fn make(&self, index: u64) -> Request {
        let mut r = Request::generate(self.w, self.seed, index);
        if self.inject_wrong == Some(index) {
            r.expect = match r.expect {
                Expect::Value(v) => Expect::Value(format!("{v}-injected")),
                Expect::Verdict { ok, codes } => Expect::Verdict { ok: !ok, codes },
            };
        }
        r
    }
}

fn transport(w: Workload) -> Transport {
    match w {
        Workload::BatchCheck => Transport::Stdin,
        _ => Transport::Tcp,
    }
}

fn serve_flags(w: Workload) -> Vec<String> {
    match w {
        Workload::BatchCheck => vec![format!("--queue={}", BATCH + 8)],
        _ => Vec::new(),
    }
}

/// Everything the load phase measured.
struct Load {
    samples: Vec<Sample>,
    wall_s: f64,
    late_ms: Vec<f64>,
    stats: tc_trace::json::Value,
    rss_kb: u64,
    steal: Steal,
}

fn tcp_pair(server: &Server) -> io::Result<(std::net::TcpStream, BufReader<std::net::TcpStream>)> {
    let c = server.connect()?;
    c.set_read_timeout(Some(Duration::from_millis(50)))?;
    let r = BufReader::new(c.try_clone()?);
    Ok((c, r))
}

/// Drive `server` with workload load for `seconds`, then collect the
/// fleet stats and peak memory and shut it down.
fn drive(mut server: Server, g: Gen, seconds: u64) -> io::Result<Load> {
    let dur = Duration::from_secs(seconds);
    let mut steal = Steal::default();
    steal.mark();
    let t0 = Instant::now();
    let mut late_ms = Vec::new();
    let samples = match g.w {
        Workload::SmallOpen => {
            let mut rng = Rng::new(g.seed, "schedule", 0);
            let mut offsets = Vec::new();
            let mut t = 0.0;
            loop {
                t += -(1.0 - rng.unit()).ln() / OPEN_RATE;
                if t >= dur.as_secs_f64() {
                    break;
                }
                offsets.push(Duration::from_secs_f64(t));
            }
            let reqs: Vec<Request> = (0..offsets.len() as u64).map(|i| g.make(i)).collect();
            let (w, r) = tcp_pair(&server)?;
            let (samples, _) = load::open_loop(&w, r, &reqs, &offsets, DRAIN, None, &mut steal)?;
            late_ms = samples
                .iter()
                .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
                .collect();
            samples
        }
        Workload::BatchCheck => {
            let (Some(w), Some(r)) = (server.stdin.as_mut(), server.stdout.as_mut()) else {
                return Err(io::Error::other("stdin server without pipes"));
            };
            let mut all = Vec::new();
            let mut next = 0;
            while t0.elapsed() < dur {
                let reqs: Vec<Request> = (next..next + BATCH).map(|i| g.make(i)).collect();
                next += BATCH;
                steal.mark();
                all.extend(load::batch(w, r, &reqs)?);
            }
            steal.mark();
            all
        }
        Workload::LargeSweep => {
            let (w, mut r) = tcp_pair(&server)?;
            r.get_ref().set_read_timeout(None)?;
            load::closed_loop(&w, &mut r, t0 + dur, &mut steal, |k| g.make(k))?
        }
        Workload::EvalHeavy => {
            let conns = [tcp_pair(&server)?, tcp_pair(&server)?];
            for (_, r) in &conns {
                r.get_ref().set_read_timeout(None)?;
            }
            let until = t0 + dur;
            let results: Vec<io::Result<Vec<Sample>>> = std::thread::scope(|s| {
                let mut conns = conns.into_iter();
                let (w1, mut r1) = conns.next().expect("two connections");
                let (w0, mut r0) = conns.next().expect("two connections");
                let other = s.spawn(move || {
                    let mut steal = Steal::default();
                    let out =
                        load::closed_loop(&w1, &mut r1, until, &mut steal, |k| g.make(2 * k + 1));
                    (out, steal)
                });
                let mine = load::closed_loop(&w0, &mut r0, until, &mut steal, |k| g.make(2 * k));
                let (theirs, their_steal) = other.join().unwrap_or_else(|_| {
                    (Err(io::Error::other("client panicked")), Steal::default())
                });
                steal.absorb(their_steal);
                vec![mine, theirs]
            });
            let mut all = Vec::new();
            for r in results {
                all.extend(r?);
            }
            all.sort_by_key(|s| s.index);
            all
        }
    };
    let first = samples.iter().map(|s| s.due).min().unwrap_or(t0);
    let last = samples.iter().filter_map(|s| s.recv).max().unwrap_or(first);
    let wall_s = (last - first).as_secs_f64().max(1e-9);
    let stats = match transport(g.w) {
        Transport::Tcp => {
            let (mut w, mut r) = tcp_pair(&server)?;
            r.get_ref().set_read_timeout(None)?;
            load::stats(&mut w, &mut r)?
        }
        Transport::Stdin => {
            let (Some(w), Some(r)) = (server.stdin.as_mut(), server.stdout.as_mut()) else {
                return Err(io::Error::other("stdin server without pipes"));
            };
            load::stats(w, r)?
        }
    };
    let rss_kb = server.peak_rss_kb()?;
    server.shutdown()?;
    Ok(Load {
        samples,
        wall_s,
        late_ms,
        stats,
        rss_kb,
        steal,
    })
}

fn count_failures(samples: &[Sample], wrong: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for s in samples {
        match &s.verdict {
            Verdict::Correct => {}
            Verdict::Wrong(msg) => {
                failed += 1;
                wrong.push(format!("request {}: {msg}", s.index));
            }
            Verdict::ServerError(_) | Verdict::Missing => failed += 1,
        }
    }
    failed
}

fn p50(xs: Vec<f64>) -> f64 {
    quant::median(&xs).unwrap_or(0.0)
}

/// `--trace 0`: end-to-end metrics with tracing off.
fn run_untraced(bin: &Path, g: Gen, seconds: u64) -> io::Result<Report> {
    let (tr, flags) = (transport(g.w), serve_flags(g.w));
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        let (s, server) = server::start_timed(bin, tr, &flags)?;
        server.shutdown()?;
        setups.push(s);
    }
    let (s, server) = server::start_timed(bin, tr, &flags)?;
    setups.push(s);
    let load = drive(server, g, seconds)?;

    let mut wrong = Vec::new();
    let failed = count_failures(&load.samples, &mut wrong);
    let attempted = load.samples.len() as u64;
    let correct = attempted - failed;
    // Requests and windows that overlapped a burst of hypervisor steal
    // are left out while enough quiet ones remain (see `steal`).
    let reqs = quietest(load.samples.iter().collect(), |s| {
        s.recv
            .and_then(|r| load.steal.fraction(s.due, r))
            .unwrap_or(0.0)
    });
    let lat = |large: Option<bool>| -> Vec<f64> {
        reqs.iter()
            .filter(|s| large.is_none_or(|l| s.large == l))
            .filter_map(|s| s.latency_ms())
            .collect()
    };
    // large_sweep reports latency at its headline size (N=400) only.
    let headline = (g.w == Workload::LargeSweep).then_some(true);
    let pop = quant::sorted(lat(headline));
    let (wins, all_wins) = quiet_windows(windows(g.w, &load.samples, WINDOW), &load.steal);
    let (tail_wins, all_tail_wins) =
        quiet_windows(windows(g.w, &load.samples, TAIL_WINDOW), &load.steal);
    // Per-window figures, medianed over windows, so a few seconds of
    // host contention move the result by one window, not by its share
    // of the pooled sample.
    let per_window = |ws: &[Vec<&Sample>], q: f64| -> Vec<f64> {
        ws.iter()
            .filter_map(|w| {
                quant::percentile(
                    &quant::sorted(w.iter().filter_map(|s| s.latency_ms()).collect()),
                    q,
                )
            })
            .collect()
    };
    let (win_p50, win_p99) = (per_window(&wins, 0.5), per_window(&tail_wins, 0.99));
    let windowed = headline.is_none() && all_wins >= MIN_WINDOWS;
    let tail_windowed = headline.is_none() && all_tail_wins >= MIN_WINDOWS;
    let pooled_rps = correct as f64 / load.wall_s;
    let rates = window_rates(&wins);
    let throughput = if windowed && g.w != Workload::SmallOpen {
        p50(rates)
    } else {
        pooled_rps
    };
    let (q, pooled_tail) = quant::tail(&pop).unwrap_or((0.5, 0.0));
    let pooled_p50 = p50(pop.clone());
    let p50_ms = if windowed {
        p50(win_p50.clone())
    } else {
        pooled_p50
    };
    let p99_ms = if tail_windowed {
        p50(win_p99.clone())
    } else {
        pooled_tail
    };
    let (large, small) = (p50(lat(Some(true))), p50(lat(Some(false))));
    let notes = vec![
        format!(
            "p50_ms: {}; p99_ms: {}; pooled over {} n={} requests: p50 {} ms, p{} {} ms \
             (highest percentile with >= {} samples beyond)",
            if windowed {
                format!(
                    "median over {} windows of {} requests of each window's p50",
                    wins.len(),
                    wins[0].len()
                )
            } else {
                "pooled".to_string()
            },
            if tail_windowed {
                format!(
                    "median over {} windows of {} requests of each window's p99",
                    tail_wins.len(),
                    tail_wins[0].len()
                )
            } else {
                "pooled".to_string()
            },
            if headline.is_some() {
                "large-size"
            } else {
                "all"
            },
            pop.len(),
            pooled_p50,
            (q * 100.0).round(),
            pooled_tail,
            quant::MIN_BEYOND
        ),
        format!(
            "scaling_ratio = p50 large ({} ms, n={}) / p50 small ({} ms, n={})",
            large,
            lat(Some(true)).len(),
            small,
            lat(Some(false)).len()
        ),
        format!(
            "latency deciles (ms): {:?}",
            (1..10)
                .filter_map(|d| quant::percentile(&pop, d as f64 / 10.0))
                .collect::<Vec<_>>()
        ),
        format!("throughput_rps pooled over the run: {pooled_rps}"),
        format!(
            "steal: {:.1}% of CPU time over the run; kept {} of {} p50 windows and {} of {} requests \
             (those with <= {}% stolen, or the least-stolen half)",
            load.steal.overall().unwrap_or(0.0) * 100.0,
            wins.len(),
            all_wins,
            reqs.len(),
            load.samples.len(),
            steal::QUIET * 100.0
        ),
        format!(
            "window p50s (ms): {:?}",
            win_p50.iter().map(|x| x.round()).collect::<Vec<_>>()
        ),
        format!(
            "window p99s (ms): {:?}",
            win_p99.iter().map(|x| x.round()).collect::<Vec<_>>()
        ),
        format!("setup samples (s): {setups:?}"),
        format!("fail_frac = {}", failed as f64 / attempted.max(1) as f64),
    ];
    let metrics = vec![
        m("setup_s", p50(setups), "s"),
        m("p50_ms", p50_ms, "ms"),
        m("p99_ms", p99_ms, "ms"),
        m("throughput_rps", throughput, "req/s"),
        m(
            "ok_frac",
            correct as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        m("peak_rss_mb", load.rss_kb as f64 / 1024.0, "MB"),
        m(
            "scaling_ratio",
            if small > 0.0 { large / small } else { 0.0 },
            "ratio",
        ),
    ];
    Ok(Report {
        attempted,
        failed,
        wrong,
        metrics,
        notes,
        spans: Vec::new(),
    })
}

/// Requests per window for the per-window p50 and throughput, and for
/// the per-window p99 (large enough that a window's p99 is not just its
/// maximum); batches are their own windows. A windowed figure needs a
/// run of at least `MIN_WINDOWS` full windows, else the pooled figure is
/// used.
const WINDOW: usize = 50;
const TAIL_WINDOW: usize = 100;
const MIN_WINDOWS: usize = 5;

/// Split a run into consecutive windows of `k` requests in send order
/// (one per stdin batch for `batch_check`). A trailing partial window
/// is dropped.
fn windows(w: Workload, samples: &[Sample], k: usize) -> Vec<Vec<&Sample>> {
    let k = if w == Workload::BatchCheck {
        BATCH as usize
    } else {
        k
    };
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    if w != Workload::BatchCheck {
        by_due.sort_by_key(|s| s.due);
    }
    by_due.chunks_exact(k).map(<[&Sample]>::to_vec).collect()
}

/// Keep the items (requests or windows) with at most [`steal::QUIET`]
/// of CPU time stolen while they ran; if that is fewer than half of
/// them, keep the least-stolen half instead. The choice looks only at
/// steal, never at the measured latencies.
fn quietest<T>(items: Vec<T>, stolen: impl Fn(&T) -> f64) -> Vec<T> {
    let half = items.len().div_ceil(2);
    let mut ranked: Vec<(f64, T)> = items.into_iter().map(|t| (stolen(&t), t)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = ranked.iter().filter(|(f, _)| *f <= steal::QUIET).count();
    ranked.truncate(quiet.max(half));
    ranked.into_iter().map(|(_, t)| t).collect()
}

/// [`quietest`] over windows; also returns the count before filtering.
fn quiet_windows<'a>(ws: Vec<Vec<&'a Sample>>, steal: &Steal) -> (Vec<Vec<&'a Sample>>, usize) {
    let all = ws.len();
    let kept = quietest(ws, |w| {
        span(w)
            .and_then(|(a, b)| steal.fraction(a, b))
            .unwrap_or(0.0)
    });
    (kept, all)
}

/// First send and last answer of a window.
fn span(win: &[&Sample]) -> Option<(Instant, Instant)> {
    Some((
        win.iter().map(|s| s.due).min()?,
        win.iter().filter_map(|s| s.recv).max()?,
    ))
}

/// Correct answers per second in each window, over the time from its
/// first send to its last answer.
fn window_rates(wins: &[Vec<&Sample>]) -> Vec<f64> {
    wins.iter()
        .filter_map(|win| {
            let ok = win.iter().filter(|s| s.verdict == Verdict::Correct).count() as f64;
            let (a, b) = span(win)?;
            Some(ok / (b - a).as_secs_f64())
        })
        .collect()
}

/// Within the stated slack?
fn within_slack(span_sum: f64, untraced: f64) -> bool {
    (span_sum - untraced).abs() <= SLACK_FRAC * untraced + SLACK_ABS_US
}

/// `--trace 1`: drive the server (for the serve/loadgen metrics), then
/// replay the same requests through the traced layer chain.
fn run_traced(bin: &Path, g: Gen, seconds: u64) -> io::Result<Report> {
    let (_, server) = server::start_timed(bin, transport(g.w), &serve_flags(g.w))?;
    let load = drive(server, g, seconds)?;
    let mut wrong = Vec::new();
    let failed = count_failures(&load.samples, &mut wrong);
    let attempted = load.samples.len() as u64;
    let load_wrong = wrong.len();

    let prelude: Vec<f64> = (0..10).map(|_| traced::prelude_us()).collect();
    let mut spans = Vec::new();
    let mut rows: Vec<(Request, traced::Traced, f64)> = Vec::new();
    // The replay gets half the load phase's time, at most
    // `REPLAY_MAX`, and at least one input.
    let budget = Instant::now() + (Duration::from_secs(seconds) / 2).min(REPLAY_MAX);
    // Replay in a seeded shuffled order, so a time-limited replay
    // samples the whole run rather than its first requests.
    let mut order: Vec<&Sample> = load.samples.iter().collect();
    order.sort_by_key(|s| Rng::new(g.seed, "replay", s.index).next_u64());
    for s in order {
        if Instant::now() >= budget && !rows.is_empty() {
            break;
        }
        let req = g.make(s.index);
        // Time an untraced run and a traced run back to back and accept
        // the first pair that agrees within the slack. Host speed drifts
        // over seconds, so only adjacent measurements are comparable; a
        // pair that straddles a change is re-measured after a pause, and
        // only a gap that persists in every pair fails the check.
        let mut kept = None;
        let mut fidelity = Ok(());
        for attempt in 0..FIDELITY_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            let (u_us, u_core, u_ans) = traced::untraced(&req);
            let t = traced::chain(&req);
            if t.core != u_core {
                fidelity = Err("layer chain core differs from run_source core".to_string());
            } else if t.answer != u_ans {
                fidelity = Err(format!(
                    "layer chain answer {:?} != run_source {:?}",
                    t.answer, u_ans
                ));
            } else if !t.answer.matches(&req.expect) {
                fidelity = Err(format!("answer {:?} != oracle {}", t.answer, req.expect));
            } else if within_slack(t.span_sum_us(), u_us) {
                fidelity = Ok(());
                kept = Some((t, u_us));
                break;
            } else {
                fidelity = Err(format!(
                    "layer spans sum to {:.0} us but untraced run_source took {:.0} us \
                     (slack {}% + {} us) in each of {FIDELITY_ATTEMPTS} back-to-back pairs",
                    t.span_sum_us(),
                    u_us,
                    SLACK_FRAC * 100.0,
                    SLACK_ABS_US
                ));
                continue;
            }
            break;
        }
        if let Err(msg) = fidelity {
            wrong.push(format!(
                "request {} ({} {}, size {}, traced replay): {msg}",
                req.index,
                req.kind.name(),
                req.family,
                req.size
            ));
            continue;
        }
        let (t, u) = kept.expect("a pair passed");
        spans.extend(t.spans.iter().cloned());
        rows.push((req, t, u));
    }
    let mut metrics = layer_metrics(&rows);
    let by_index: std::collections::HashMap<u64, f64> =
        rows.iter().map(|(r, _, u)| (r.index, *u)).collect();
    let served: Vec<&Sample> = load
        .samples
        .iter()
        .filter(|s| s.server_us.is_some())
        .collect();
    let server_us = quant::sorted(
        served
            .iter()
            .filter_map(|s| s.server_us)
            .map(|u| u as f64)
            .collect(),
    );
    let wait: Vec<f64> = served
        .iter()
        .filter_map(|s| Some(s.server_us? as f64 - by_index.get(&s.index)?))
        .collect();
    let transport_us: Vec<f64> = served
        .iter()
        .filter_map(|s| Some(s.send_latency_ms()? * 1e3 - s.server_us? as f64))
        .collect();
    let workers = load
        .stats
        .get("workers")
        .and_then(|w| w.as_array())
        .map_or(1, |w| w.len().max(1));
    let mean_service = if rows.is_empty() {
        0.0
    } else {
        by_index.values().sum::<f64>() / rows.len() as f64
    };
    let busy = mean_service * served.len() as f64 / (workers as f64 * load.wall_s * 1e6);
    let late = quant::sorted(load.late_ms.clone());
    let counter = |n| load::fleet_counter(&load.stats, n) as f64;
    metrics.extend([
        m("driver.prelude_us", p50(prelude), "us"),
        m("serve.latency_us", p50(server_us.clone()), "us"),
        m(
            "serve.latency_us_p99",
            quant::tail(&server_us).map_or(0.0, |t| t.1),
            "us",
        ),
        m("serve.wait_us", p50(wait), "us"),
        m("serve.transport_us", p50(transport_us), "us"),
        m("serve.busy_frac", busy, "fraction"),
        m("serve.shed", counter("serve.err.overloaded"), "count"),
        m(
            "serve.degraded",
            counter("serve.degraded.traces") + counter("serve.degraded.cache"),
            "count",
        ),
        m(
            "loadgen.late_p99_ms",
            quant::tail(&late).map_or(0.0, |t| t.1),
            "ms",
        ),
        m("loadgen.sent", attempted as f64, "count"),
    ]);
    let notes = vec![
        format!(
            "traced replay: {} of {} sent requests passed the fidelity check, {} failed it",
            rows.len(),
            attempted,
            wrong.len() - load_wrong
        ),
        format!("server workers: {workers}"),
    ];
    Ok(Report {
        attempted,
        failed,
        wrong,
        metrics,
        notes,
        spans,
    })
}

/// Per-layer metrics from the traced rows.
fn layer_metrics(rows: &[(Request, traced::Traced, f64)]) -> Vec<Metric> {
    let layer =
        |i: usize| quant::sorted(rows.iter().filter_map(|(_, t, _)| t.layer_us[i]).collect());
    let count = |f: &dyn Fn(&traced::Counts) -> u64, kinds: &[Kind]| {
        p50(rows
            .iter()
            .filter(|(r, _, _)| kinds.contains(&r.kind))
            .map(|(_, t, _)| f(&t.counts) as f64)
            .collect())
    };
    let all = [Kind::Run, Kind::Check, Kind::CheckLaws];
    let sum = |f: &dyn Fn(&traced::Counts) -> u64| {
        rows.iter().map(|(_, t, _)| f(&t.counts)).sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let tail = |xs: Vec<f64>| quant::tail(&xs).map_or(0.0, |t| t.1);
    let untraced: Vec<f64> = rows.iter().map(|(_, _, u)| *u).collect();
    let traced_total: f64 = rows.iter().map(|(_, t, _)| t.total_us).sum();
    vec![
        m("syntax.lex_us", p50(layer(0)), "us"),
        m("syntax.parse_us", p50(layer(1)), "us"),
        m("syntax.tokens", count(&|c| c.tokens, &all), "count"),
        m("classes.env_us", p50(layer(2)), "us"),
        m("classes.resolve.goals", count(&|c| c.goals, &all), "count"),
        m(
            "classes.resolve.hit_rate",
            ratio(sum(&|c| c.table_hits), sum(&|c| c.goals)),
            "ratio",
        ),
        m(
            "classes.dicts_constructed",
            count(&|c| c.dicts_constructed, &all),
            "count",
        ),
        m("coherence.check_us", p50(layer(3)), "us"),
        m(
            "coherence.pairs_unified",
            count(&|c| c.pairs_unified, &all),
            "count",
        ),
        m("coherence.laws_us", p50(layer(7)), "us"),
        m("core.elaborate_us", p50(layer(4)), "us"),
        m("core.elaborate_us_p99", tail(layer(4)), "us"),
        m("core.nodes", count(&|c| c.core_nodes, &all), "count"),
        m(
            "types.intern.hit_rate",
            ratio(
                sum(&|c| c.intern_hits),
                sum(&|c| c.intern_hits + c.intern_fresh),
            ),
            "ratio",
        ),
        m("coreir.share_us", p50(layer(5)), "us"),
        m(
            "coreir.dicts_hoisted",
            count(&|c| c.dicts_hoisted, &all),
            "count",
        ),
        m("lint.us", p50(layer(6)), "us"),
        m("eval.us", p50(layer(8)), "us"),
        m("eval.us_p99", tail(layer(8)), "us"),
        m("eval.fuel", count(&|c| c.eval_fuel, &[Kind::Run]), "count"),
        m(
            "eval.forces",
            count(&|c| c.eval_forces, &[Kind::Run]),
            "count",
        ),
        m(
            "eval.thunks",
            count(&|c| c.eval_thunks, &[Kind::Run]),
            "count",
        ),
        m("driver.run_source_us", p50(untraced.clone()), "us"),
        m(
            "driver.overhead_us",
            p50(rows.iter().map(|(_, t, u)| u - t.span_sum_us()).collect()),
            "us",
        ),
        m(
            "driver.trace_overhead_frac",
            ratio(traced_total, untraced.iter().sum()) - 1.0,
            "fraction",
        ),
        m("driver.traced_inputs", rows.len() as f64, "count"),
    ]
}

fn write_spans(dir: &str, name: &str, seed: u64, spans: &[traced::Span]) -> io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{name}-seed{seed}.jsonl");
    let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"request\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, mt) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if mt.value.is_finite() { mt.value } else { 0.0 };
        s.push_str(&format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            mt.name, mt.unit
        ));
    }
    s.push_str("}}");
    s
}

fn run(a: &Args) -> io::Result<bool> {
    let bin = server::build_server()?;
    let jobs: Vec<(Workload, bool)> = if a.workload == "all" {
        let ws = Workload::ALL;
        ws.iter()
            .map(|&w| (w, false))
            .chain(ws.iter().map(|&w| (w, true)))
            .collect()
    } else {
        vec![(Workload::parse(&a.workload).expect("validated"), a.trace)]
    };
    let (mut attempted, mut failed, mut ok) = (0, 0, true);
    let mut metrics = Vec::new();
    for (w, trace) in &jobs {
        let g = Gen {
            w: *w,
            seed: a.seed,
            inject_wrong: a.inject_wrong,
        };
        println!(
            "# workload={} seed={} trace={} stream_hash(first 200 requests)={:016x}",
            w.name(),
            a.seed,
            u8::from(*trace),
            gen::stream_hash(*w, a.seed, 200)
        );
        let rep = if *trace {
            run_traced(&bin, g, a.seconds)?
        } else {
            run_untraced(&bin, g, a.seconds)?
        };
        for n in &rep.notes {
            println!("# {}: {n}", w.name());
        }
        for mt in &rep.metrics {
            println!("# {} {} = {} {}", w.name(), mt.name, mt.value, mt.unit);
        }
        for msg in &rep.wrong {
            eprintln!("error: {}: {msg}", w.name());
        }
        if *trace {
            let path = write_spans(&a.out_dir, w.name(), a.seed, &rep.spans)?;
            println!(
                "# {}: {} spans written to {path}",
                w.name(),
                rep.spans.len()
            );
        }
        attempted += rep.attempted;
        failed += rep.failed;
        ok &= rep.wrong.is_empty();
        let prefix = if jobs.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        metrics.extend(rep.metrics.into_iter().map(|mt| Metric {
            name: prefix.clone() + &mt.name,
            ..mt
        }));
    }
    println!("{}", result_line(ok, attempted, failed, &metrics));
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tc-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
