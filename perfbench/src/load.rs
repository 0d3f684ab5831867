//! Load loops (open, closed, batch) and the per-response judge.

use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{Expect, Request};
use crate::steal::Steal;
use tc_trace::json::{self, Value};

/// How one request ended, as seen by the client.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Correct,
    /// The server answered, but not what the oracle expects.
    Wrong(String),
    /// `status:"error"` (shed, deadline, internal, bad request).
    ServerError(String),
    /// No answer arrived before the drain deadline.
    Missing,
}

/// One request's client-side record.
#[derive(Clone, Debug)]
pub struct Sample {
    pub index: u64,
    pub large: bool,
    /// When the request was due: the schedule in an open loop, the
    /// actual send otherwise.
    pub due: Instant,
    pub sent: Instant,
    pub recv: Option<Instant>,
    /// The server-reported `latency_us` (admission to answer).
    pub server_us: Option<u64>,
    pub verdict: Verdict,
}

impl Sample {
    /// Client-observed latency in ms, timed from `due`.
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv.map(|r| (r - self.due).as_secs_f64() * 1e3)
    }
    /// Latency in ms timed from the actual send.
    pub fn send_latency_ms(&self) -> Option<f64> {
        self.recv.map(|r| (r - self.sent).as_secs_f64() * 1e3)
    }
}

fn response_id(v: &Value) -> Option<u64> {
    v.get("id").and_then(Value::as_u64)
}

/// Compare one response with the oracle's expectation.
pub fn judge(v: &Value, expect: &Expect) -> (Verdict, Option<u64>) {
    let server_us = v.get("latency_us").and_then(Value::as_u64);
    let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("");
    if s("status") != "ok" {
        return (
            Verdict::ServerError(format!("{}: {}", s("error"), s("detail"))),
            server_us,
        );
    }
    let verdict = match expect {
        Expect::Value(want) => {
            if s("outcome") == "value" && s("value") == want {
                Verdict::Correct
            } else {
                Verdict::Wrong(format!(
                    "expected value {want}, got outcome {} value {:?} detail {:?}",
                    s("outcome"),
                    s("value"),
                    s("detail")
                ))
            }
        }
        Expect::Verdict { ok, codes } => {
            let got_ok = v.get("ok").and_then(Value::as_bool);
            let got: std::collections::BTreeSet<String> = v
                .get("diagnostics")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|d| d.get("code").and_then(Value::as_str).map(str::to_string))
                .collect();
            if got_ok == Some(*ok) && &got == codes {
                Verdict::Correct
            } else {
                Verdict::Wrong(format!(
                    "expected ok={ok} codes={codes:?}, got ok={got_ok:?} codes={got:?}"
                ))
            }
        }
    };
    (verdict, server_us)
}

/// Turn raw `(arrival, line)` responses into samples for `reqs`.
fn collate(
    reqs: &[Request],
    due: &[Instant],
    sent: &[Instant],
    got: Vec<(Instant, String)>,
) -> Vec<Sample> {
    let mut out: Vec<Sample> = reqs
        .iter()
        .zip(due.iter().zip(sent))
        .map(|(r, (&due, &sent))| Sample {
            index: r.index,
            large: r.large,
            due,
            sent,
            recv: None,
            server_us: None,
            verdict: Verdict::Missing,
        })
        .collect();
    let base = reqs.first().map_or(0, |r| r.index);
    for (at, line) in got {
        let Ok(v) = json::parse(&line) else { continue };
        let Some(slot) = response_id(&v)
            .and_then(|id| id.checked_sub(base))
            .and_then(|k| usize::try_from(k).ok())
            .filter(|&k| k < reqs.len())
        else {
            continue;
        };
        let (verdict, server_us) = judge(&v, &reqs[slot].expect);
        let s = &mut out[slot];
        s.recv = Some(at);
        s.server_us = server_us;
        s.verdict = verdict;
    }
    out
}

/// Read up to `n` lines, stamping each on arrival. Stops early when
/// `stop` is set; `r` must have a read timeout so the flag is polled.
fn read_lines<R: BufRead>(r: &mut R, n: usize, stop: &AtomicBool) -> Vec<(Instant, String)> {
    let mut got = Vec::with_capacity(n);
    let mut line = String::new();
    while got.len() < n {
        match r.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                got.push((Instant::now(), std::mem::take(&mut line)));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    got
}

/// Open loop: send `reqs[i]` at `start + offsets[i]` regardless of
/// answers, read answers on a second thread, and time each request
/// from its *scheduled* send. After the last send, wait at most
/// `drain` for stragglers. `stall`, if set, sleeps the sender before
/// request `k` (for the harness self-test).
pub fn open_loop<W: Write, R: BufRead + Send>(
    mut w: W,
    mut r: R,
    reqs: &[Request],
    offsets: &[Duration],
    drain: Duration,
    stall: Option<(usize, Duration)>,
    steal: &mut Steal,
) -> io::Result<(Vec<Sample>, R)> {
    let stop = AtomicBool::new(false);
    let lines: Vec<String> = reqs.iter().map(|q| q.line() + "\n").collect();
    let (due, sent, got) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_lines(&mut r, reqs.len(), &stop));
        let start = Instant::now() + Duration::from_millis(5);
        let mut due = Vec::with_capacity(reqs.len());
        let mut sent = Vec::with_capacity(reqs.len());
        let mut err = None;
        for (i, line) in lines.iter().enumerate() {
            let at = start + offsets[i];
            if let Some(d) = stall.filter(|s| s.0 == i).map(|s| s.1) {
                std::thread::sleep(d);
            }
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            due.push(at);
            sent.push(Instant::now());
            if let Err(e) = w.write_all(line.as_bytes()).and_then(|()| w.flush()) {
                err = Some(e);
                break;
            }
            steal.tick();
        }
        let deadline = Instant::now() + drain;
        while !reader.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
            steal.tick();
        }
        steal.mark();
        stop.store(true, Ordering::SeqCst);
        let got = reader.join().unwrap_or_default();
        match err {
            Some(e) => Err(e),
            None => Ok((due, sent, got)),
        }
    })?;
    let n = due.len();
    Ok((collate(&reqs[..n], &due, &sent, got), r))
}

/// Closed loop on one connection: one request outstanding, next sent
/// when the previous answer arrives, until `until` passes. Requests
/// come from `next` (called with the loop's sequence number).
pub fn closed_loop<W: Write, R: BufRead>(
    mut w: W,
    r: &mut R,
    until: Instant,
    steal: &mut Steal,
    mut next: impl FnMut(u64) -> Request,
) -> io::Result<Vec<Sample>> {
    let mut out = Vec::new();
    let mut line = String::new();
    let mut k = 0;
    while Instant::now() < until {
        steal.tick();
        let req = next(k);
        k += 1;
        let msg = req.line() + "\n";
        let sent = Instant::now();
        w.write_all(msg.as_bytes())?;
        w.flush()?;
        line.clear();
        let n = r.read_line(&mut line)?;
        let recv = Instant::now();
        let (verdict, server_us) = match (n, json::parse(&line)) {
            (0, _) => (Verdict::Missing, None),
            (_, Ok(v)) if response_id(&v) == Some(req.index) => judge(&v, &req.expect),
            (_, _) => (
                Verdict::Wrong(format!("unparseable or mismatched answer {line:?}")),
                None,
            ),
        };
        let missing = verdict == Verdict::Missing;
        out.push(Sample {
            index: req.index,
            large: req.large,
            due: sent,
            sent,
            recv: (!missing).then_some(recv),
            server_us,
            verdict,
        });
        if missing {
            break;
        }
    }
    steal.mark();
    Ok(out)
}

/// One batch over the stdin transport: a writer thread submits every
/// request back to back while this thread reads the answers. Each
/// request is timed from the write of its line.
pub fn batch<W: Write + Send, R: BufRead>(
    w: &mut W,
    r: &mut R,
    reqs: &[Request],
) -> io::Result<Vec<Sample>> {
    let never = AtomicBool::new(false);
    let (sent, got) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> io::Result<Vec<Instant>> {
            let mut sent = Vec::with_capacity(reqs.len());
            for q in reqs {
                sent.push(Instant::now());
                w.write_all((q.line() + "\n").as_bytes())?;
            }
            w.flush()?;
            Ok(sent)
        });
        let got = read_lines(r, reqs.len(), &never);
        let sent = writer
            .join()
            .map_err(|_| io::Error::other("batch writer panicked"))?;
        Ok::<_, io::Error>((sent?, got))
    })?;
    Ok(collate(reqs, &sent, &sent, got))
}

/// Send `{"cmd":"stats"}` and return the parsed answer.
pub fn stats<W: Write, R: BufRead>(w: &mut W, r: &mut R) -> io::Result<Value> {
    w.write_all(b"{\"id\":\"stats\",\"cmd\":\"stats\"}\n")?;
    w.flush()?;
    let mut line = String::new();
    r.read_line(&mut line)?;
    json::parse(&line).map_err(|e| io::Error::other(format!("bad stats answer: {e}")))
}

/// A fleet counter from a `stats` answer.
pub fn fleet_counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("fleet")
        .and_then(|f| f.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Request, Workload};
    use crate::quant;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    /// A stand-in server that answers every request line with the
    /// oracle's value, sleeping `stall` before answering line `k`.
    fn stub(
        expect: Vec<String>,
        k: usize,
        stall: Duration,
    ) -> (String, std::thread::JoinHandle<()>) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            let mut w = &s;
            for (i, line) in BufReader::new(&s).lines().enumerate() {
                let v = json::parse(&line.unwrap()).unwrap();
                let id = v.get("id").and_then(Value::as_u64).unwrap();
                if i == k {
                    std::thread::sleep(stall);
                }
                let ans = format!(
                    "{{\"id\": {id}, \"status\": \"ok\", \"outcome\": \"value\", \"value\": \"{}\", \"latency_us\": 10}}\n",
                    expect[i % expect.len()]
                );
                if w.write_all(ans.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, h)
    }

    fn reqs(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request::generate(Workload::SmallOpen, 1, i))
            .collect()
    }

    fn values(rs: &[Request]) -> Vec<String> {
        rs.iter()
            .map(|r| match &r.expect {
                Expect::Value(v) => v.clone(),
                Expect::Verdict { .. } => unreachable!(),
            })
            .collect()
    }

    fn conn(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let r = BufReader::new(s.try_clone().unwrap());
        (s, r)
    }

    #[test]
    fn open_loop_counts_the_wait_a_server_stall_imposes() {
        // 100 req/s for 0.6 s; the stub stalls 300 ms on request 10, so
        // the ~30 requests due during the stall all wait for it.
        let rs = reqs(60);
        let offsets: Vec<Duration> = (0..60).map(|i| Duration::from_millis(10 * i)).collect();
        let (addr, h) = stub(values(&rs), 10, Duration::from_millis(300));
        let (w, r) = conn(&addr);
        let (samples, _) = open_loop(
            &w,
            r,
            &rs,
            &offsets,
            Duration::from_secs(5),
            None,
            &mut Steal::default(),
        )
        .unwrap();
        w.shutdown(std::net::Shutdown::Write).unwrap();
        h.join().unwrap();
        assert!(samples.iter().all(|s| s.verdict == Verdict::Correct));
        let slow = samples
            .iter()
            .filter(|s| s.latency_ms().unwrap() > 100.0)
            .count();
        assert!(
            slow >= 15,
            "coordinated omission hid the stall: only {slow} slow"
        );
        // A closed loop against the same stall records one slow sample.
        let (addr, h) = stub(values(&rs), 10, Duration::from_millis(300));
        let (w, mut r) = conn(&addr);
        r.get_ref().set_read_timeout(None).unwrap();
        let closed = closed_loop(
            &w,
            &mut r,
            Instant::now() + Duration::from_millis(400),
            &mut Steal::default(),
            |k| rs[k as usize % rs.len()].clone(),
        )
        .unwrap();
        w.shutdown(std::net::Shutdown::Write).unwrap();
        h.join().unwrap();
        let slow_closed = closed
            .iter()
            .filter(|s| s.latency_ms().unwrap() > 100.0)
            .count();
        assert_eq!(slow_closed, 1);
    }

    #[test]
    fn open_loop_times_from_the_schedule_when_the_sender_is_late() {
        // The sender itself stalls 200 ms before request 5: requests
        // 5..=24 go out late, and their latency includes the lateness.
        let rs = reqs(40);
        let offsets: Vec<Duration> = (0..40).map(|i| Duration::from_millis(10 * i)).collect();
        let (addr, h) = stub(values(&rs), usize::MAX, Duration::ZERO);
        let (w, r) = conn(&addr);
        let stall = Some((5, Duration::from_millis(200)));
        let (samples, _) = open_loop(
            &w,
            r,
            &rs,
            &offsets,
            Duration::from_secs(5),
            stall,
            &mut Steal::default(),
        )
        .unwrap();
        w.shutdown(std::net::Shutdown::Write).unwrap();
        h.join().unwrap();
        let s = &samples[5];
        let late = (s.sent - s.due).as_secs_f64() * 1e3;
        assert!(late >= 190.0, "late by {late} ms");
        assert!(s.latency_ms().unwrap() >= late);
        assert!(s.send_latency_ms().unwrap() < 100.0);
        let lat = quant::sorted(samples.iter().filter_map(Sample::latency_ms).collect());
        assert!(quant::percentile(&lat, 0.9).unwrap() > 50.0, "{lat:?}");
    }

    #[test]
    fn wrong_answers_are_named() {
        let rs = reqs(3);
        let mut vals = values(&rs);
        vals[1] = "not-the-answer".to_string();
        let (addr, h) = stub(vals, usize::MAX, Duration::ZERO);
        let (w, r) = conn(&addr);
        let offsets = vec![Duration::ZERO; 3];
        let (samples, _) = open_loop(
            &w,
            r,
            &rs,
            &offsets,
            Duration::from_secs(5),
            None,
            &mut Steal::default(),
        )
        .unwrap();
        w.shutdown(std::net::Shutdown::Write).unwrap();
        h.join().unwrap();
        assert_eq!(samples[0].verdict, Verdict::Correct);
        assert!(matches!(&samples[1].verdict, Verdict::Wrong(m) if m.contains("not-the-answer")));
    }
}
