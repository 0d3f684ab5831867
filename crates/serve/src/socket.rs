//! TCP socket transport: the same newline-delimited JSON protocol as
//! the stdin transport, served to many concurrent clients.
//!
//! Layout: one accept thread, one detached reader thread per
//! connection feeding the shared admission queue, one writer thread
//! per connection draining an [`mpsc`] channel so response lines never
//! interleave. Workers route each response back to the admitting
//! connection because the reply sender travels *with* the job through
//! the queue — there is no global response bus to misdeliver on.
//!
//! Framing is byte-oriented: `BufReader::read_line` assembles a frame
//! from however many TCP segments it arrived in, so a request split
//! across writes (or many requests coalesced into one segment) parses
//! identically to the stdin transport.
//!
//! `watch` subscriptions get a dedicated ticker thread per
//! subscription; the connection's `closed` flag (set on reader EOF or
//! writer error) ends the stream within one interval, so a client
//! disconnecting mid-watch leaks nothing.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tc_trace::MetricsSnapshot;

use crate::{install_fault_panic_hook, Admitted, Core, ReqId, ServeConfig, ServeSummary};

/// A running socket server. Dropping the handle leaks the listener
/// threads; call [`SocketHandle::shutdown`] (tests, embedders) or
/// [`SocketHandle::wait`] (the CLI's foreground mode) to finish the
/// session and collect its [`ServeSummary`].
pub struct SocketHandle {
    core: Arc<Core>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Bind the server core to an already-bound listener and start
/// accepting. The listener is taken by value so the caller can bind
/// to port 0 first and read the assigned port from
/// [`SocketHandle::addr`].
pub fn serve_socket(listener: TcpListener, cfg: &ServeConfig) -> io::Result<SocketHandle> {
    install_fault_panic_hook();
    let addr = listener.local_addr()?;
    let core = Arc::new(Core::new(cfg, "socket"));
    let stop = Arc::new(AtomicBool::new(false));
    let workers = (0..core.workers)
        .map(|i| {
            let core = Arc::clone(&core);
            thread::spawn(move || core.worker_loop(i))
        })
        .collect();
    let accept = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        thread::spawn(move || accept_loop(&listener, &core, &stop))
    };
    Ok(SocketHandle {
        core,
        addr,
        stop,
        accept: Some(accept),
        workers,
    })
}

impl SocketHandle {
    /// The bound address (resolves port 0 to the assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the listener stops accepting — the CLI's
    /// foreground mode, which runs until the process is killed.
    pub fn wait(mut self) -> ServeSummary {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.finish()
    }

    /// Stop accepting, drain the admission queue, join the worker
    /// pool, and fold the session into a summary. In-flight requests
    /// finish and their responses are still delivered.
    pub fn shutdown(mut self) -> ServeSummary {
        self.stop.store(true, Ordering::SeqCst);
        // accept() has no timeout; a throwaway connection pokes the
        // loop awake so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.finish()
    }

    fn finish(&mut self) -> ServeSummary {
        self.core.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.core.summary()
    }
}

fn accept_loop(listener: &TcpListener, core: &Arc<Core>, stop: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // A failed accept (client gone between SYN and accept) is the
        // client's problem, not the server's.
        let Ok(stream) = stream else { continue };
        // Replies are small and pipelined: with Nagle on, each one
        // after the first waits for the client's delayed ACK (~40 ms).
        let _ = stream.set_nodelay(true);
        let core = Arc::clone(core);
        thread::spawn(move || serve_connection(&core, stream));
    }
}

/// The per-connection reader: admit every line the client sends, and
/// spawn a ticker for each `watch` subscription. Runs until EOF or a
/// read error, then flips the shared `closed` flag so tickers stop.
fn serve_connection(core: &Arc<Core>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    core.active_connections.fetch_add(1, Ordering::SeqCst);
    let closed = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<String>();
    {
        let core = Arc::clone(core);
        let closed = Arc::clone(&closed);
        // The writer exits once every sender is gone: the reader's tx
        // below, the clones queued alongside jobs, and the tickers'.
        thread::spawn(move || connection_writer(&core, write_half, &rx, &closed));
    }

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Admitted::Watch { id, interval_ms } = core.handle_line(trimmed, &tx) {
            let _ = tx.send(core.watch_ack(&id, interval_ms));
            let core = Arc::clone(core);
            let tx = tx.clone();
            let closed = Arc::clone(&closed);
            thread::spawn(move || watch_loop(&core, &tx, &closed, &id, interval_ms));
        }
    }
    closed.store(true, Ordering::SeqCst);
    core.active_connections.fetch_sub(1, Ordering::SeqCst);
}

/// The per-connection writer: one response line per channel message,
/// flushed eagerly so probes and watch ticks reach the client without
/// waiting for buffer pressure. A write error marks the connection
/// closed and keeps draining so workers never block on a dead peer.
fn connection_writer(
    core: &Arc<Core>,
    stream: TcpStream,
    rx: &mpsc::Receiver<String>,
    closed: &Arc<AtomicBool>,
) {
    let mut out = BufWriter::new(stream);
    let mut sink_broken = false;
    for line in rx {
        if sink_broken {
            core.write_errors.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        match writeln!(out, "{line}").and_then(|()| out.flush()) {
            Ok(()) => {
                core.responses.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                sink_broken = true;
                closed.store(true, Ordering::SeqCst);
                core.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The per-subscription ticker: one fleet-delta line per interval
/// until the connection closes. The first tick differences against
/// the zero snapshot so summed deltas reconcile with absolute stats.
fn watch_loop(
    core: &Arc<Core>,
    tx: &mpsc::Sender<String>,
    closed: &Arc<AtomicBool>,
    id: &ReqId,
    interval_ms: u64,
) {
    let mut prev = MetricsSnapshot::default();
    let mut tick = 0u64;
    let mut last = Instant::now();
    loop {
        thread::sleep(Duration::from_millis(interval_ms));
        if closed.load(Ordering::SeqCst) {
            break;
        }
        tick += 1;
        // Rates use the *measured* window: sleep jitter must not
        // distort qps.
        let window_ms = (last.elapsed().as_millis() as u64).max(1);
        last = Instant::now();
        let (line, now) = core.watch_tick(id, tick, window_ms, &prev);
        if tx.send(line).is_err() {
            break;
        }
        prev = now;
    }
}
