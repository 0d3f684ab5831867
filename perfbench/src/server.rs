//! The server under test as a child process: spawn, set-up timing,
//! peak memory, shutdown.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// How requests reach the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `serve --listen=127.0.0.1:0`, one or more TCP connections.
    Tcp,
    /// `serve` reading JSONL on stdin, answering on stdout.
    Stdin,
}

/// The trivial request whose first correct answer ends set-up.
const PROBE: &str = "{\"id\":\"probe\",\"program\":\"main = 1;\"}\n";

/// A running `run serve` child. Dropping it kills and reaps the child.
pub struct Server {
    child: Child,
    /// Bound address (TCP transport).
    pub addr: Option<String>,
    /// Request pipe and response reader (stdin transport).
    pub stdin: Option<ChildStdin>,
    pub stdout: Option<BufReader<ChildStdout>>,
    /// Kept open so the child's later stderr writes never hit a closed
    /// pipe.
    _stderr: Option<BufReader<ChildStderr>>,
}

impl Server {
    /// Spawn `bin serve` with `extra` flags. For TCP this returns once
    /// the server has announced its bound address on stderr.
    pub fn spawn(bin: &Path, transport: Transport, extra: &[String]) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve").args(extra).stderr(Stdio::piped());
        match transport {
            Transport::Tcp => {
                cmd.arg("--listen=127.0.0.1:0")
                    .stdin(Stdio::null())
                    .stdout(Stdio::null());
            }
            Transport::Stdin => {
                cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
            }
        }
        let mut child = cmd.spawn()?;
        let mut server = Server {
            addr: None,
            stdin: child.stdin.take(),
            stdout: child.stdout.take().map(BufReader::new),
            _stderr: None,
            child,
        };
        if transport == Transport::Tcp {
            // The announcement is the only stderr line before shutdown,
            // so the pipe never fills once it has been read.
            let stderr = server
                .child
                .stderr
                .take()
                .ok_or_else(|| io::Error::other("no stderr"))?;
            let mut stderr = BufReader::new(stderr);
            let mut line = String::new();
            stderr.read_line(&mut line)?;
            let addr = line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .ok_or_else(|| io::Error::other(format!("server did not announce: {line:?}")))?;
            server.addr = Some(addr.to_string());
            server._stderr = Some(stderr);
        }
        Ok(server)
    }

    /// Open a TCP connection to the server.
    pub fn connect(&self) -> io::Result<TcpStream> {
        let addr = self
            .addr
            .as_deref()
            .ok_or_else(|| io::Error::other("not a TCP server"))?;
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(s)
    }

    /// The child's peak resident set (`VmHWM`) in kB.
    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Stop the child and wait for it: close stdin (the stdin server
    /// drains and exits at EOF) or kill it (the TCP server serves until
    /// killed).
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Some(stdin) = self.stdin.take() {
            drop(stdin);
            if let Some(mut out) = self.stdout.take() {
                io::copy(&mut out, &mut io::sink())?;
            }
            let status = self.child.wait()?;
            if !status.success() {
                return Err(io::Error::other(format!("server exited with {status}")));
            }
        } else {
            self.child.kill()?;
            self.child.wait()?;
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Send the probe on an established channel and read its answer.
fn probe(w: &mut dyn Write, r: &mut dyn BufRead) -> io::Result<()> {
    w.write_all(PROBE.as_bytes())?;
    w.flush()?;
    let mut line = String::new();
    r.read_line(&mut line)?;
    if !(line.contains("\"status\": \"ok\"") && line.contains("\"value\": \"1\"")) {
        return Err(io::Error::other(format!("bad probe answer: {line:?}")));
    }
    Ok(())
}

/// Spawn a server and time spawn → first correct answer to a trivial
/// `run`. Returns the seconds and the live server.
pub fn start_timed(
    bin: &Path,
    transport: Transport,
    extra: &[String],
) -> io::Result<(f64, Server)> {
    let t0 = Instant::now();
    let mut server = Server::spawn(bin, transport, extra)?;
    match transport {
        Transport::Tcp => {
            let conn = server.connect()?;
            probe(&mut &conn, &mut BufReader::new(&conn))?;
        }
        Transport::Stdin => {
            let (Some(w), Some(r)) = (server.stdin.as_mut(), server.stdout.as_mut()) else {
                return Err(io::Error::other("stdin server without pipes"));
            };
            probe(w, r)?;
        }
    }
    Ok((t0.elapsed().as_secs_f64(), server))
}

/// Build the `run` example in release mode from the checkout in the
/// current directory and return its path.
pub fn build_server() -> io::Result<PathBuf> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--example", "run"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building the server failed: {status}"
        )));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target)
        .join("release")
        .join("examples")
        .join("run");
    if !bin.is_file() {
        return Err(io::Error::other(format!("{} was not built", bin.display())));
    }
    Ok(bin)
}
