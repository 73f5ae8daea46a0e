//! The live daemon under test, in a child process of its own.
//!
//! The child is this executable in `daemon` mode: it binds
//! `pruneperf_serve::Server` on a free loopback port with the flags the
//! workload names, prints the address, serves a fixed number of
//! connections and exits, printing its peak resident memory. A child
//! process keeps the daemon's memory apart from the client's and from
//! the in-process correctness reference.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};

use pruneperf_profiler::sweep;
use pruneperf_serve::{Server, ServerOptions};

use crate::trace::now;

/// Daemon flags every serve workload runs with: workers match the two
/// cores; queue and cache bound are the CLI defaults.
pub const WORKERS: usize = 2;
/// Per-worker queue bound (`pruneperf serve` default).
pub const QUEUE: usize = 4;
/// Latency-cache bound per shard (`pruneperf serve` default).
pub const CACHE_CAP: usize = 4096;

/// A running daemon child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts a daemon that exits after `max_requests` connections and
    /// waits until it has bound its port.
    pub fn spawn(max_requests: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
        let mut child = Command::new(exe)
            .args(["daemon", "--max-requests", &max_requests.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start daemon: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".to_string());
        };
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read daemon address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not report an address: {line:?}"))?;
        Ok(daemon)
    }

    /// The daemon's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit after its last connection and
    /// returns its peak resident memory in MiB.
    pub fn finish(mut self) -> Result<f64, String> {
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("cannot read daemon summary: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot reap daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}: {rest}"));
        }
        rest.lines()
            .find_map(|l| l.strip_prefix("peak_rss_kb "))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("daemon reported no peak memory: {rest:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After `finish` the child is already reaped and both calls are
        // harmless no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One-connection readiness probe: `GET /stats` must answer 200.
pub fn probe(addr: SocketAddr) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("probe write: {e}"))?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| format!("probe read: {e}"))?;
    if reply.starts_with("HTTP/1.1 200 ") && reply.contains("\"cache\"") {
        Ok(())
    } else {
        Err(format!("daemon not ready: {reply:?}"))
    }
}

/// Starts a daemon and probes it; returns it with the seconds taken.
pub fn start(max_requests: usize) -> Result<(Daemon, f64), String> {
    let t0 = now();
    let daemon = Daemon::spawn(max_requests)?;
    probe(daemon.addr())?;
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Entry point of `daemon` mode: serve `max_requests` connections with
/// the workload flags, `--jobs` resolved as the CLI resolves it.
pub fn run_daemon(max_requests: usize) -> Result<(), String> {
    sweep::set_sweep_jobs(sweep::resolve_jobs(None));
    let server = Server::bind(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_capacity: QUEUE,
        cache_cap: CACHE_CAP,
        max_requests: Some(max_requests),
    })
    .map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot query address: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {addr}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot report address: {e}"))?;
    let summary = server.run().map_err(|e| format!("serve failed: {e}"))?;
    writeln!(
        out,
        "served accepted={} shed={} refused={}\npeak_rss_kb {}",
        summary.accepted,
        summary.shed,
        summary.refused,
        peak_rss_kb()
    )
    .and_then(|()| out.flush())
    .map_err(|e| format!("cannot report summary: {e}"))
}
