//! The closed-loop HTTP client: each connection sends its next request
//! only after the previous answer has fully arrived.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::mix::http_request;
use crate::trace::now;

/// Concurrent connections of the closed loop (one per core).
pub const CONNECTIONS: usize = 2;

/// A stuck daemon fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// HTTP status code (0 when the exchange failed).
    pub status: u16,
    /// Response body without the trailing newline, or the I/O error.
    pub body: String,
    /// Connect to last response byte, milliseconds.
    pub latency_ms: f64,
}

/// Sends one `POST /plan` on a fresh connection and reads the answer.
pub fn post_plan(addr: SocketAddr, body: &str) -> Answer {
    let t0 = now();
    let exchange = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.write_all(http_request(body).as_bytes())?;
        let mut reply = String::new();
        stream.read_to_string(&mut reply)?;
        Ok(reply)
    };
    let reply = exchange();
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    match reply {
        Ok(reply) => {
            let status = reply
                .strip_prefix("HTTP/1.1 ")
                .and_then(|r| r.get(..3))
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let body = reply
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.trim_end_matches('\n').to_string())
                .unwrap_or_default();
            Answer {
                status,
                body,
                latency_ms,
            }
        }
        Err(e) => Answer {
            status: 0,
            body: format!("exchange failed: {e}"),
            latency_ms,
        },
    }
}

/// Sends every body in `bodies` over [`CONNECTIONS`] closed-loop
/// connections; answers come back in `bodies` order.
pub fn closed_loop(addr: SocketAddr, bodies: &[String]) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<Option<Answer>>> = Mutex::new(vec![None; bodies.len()]);
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(i) else {
                    return;
                };
                let answer = post_plan(addr, body);
                // Every update is one whole slot, so a poisoned guard still
                // holds consistent data.
                let mut slots = answers.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(answer);
                }
            });
        }
    });
    answers
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|a| {
            a.unwrap_or(Answer {
                status: 0,
                body: "never sent".to_string(),
                latency_ms: 0.0,
            })
        })
        .collect()
}
