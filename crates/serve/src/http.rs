//! A deliberately small HTTP/1.1 layer over [`std::io`] streams.
//!
//! The offline build bakes in no async runtime and no HTTP crate, so the
//! daemon speaks the protocol by hand: one `POST /plan` request per
//! connection (`Connection: close` semantics), a `Content-Length` body
//! holding one JSON request line, and a JSON line back. Only the pieces
//! the daemon needs are implemented; anything else is answered with an
//! HTTP error, never a panic — a malformed peer must not take the
//! process down.

use std::io::{BufRead, Read, Write};

/// Cap on accepted body size: a plan request is a one-line JSON object,
/// so anything past this is a protocol abuse, refused early.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Cap on the request line and on each header line, terminator included:
/// a line is read through a reader that stops here, so a peer that never
/// sends a newline cannot grow the buffer without limit.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Cap on header lines per request.
pub const MAX_HEADERS: usize = 100;

/// The parts of a request the daemon cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`POST` expected).
    pub method: String,
    /// Request path (`/plan` expected; `/stats` serves the side channel).
    pub path: String,
    /// Decoded body.
    pub body: String,
}

/// Why [`read_request`] refused a request. Each kind answers with its own
/// status code ([`HttpError::status`]); the message is user-facing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line fills the [`MAX_LINE_BYTES`] window without
    /// ending: 414.
    UriTooLong(String),
    /// A header line fills the [`MAX_LINE_BYTES`] window without ending,
    /// or the request carries more than [`MAX_HEADERS`] header lines: 431.
    HeadersTooLarge(String),
    /// Anything else malformed, oversized or cut short: 400.
    BadRequest(String),
}

impl HttpError {
    /// The HTTP status code the daemon answers this refusal with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::UriTooLong(_) => 414,
            HttpError::HeadersTooLarge(_) => 431,
            HttpError::BadRequest(_) => 400,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::UriTooLong(m) | HttpError::HeadersTooLarge(m) | HttpError::BadRequest(m) => {
                f.write_str(m)
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one HTTP/1.1 request from `stream`.
///
/// # Errors
///
/// Returns an [`HttpError`] for malformed request lines, absent or
/// unparseable `Content-Length`, oversized lines, bodies or header
/// counts, or short reads; the caller answers with its
/// [`HttpError::status`].
pub fn read_request(stream: &mut impl BufRead) -> Result<HttpRequest, HttpError> {
    let mut request_line = String::new();
    read_bounded_line(
        stream,
        &mut request_line,
        "request line",
        HttpError::UriTooLong,
    )?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "malformed request line: {}",
            request_line.trim_end()
        )));
    }

    let mut content_length: usize = 0;
    let mut headers = 0usize;
    loop {
        let mut header = String::new();
        let n = read_bounded_line(stream, &mut header, "header", HttpError::HeadersTooLarge)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed mid-headers".to_string(),
            ));
        }
        let line = header.trim_end();
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header: {line}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                HttpError::BadRequest(format!("bad Content-Length: {}", value.trim()))
            })?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BadRequest(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(stream, &mut body).map_err(|e| {
        HttpError::BadRequest(format!("failed to read {content_length}-byte body: {e}"))
    })?;
    let body = String::from_utf8(body)
        .map_err(|_| HttpError::BadRequest("body is not valid UTF-8".to_string()))?;
    Ok(HttpRequest { method, path, body })
}

/// Reads one line into `line` through a [`MAX_LINE_BYTES`] window,
/// returning the bytes read (`0` at end of stream).
///
/// # Errors
///
/// A read failure ([`HttpError::BadRequest`]), or a line that fills the
/// window without ending (`too_long`).
fn read_bounded_line(
    stream: &mut impl BufRead,
    line: &mut String,
    what: &str,
    too_long: fn(String) -> HttpError,
) -> Result<usize, HttpError> {
    let n = stream
        .take(MAX_LINE_BYTES as u64)
        .read_line(line)
        .map_err(|e| HttpError::BadRequest(format!("failed to read {what}: {e}")))?;
    if n == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(too_long(format!(
            "{what} exceeds the {MAX_LINE_BYTES}-byte limit"
        )));
    }
    Ok(n)
}

/// The reason phrase for the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

/// Writes one complete HTTP/1.1 response (status line, minimal headers,
/// `body` plus a trailing newline) and flushes.
///
/// This is a panic-path root: it runs on the daemon's per-connection
/// write path where the peer may vanish at any byte, so every failure
/// must surface as an `Err` for the worker to log and drop — never a
/// panic that takes a worker thread (and its queue) down.
///
/// # Errors
///
/// Propagates the underlying I/O error (broken pipe, reset, full
/// buffer) unchanged.
pub fn try_respond(stream: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len() + 1
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<HttpRequest, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/plan");
        assert_eq!(req.body, "abcd");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let req = parse("GET /stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for raw in [
            "",
            "NOT-HTTP\r\n\r\n",
            "POST /plan HTTP/1.1\r\nContent-Length: tall\r\n\r\n",
            "POST /plan HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            "POST /plan HTTP/1.1\r\nno colon\r\n\r\n",
        ] {
            assert_eq!(parse(raw).map_err(|e| e.status()), Err(400), "{raw:?}");
        }
        let oversized = format!(
            "POST /plan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(&oversized).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert_eq!(
            err.status(),
            400,
            "an oversized body is a plain bad request"
        );
    }

    fn mib() -> String {
        "a".repeat(1 << 20)
    }

    #[test]
    fn oversized_request_line_is_refused() {
        let err = parse(&format!("GET /{} HTTP/1.1\r\n\r\n", mib())).unwrap_err();
        assert!(err.to_string().contains("request line exceeds"), "{err}");
        assert_eq!(err.status(), 414, "{err}");
    }

    #[test]
    fn oversized_header_line_is_refused() {
        let err = parse(&format!("GET /stats HTTP/1.1\r\nX-Pad: {}\r\n\r\n", mib())).unwrap_err();
        assert!(err.to_string().contains("header exceeds"), "{err}");
        assert_eq!(err.status(), 431, "{err}");
    }

    #[test]
    fn header_count_is_capped() {
        let many = |n: usize| {
            let headers: String = (0..n).map(|i| format!("X-{i}: v\r\n")).collect();
            parse(&format!("GET /stats HTTP/1.1\r\n{headers}\r\n"))
        };
        assert!(many(MAX_HEADERS).is_ok(), "the cap itself is allowed");
        let err = many(MAX_HEADERS + 1).unwrap_err();
        assert!(err.to_string().contains("more than"), "{err}");
        assert_eq!(err.status(), 431, "{err}");
    }

    #[test]
    fn lines_up_to_the_cap_are_accepted() {
        // Request line of exactly MAX_LINE_BYTES, CRLF included.
        let path = "a".repeat(MAX_LINE_BYTES - "GET / HTTP/1.1\r\n".len());
        let req = parse(&format!("GET /{path} HTTP/1.1\r\n\r\n")).unwrap();
        assert_eq!(req.path.len(), path.len() + 1);
        let over = format!("GET /{path}a HTTP/1.1\r\n\r\n");
        assert_eq!(parse(&over).map_err(|e| e.status()), Err(414));
    }

    #[test]
    fn responses_carry_the_framing_headers() {
        let mut out = Vec::new();
        try_respond(&mut out, 429, "{\"status\":\"shed\"}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 18\r\n"));
        assert!(text.ends_with("{\"status\":\"shed\"}\n"));
    }
}
