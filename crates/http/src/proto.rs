//! Minimal HTTP/1.1 message plumbing shared by the server and the
//! blocking client: request/response parsing and writing over any
//! `Read`/`Write` pair.
//!
//! Every message is written as one buffer: its head and body are framed
//! into one `Vec<u8>` that goes to the writer in one `write_all`. Both
//! ends set `TCP_NODELAY`, so a message written piece by piece would
//! leave as one syscall and one segment per piece (30 for a binary
//! sample answer); framed whole, it leaves in one when it fits.
//!
//! Scope is deliberately narrow — exactly what the edge needs:
//! request-line + headers + `Content-Length`-framed bodies, one
//! request per connection (every response carries `Connection: close`).
//! Chunked transfer encoding is answered with `501 Not Implemented`
//! rather than silently mis-framed. Limits guard the parser: 16 KiB
//! per line, 100 headers, 256 MiB bodies.

use std::io::{self, BufRead, Write};

/// Maximum accepted request-line / header-line length in bytes.
pub const MAX_LINE: usize = 16 * 1024;
/// Maximum accepted header count.
pub const MAX_HEADERS: usize = 100;
/// Maximum accepted `Content-Length`.
pub const MAX_BODY: usize = 256 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, uppercase as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query), as received.
    pub path: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name`, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }
}

/// A parsed (client side) or assembled (server side) HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Adds a header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Sets the body and its `Content-Type` (builder style).
    #[must_use]
    pub fn with_body(mut self, content_type: &str, body: Vec<u8>) -> Self {
        self.headers
            .push(("Content-Type".into(), content_type.into()));
        self.body = body;
        self
    }

    /// First value of `name`, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Serializes the response (status line, headers, `Content-Length`,
    /// `Connection: close`, body) into one buffer, hands it to `w` in
    /// one `write_all` and flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut message = Vec::with_capacity(HEAD_RESERVE + self.body.len());
        write!(
            message,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            status_reason(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(message, "{name}: {value}\r\n")?;
        }
        write!(
            message,
            "Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.body.len()
        )?;
        message.extend_from_slice(&self.body);
        w.write_all(&message)?;
        w.flush()
    }
}

/// Serializes one request (request line, `Host`, `headers`, the optional
/// `Content-Type`, `Content-Length`, body) into one buffer, hands it to
/// `w` in one `write_all` and flushes.
pub(crate) fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    path: &str,
    host: impl std::fmt::Display,
    headers: &[(String, String)],
    content_type: Option<&str>,
    body: &[u8],
) -> io::Result<()> {
    let mut message = Vec::with_capacity(HEAD_RESERVE + body.len());
    write!(message, "{method} {path} HTTP/1.1\r\nHost: {host}\r\n")?;
    for (name, value) in headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    if let Some(ct) = content_type {
        write!(message, "Content-Type: {ct}\r\n")?;
    }
    write!(message, "Content-Length: {}\r\n\r\n", body.len())?;
    message.extend_from_slice(body);
    w.write_all(&message)?;
    w.flush()
}

/// Bytes reserved for a message's head on top of its body. The heads
/// the edge and its client write stay under 300 bytes, so framing one
/// of their messages allocates once; a longer head frames the same, at
/// the cost of a reallocation.
const HEAD_RESERVE: usize = 512;

fn header_lookup<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Standard reason phrase for the status codes the edge emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Protocol-level parse failures, mapped by the server onto a 4xx/5xx
/// answer before the connection closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request/status line or a header line is malformed.
    Malformed(String),
    /// A line exceeded [`MAX_LINE`] or more than [`MAX_HEADERS`] headers
    /// arrived.
    TooLarge(String),
    /// A body was framed with `Transfer-Encoding` (unsupported) instead
    /// of `Content-Length`.
    UnsupportedFraming,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(what) => write!(f, "malformed HTTP message: {what}"),
            ParseError::TooLarge(what) => write!(f, "HTTP message exceeds limits: {what}"),
            ParseError::UnsupportedFraming => {
                write!(
                    f,
                    "Transfer-Encoding framing is not supported; use Content-Length"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// The outcome of reading one request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection before sending anything but one
    /// empty line.
    Closed,
    /// The bytes on the wire are not a valid request.
    Invalid(ParseError),
}

/// Reads one CRLF- (or bare-LF-) terminated line, bounded by
/// [`MAX_LINE`]. `None` when the stream ends before the line's first
/// byte; a line the stream ends part-way through is malformed, so a
/// peer that dies mid-message never has its fragment taken as a line.
fn read_line<R: BufRead>(r: &mut R) -> io::Result<Result<Option<String>, ParseError>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        if r.read(&mut byte)? == 0 {
            if line.is_empty() {
                return Ok(Ok(None));
            }
            return Ok(Err(ParseError::Malformed(
                "connection closed mid-line".into(),
            )));
        }
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE {
            return Ok(Err(ParseError::TooLarge(format!(
                "line exceeds {MAX_LINE} bytes"
            ))));
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(s) => Ok(Ok(Some(s))),
        Err(_) => Ok(Err(ParseError::Malformed("non-UTF-8 header line".into()))),
    }
}

/// Parses `Name: value` header lines until the blank separator line.
fn read_headers<R: BufRead>(r: &mut R) -> io::Result<Result<Vec<(String, String)>, ParseError>> {
    let mut headers = Vec::new();
    loop {
        let line = match read_line(r)? {
            Ok(Some(line)) => line,
            Ok(None) => {
                return Ok(Err(ParseError::Malformed(
                    "connection closed before the end of the head".into(),
                )))
            }
            Err(e) => return Ok(Err(e)),
        };
        if line.is_empty() {
            return Ok(Ok(headers));
        }
        if headers.len() >= MAX_HEADERS {
            return Ok(Err(ParseError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            ))));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(Err(ParseError::Malformed(format!(
                "header line without `:`: {line:?}"
            ))));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
}

/// Reads the `Content-Length`-framed body described by `headers`,
/// rejecting declared lengths above `max_body` **before** allocating.
fn read_body<R: BufRead>(
    r: &mut R,
    headers: &[(String, String)],
    max_body: usize,
) -> io::Result<Result<Vec<u8>, ParseError>> {
    if header_lookup(headers, "Transfer-Encoding").is_some() {
        return Ok(Err(ParseError::UnsupportedFraming));
    }
    // RFC 9112 §6.3: a length that is not all digits (`parse` would also
    // take a sign), or repeated lengths that disagree, is invalid framing.
    let mut declared = None;
    for (name, raw) in headers {
        if !name.eq_ignore_ascii_case("Content-Length") {
            continue;
        }
        let raw = raw.trim();
        let len = raw
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| raw.parse::<usize>().ok())
            .flatten();
        match (len, declared) {
            (None, _) => {
                return Ok(Err(ParseError::Malformed(format!(
                    "unparseable Content-Length {raw:?}"
                ))))
            }
            (Some(len), Some(first)) if len != first => {
                return Ok(Err(ParseError::Malformed(format!(
                    "conflicting Content-Length {first} and {len}"
                ))))
            }
            (Some(len), _) => declared = Some(len),
        }
    }
    let len = match declared {
        None => return Ok(Ok(Vec::new())),
        Some(len) if len <= max_body => len,
        Some(_) => {
            return Ok(Err(ParseError::TooLarge(format!(
                "Content-Length exceeds {max_body} bytes"
            ))))
        }
    };
    let mut body = vec![0u8; len];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(Ok(body)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(Err(ParseError::Malformed(
            "connection closed mid-body".into(),
        ))),
        Err(e) => Err(e),
    }
}

/// Reads one request off `r` with the default [`MAX_BODY`] limit.
///
/// # Errors
///
/// Only genuine transport errors surface as `io::Error`; protocol
/// violations come back as [`ReadOutcome::Invalid`] so the server can
/// answer them with a status code.
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<ReadOutcome> {
    read_request_limited(r, MAX_BODY)
}

/// [`read_request`] with an explicit body-size ceiling (the server's
/// configurable request-body limit; oversized declarations come back as
/// [`ParseError::TooLarge`] without buffering a byte of the body).
///
/// # Errors
///
/// As [`read_request`].
pub fn read_request_limited<R: BufRead>(r: &mut R, max_body: usize) -> io::Result<ReadOutcome> {
    let mut line = read_line(r)?;
    // RFC 9112 §2.2: a server SHOULD ignore at least one empty line
    // received before the request line.
    if matches!(&line, Ok(Some(empty)) if empty.is_empty()) {
        line = read_line(r)?;
    }
    let line = match line {
        Ok(Some(line)) if !line.is_empty() => line,
        Ok(_) => return Ok(ReadOutcome::Closed),
        Err(e) => return Ok(ReadOutcome::Invalid(e)),
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Invalid(ParseError::Malformed(format!(
            "bad request line {line:?}"
        ))));
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Invalid(ParseError::Malformed(format!(
            "unsupported protocol {version:?}"
        ))));
    }
    let headers = match read_headers(r)? {
        Ok(h) => h,
        Err(e) => return Ok(ReadOutcome::Invalid(e)),
    };
    let body = match read_body(r, &headers, max_body)? {
        Ok(b) => b,
        Err(e) => return Ok(ReadOutcome::Invalid(e)),
    };
    Ok(ReadOutcome::Request(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    }))
}

/// Reads one response off `r` (the client side).
///
/// # Errors
///
/// `io::Error` on transport failure; `ParseError` (wrapped in
/// `io::Error::InvalidData`) on a malformed status line or headers.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let invalid = |e: ParseError| io::Error::new(io::ErrorKind::InvalidData, e);
    let line = read_line(r)?.map_err(invalid)?.unwrap_or_default();
    let mut parts = line.split_whitespace();
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(invalid(ParseError::Malformed(format!(
            "bad status line {line:?}"
        ))));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(ParseError::Malformed(format!(
            "unsupported protocol {version:?}"
        ))));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| invalid(ParseError::Malformed(format!("bad status code {code:?}"))))?;
    let headers = read_headers(r)?.map_err(invalid)?;
    let body = match header_lookup(&headers, "Content-Length") {
        Some(_) => read_body(r, &headers, MAX_BODY)?.map_err(invalid)?,
        None => {
            // No explicit framing: the peer closes the connection at the
            // end of the body (we always send Connection: close).
            let mut body = Vec::new();
            r.read_to_end(&mut body)?;
            body
        }
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::BufReader;

    /// A `Write` that counts its `write` calls: on a socket, each call
    /// is one syscall and, with `TCP_NODELAY`, at least one segment.
    #[derive(Default)]
    pub(crate) struct Counting {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn parse(raw: &[u8]) -> ReadOutcome {
        read_request(&mut BufReader::new(raw)).unwrap()
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        let resp = Response::new(200)
            .with_body("application/x-ember-bits", b"bits".to_vec())
            .with_header("X-Ember-Shard", "0");
        let mut w = Counting::default();
        resp.write_to(&mut w).unwrap();
        assert_eq!(w.writes, 1);
        let wire = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ember-bits\r\n\
                    X-Ember-Shard: 0\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbits";
        assert_eq!(w.bytes, wire.as_bytes());
    }

    #[test]
    fn a_request_with_a_body_leaves_in_one_write() {
        let headers = [("Accept".to_string(), "application/x-ember-bits".to_string())];
        let mut w = Counting::default();
        let (path, host) = ("/v1/models/m/sample", "127.0.0.1:40000");
        write_request(
            &mut w,
            "POST",
            path,
            host,
            &headers,
            Some("application/json"),
            b"{}",
        )
        .unwrap();
        assert_eq!(w.writes, 1);
        let wire = "POST /v1/models/m/sample HTTP/1.1\r\nHost: 127.0.0.1:40000\r\n\
                    Accept: application/x-ember-bits\r\nContent-Type: application/json\r\n\
                    Content-Length: 2\r\n\r\n{}";
        assert_eq!(w.bytes, wire.as_bytes());
    }

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /v1/models/m/sample HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let ReadOutcome::Request(req) = parse(raw) else {
            panic!("expected request");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/models/m/sample");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn empty_connection_is_closed_not_invalid() {
        assert!(matches!(parse(b""), ReadOutcome::Closed));
    }

    #[test]
    fn one_empty_line_before_the_request_line_is_ignored() {
        let ReadOutcome::Request(req) = parse(b"\r\nGET /healthz HTTP/1.1\r\n\r\n") else {
            panic!("expected request");
        };
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/healthz")
        );
        // A peer that closes right after the empty line sent no request.
        assert!(matches!(parse(b"\r\n"), ReadOutcome::Closed));
        assert!(matches!(parse(b"\n"), ReadOutcome::Closed));
    }

    #[test]
    fn rejects_chunked_and_oversized() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(
            parse(raw),
            ReadOutcome::Invalid(ParseError::UnsupportedFraming)
        ));
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(raw.as_bytes()),
            ReadOutcome::Invalid(ParseError::TooLarge(_))
        ));
    }

    #[test]
    fn explicit_body_limit_rejects_before_buffering() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let outcome = read_request_limited(&mut BufReader::new(raw.as_slice()), 4).unwrap();
        assert!(matches!(
            outcome,
            ReadOutcome::Invalid(ParseError::TooLarge(_))
        ));
        let outcome = read_request_limited(&mut BufReader::new(raw.as_slice()), 5).unwrap();
        assert!(matches!(outcome, ReadOutcome::Request(req) if req.body == b"hello"));
    }

    #[test]
    fn signed_or_conflicting_content_lengths_are_malformed() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd";
        assert!(matches!(
            parse(raw),
            ReadOutcome::Invalid(ParseError::Malformed(_))
        ));
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(matches!(
            parse(raw),
            ReadOutcome::Invalid(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn agreeing_duplicate_content_lengths_frame_the_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd";
        let ReadOutcome::Request(req) = parse(raw) else {
            panic!("expected request");
        };
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::new(429)
            .with_header("Retry-After", "2")
            .with_body("application/json", b"{}".to_vec());
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let back = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(back.status, 429);
        assert_eq!(back.header("retry-after"), Some("2"));
        assert_eq!(back.body, b"{}");
    }

    #[test]
    fn a_response_head_cut_short_is_invalid_data() {
        for raw in [
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json".as_slice(),
            b"HTTP/1.1 200 OK\r\n",
        ] {
            let err = read_response(&mut BufReader::new(raw)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
