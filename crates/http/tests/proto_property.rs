//! Property-based tests of HTTP/1.1 framing: a request parses the same
//! however the transport splits its bytes, and behind one empty line; a
//! message the peer cuts short is never taken for a request; a head
//! over the parser's limits, or with a bad `Content-Length`, gets a
//! typed refusal; no byte sequence panics the parser; and a response
//! written by `write_to` reads back equal.

use std::io::{self, BufReader, Read};

use ember_http::proto::{
    read_request, read_response, ParseError, ReadOutcome, Response, MAX_HEADERS, MAX_LINE,
};
use proptest::prelude::*;
use proptest::sample::Index;

/// A `Read` that hands out at most `chunk` bytes per call, as a socket
/// may.
struct Trickle<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Parses `bytes` delivered at most `chunk` bytes per read, behind a
/// `capacity`-byte read buffer.
fn parse(bytes: &[u8], chunk: usize, capacity: usize) -> ReadOutcome {
    let mut reader = BufReader::with_capacity(capacity, Trickle { bytes, chunk });
    read_request(&mut reader).expect("in-memory reads never fail")
}

/// A string of 1–`max` characters drawn from `alphabet`.
fn word(alphabet: &'static [u8], max: usize) -> impl Strategy<Value = String> {
    collection::vec(0..alphabet.len(), 1..=max)
        .prop_map(move |ix| ix.into_iter().map(|i| char::from(alphabet[i])).collect())
}

const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/_-.";
/// Visible ASCII without the digits.
const NOT_DIGIT: &[u8] =
    b"!\"#$%&'()*+,-./:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";
const TOKEN: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
/// Visible ASCII: header values carry no surrounding whitespace, which
/// the parser trims.
const VISIBLE: &[u8] = b"!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// A well-formed request: its path, its headers (the last one the
/// `Content-Length` of its body) and the bytes on the wire.
#[derive(Debug)]
struct Wire {
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    bytes: Vec<u8>,
}

fn wire() -> impl Strategy<Value = Wire> {
    (
        word(PATH, 24),
        collection::vec((word(TOKEN, 12), word(VISIBLE, 20)), 0..=5),
        collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(path, headers, body)| {
            let path = format!("/{path}");
            // An `X-` prefix keeps random names off the framing headers.
            let mut headers: Vec<(String, String)> = headers
                .into_iter()
                .map(|(name, value)| (format!("X-{name}"), value))
                .collect();
            headers.push(("Content-Length".into(), body.len().to_string()));
            let mut bytes = format!("POST {path} HTTP/1.1\r\n").into_bytes();
            for (name, value) in &headers {
                bytes.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
            }
            bytes.extend_from_slice(b"\r\n");
            bytes.extend_from_slice(&body);
            Wire {
                path,
                headers,
                body,
                bytes,
            }
        })
}

/// `wire`'s request line and header lines, without their line ends.
fn head_lines(wire: &Wire) -> Vec<String> {
    std::iter::once(format!("POST {} HTTP/1.1", wire.path))
        .chain(
            wire.headers
                .iter()
                .map(|(name, value)| format!("{name}: {value}")),
        )
        .collect()
}

/// The bytes of a request with head `lines` and `body`.
fn request(lines: &[String], body: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.extend_from_slice(b"\r\n");
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(body);
    bytes
}

/// A response with a status, 0–8 headers and a 0–4 KiB body.
fn response() -> impl Strategy<Value = Response> {
    (
        100u16..=599,
        collection::vec((word(TOKEN, 12), word(VISIBLE, 20)), 0..=8),
        collection::vec(any::<u8>(), 0..=4096),
    )
        .prop_map(|(status, headers, body)| {
            let mut response = Response::new(status);
            for (name, value) in headers {
                response = response.with_header(format!("X-{name}"), value);
            }
            response.body = body;
            response
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A well-formed request parses to its path, headers and body,
    /// read whole or split at any read size behind any buffer size.
    #[test]
    fn split_reads_parse_like_a_whole_read(
        wire in wire(),
        chunk in 1usize..=16,
        capacity in 1usize..=32,
    ) {
        let whole = parse(&wire.bytes, wire.bytes.len(), 8 * 1024);
        let split = parse(&wire.bytes, chunk, capacity);
        for outcome in [whole, split] {
            let ReadOutcome::Request(req) = outcome else {
                panic!("{wire:?} did not parse: {outcome:?}");
            };
            prop_assert_eq!(&req.method, "POST");
            prop_assert_eq!(&req.path, &wire.path);
            prop_assert_eq!(&req.headers, &wire.headers);
            prop_assert_eq!(&req.body, &wire.body);
        }
    }

    /// No strict prefix of a request is a request: a peer that closes
    /// mid-head (or mid-body) gets its fragment refused as malformed,
    /// and one that closes before its first byte reads as closed.
    #[test]
    fn a_message_cut_short_is_never_a_request(wire in wire(), chunk in 1usize..=16) {
        for cut in 0..wire.bytes.len() {
            let outcome = parse(&wire.bytes[..cut], chunk, 8);
            if cut == 0 {
                prop_assert!(matches!(outcome, ReadOutcome::Closed), "{outcome:?}");
            } else {
                prop_assert!(
                    matches!(outcome, ReadOutcome::Invalid(ParseError::Malformed(_))),
                    "cut at {cut} of {}: {outcome:?}",
                    wire.bytes.len()
                );
            }
        }
    }

    /// One empty line before the request line is ignored (RFC 9112
    /// §2.2): the request parses as it does without it.
    #[test]
    fn a_leading_empty_line_is_ignored(
        wire in wire(),
        chunk in 1usize..=16,
        capacity in 1usize..=32,
    ) {
        let bytes = [b"\r\n".as_slice(), &wire.bytes].concat();
        let ReadOutcome::Request(req) = parse(&bytes, chunk, capacity) else {
            panic!("{wire:?} behind an empty line did not parse");
        };
        prop_assert_eq!(&req.method, "POST");
        prop_assert_eq!(&req.path, &wire.path);
        prop_assert_eq!(&req.headers, &wire.headers);
        prop_assert_eq!(&req.body, &wire.body);
    }

    /// A request line or header line longer than `MAX_LINE` is refused
    /// as too large, however the reads split it.
    #[test]
    fn an_overlong_line_is_too_large(
        wire in wire(),
        at in any::<Index>(),
        over in 1usize..=64,
        chunk in 1usize..=64,
        capacity in 1usize..=64,
    ) {
        let mut lines = head_lines(&wire);
        let i = at.index(lines.len());
        let pad = "a".repeat(MAX_LINE + over - lines[i].len());
        if i == 0 {
            lines[0] = format!("POST {}{pad} HTTP/1.1", wire.path);
        } else {
            lines[i].push_str(&pad);
        }
        let outcome = parse(&request(&lines, &wire.body), chunk, capacity);
        prop_assert!(
            matches!(outcome, ReadOutcome::Invalid(ParseError::TooLarge(_))),
            "line {i} over by {over}: {outcome:?}"
        );
    }

    /// More than `MAX_HEADERS` headers, wherever the extra ones sit, are
    /// refused as too large, however the reads split them.
    #[test]
    fn too_many_headers_are_too_large(
        wire in wire(),
        extra in 1usize..=8,
        at in any::<Index>(),
        chunk in 1usize..=64,
        capacity in 1usize..=64,
    ) {
        let mut lines = head_lines(&wire);
        let pads = MAX_HEADERS + extra - wire.headers.len();
        let i = 1 + at.index(lines.len());
        lines.splice(i..i, (0..pads).map(|k| format!("X-Pad-{k}: {k}")));
        let outcome = parse(&request(&lines, &wire.body), chunk, capacity);
        prop_assert!(
            matches!(outcome, ReadOutcome::Invalid(ParseError::TooLarge(_))),
            "{} headers: {outcome:?}",
            MAX_HEADERS + extra
        );
    }

    /// A `Content-Length` that is not a `usize` in plain digits (junk
    /// among the digits, a sign, more digits than `usize` holds), or one
    /// that disagrees with another, is refused as malformed, however
    /// the reads split it.
    #[test]
    fn a_bad_content_length_is_malformed(
        wire in wire(),
        kind in 0usize..4,
        junk in word(NOT_DIGIT, 4),
        at in any::<Index>(),
        chunk in 1usize..=64,
        capacity in 1usize..=64,
    ) {
        let len = wire.body.len();
        let mut lines = head_lines(&wire);
        // `wire()` puts the `Content-Length` line last.
        let last = lines.len() - 1;
        match kind {
            0 => {
                let mut value = len.to_string();
                value.insert_str(at.index(value.len() + 1), &junk);
                lines[last] = format!("Content-Length: {value}");
            }
            1 => {
                let sign = if at.index(2) == 0 { '+' } else { '-' };
                lines[last] = format!("Content-Length: {sign}{len}");
            }
            2 => lines[last] = format!("Content-Length: {}{len}", "9".repeat(20)),
            _ => {
                let i = 1 + at.index(lines.len());
                let other = len + 1 + at.index(1000);
                lines.insert(i, format!("Content-Length: {other}"));
            }
        }
        let outcome = parse(&request(&lines, &wire.body), chunk, capacity);
        prop_assert!(
            matches!(outcome, ReadOutcome::Invalid(ParseError::Malformed(_))),
            "{lines:?}: {outcome:?}"
        );
    }

    /// A response written by `write_to` reads back equal however the
    /// reads split it: its status, its headers followed by the
    /// `Content-Length` and `Connection` lines `write_to` adds, and its
    /// body.
    #[test]
    fn a_written_response_reads_back_equal(
        response in response(),
        chunk in 1usize..=64,
        capacity in 1usize..=64,
    ) {
        let mut bytes = Vec::new();
        response.write_to(&mut bytes).unwrap();
        let mut reader = BufReader::with_capacity(capacity, Trickle { bytes: &bytes, chunk });
        let back = read_response(&mut reader).unwrap();
        let mut headers = response.headers.clone();
        headers.push(("Content-Length".into(), response.body.len().to_string()));
        headers.push(("Connection".into(), "close".into()));
        prop_assert_eq!(back.status, response.status);
        prop_assert_eq!(&back.headers, &headers);
        prop_assert_eq!(&back.body, &response.body);
    }

    /// Arbitrary bytes at arbitrary read sizes never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in collection::vec(any::<u8>(), 0..=300),
        chunk in 1usize..=16,
        capacity in 1usize..=32,
    ) {
        let _ = parse(&bytes, chunk, capacity);
    }
}
