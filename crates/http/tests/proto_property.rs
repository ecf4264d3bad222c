//! Property-based tests of HTTP/1.1 request framing: a request parses
//! the same however the transport splits its bytes, a message the peer
//! cuts short is never taken for a request, and no byte sequence
//! panics the parser.

use std::io::{self, BufReader, Read};

use ember_http::proto::{read_request, ParseError, ReadOutcome};
use proptest::prelude::*;

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
