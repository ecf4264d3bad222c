//! Durable-lifecycle and hardening integration tests of the HTTP edge:
//! rollback and admin snapshots over loopback, slowloris cut-off with
//! `408`, the request-body ceiling answered `413`, a panicking handler
//! answered `500`, and the client's seeded retry helper against a
//! scripted raw-TCP server.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ember_core::{GsConfig, RetryPolicy, SubstrateSpec};
use ember_http::{Client, ClientError, SampleOptions, Server, ServerConfig};
use ember_rbm::Rbm;
use ember_serve::{ModelRegistry, SamplingService};
use ember_store::{DaemonConfig, MemDir, SnapshotDaemon, SnapshotStore, Storage};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rbm(m: usize, n: usize, seed: u64) -> Rbm {
    let mut rng = StdRng::seed_from_u64(seed);
    Rbm::random(m, n, 0.3, &mut rng)
}

fn prototype(m: usize, n: usize) -> Box<dyn ember_substrate::ReplicableSubstrate> {
    let mut rng = StdRng::seed_from_u64(0xFAB);
    SubstrateSpec::software(GsConfig::default()).fabricate(m, n, &mut rng)
}

/// The tentpole over the wire: publish v1/v2, roll back to v1 through
/// `POST /v1/models/{name}/rollback`, seal a snapshot through
/// `POST /v1/admin/snapshot`, and prove the rolled-back parameters are
/// what both the serving path and the durable store now hold.
#[test]
fn rollback_and_snapshot_round_trip_over_http() {
    let (m, n) = (19, 7);
    let registry = ModelRegistry::new();
    registry.register("m", rbm(m, n, 1)).unwrap();
    registry.publish("m", rbm(m, n, 2)).unwrap();

    let service = SamplingService::builder()
        .shards(2)
        .registry(registry.clone())
        .build();
    service.provision_model("m", prototype(m, n)).unwrap();

    let store = SnapshotStore::new(MemDir::new()).unwrap();
    let daemon = SnapshotDaemon::start(store.clone(), registry, DaemonConfig::default());
    let server = Server::start_with_config(
        "127.0.0.1:0",
        service,
        ServerConfig::default().with_persistence(Arc::new(daemon)),
    )
    .unwrap();
    let client = Client::new(server.addr());

    // Roll back to v1: versions only move forward, so v1's parameters
    // come back as v3.
    let reply = client.rollback("m", 1).unwrap();
    assert_eq!(reply.rolled_back_to, 1);
    assert_eq!(reply.new_version, 3);
    let listed = &client.models().unwrap().models[0];
    assert_eq!((listed.version, listed.visible, listed.hidden), (3, m, n));

    // The serving path now samples v1's parameters: a fresh reference
    // service holding only the v1 model draws identical bits.
    let options = SampleOptions::new().samples(5).gibbs_steps(2).seed(0xBEEF);
    let rolled = client.sample_binary("m", &options).unwrap();
    assert_eq!(rolled.model_version(), 3);
    let reference = SamplingService::builder().shards(2).build();
    reference
        .register_model("m", rbm(m, n, 1), prototype(m, n))
        .unwrap();
    let ref_server = Server::start("127.0.0.1:0", reference).unwrap();
    let expected = Client::new(ref_server.addr())
        .sample_binary("m", &options)
        .unwrap();
    assert_eq!(
        rolled.to_dense(),
        expected.to_dense(),
        "post-rollback samples must be v1's bits"
    );

    // An operator-sealed snapshot captures the rolled-back state.
    let snap = client.snapshot().unwrap();
    assert_eq!(snap.models, 1);
    assert!(snap.bytes > 0 && !snap.file.is_empty());
    let (restored, _) = store.restore_latest().unwrap();
    let current = restored.get("m").unwrap();
    assert_eq!(current.version, 3);
    assert_eq!(
        *current.rbm,
        rbm(m, n, 1),
        "the store holds v1's parameters"
    );

    // A version that was never published is a typed 404.
    let err = client.rollback("m", 99).unwrap_err();
    assert_eq!(err.status(), Some(404));
    let ClientError::Http { code, .. } = err else {
        panic!("expected HTTP error");
    };
    assert_eq!(code, "version_not_found");
}

/// Without a store attached, the admin route refuses rather than 404s —
/// the operator learns persistence is off, not that the path is wrong.
#[test]
fn admin_snapshot_without_persistence_is_a_typed_503() {
    let service = SamplingService::builder().shards(1).build();
    let server = Server::start("127.0.0.1:0", service).unwrap();
    let err = Client::new(server.addr()).snapshot().unwrap_err();
    assert_eq!(err.status(), Some(503));
    let ClientError::Http { code, .. } = err else {
        panic!("expected HTTP error");
    };
    assert_eq!(code, "no_persistence");
}

/// Storage whose every write panics: a defect in a persistence backend.
struct PanickingStorage;

impl Storage for PanickingStorage {
    fn put(&self, _name: &str, _bytes: &[u8]) -> io::Result<()> {
        panic!("storage backend defect");
    }

    fn get(&self, _name: &str) -> io::Result<Vec<u8>> {
        Err(io::ErrorKind::NotFound.into())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(Vec::new())
    }

    fn delete(&self, _name: &str) -> io::Result<()> {
        Ok(())
    }
}

/// A handler that panics — here inside an attached storage backend —
/// answers `500 internal` on its own connection. The one worker of the
/// edge survives it: the next request is served, and shutdown drains.
#[test]
fn panicking_handler_is_a_500_and_a_one_worker_edge_serves_on() {
    let registry = ModelRegistry::new();
    let service = SamplingService::builder()
        .shards(1)
        .registry(registry.clone())
        .build();
    let store = SnapshotStore::new(PanickingStorage).unwrap();
    let config = DaemonConfig::default().with_on_publish(false);
    let daemon = SnapshotDaemon::start(store, registry, config);
    let server = Server::start_with_config(
        "127.0.0.1:0",
        service,
        ServerConfig::default()
            .with_workers(1)
            .with_persistence(Arc::new(daemon)),
    )
    .unwrap();
    let client = Client::new(server.addr());

    let err = client.snapshot().unwrap_err();
    assert_eq!(err.status(), Some(500));
    let ClientError::Http { code, .. } = err else {
        panic!("expected HTTP error");
    };
    assert_eq!(code, "internal");
    assert_eq!(client.health().unwrap().status, "ok");
    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.connections_drained);
}

/// A slowloris peer — connected, trickling nothing — is answered `408`
/// and disconnected instead of pinning a worker until it pleases.
#[test]
fn stalled_request_is_cut_off_with_408() {
    let service = SamplingService::builder().shards(1).build();
    let server = Server::start_with_config(
        "127.0.0.1:0",
        service,
        ServerConfig::default().with_workers(2).with_timeouts(
            Some(Duration::from_millis(50)),
            Some(Duration::from_secs(1)),
        ),
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"POST /v1/models/m/sample HTT").unwrap(); // ... and stall
    let start = Instant::now();
    let mut answer = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.read_to_string(&mut answer).unwrap();
    assert!(
        answer.starts_with("HTTP/1.1 408"),
        "stalled connection must die as 408, got {answer:?}"
    );
    assert!(answer.contains("request_timeout"));
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "the guard must fire at the configured timeout, not at the transport's mercy"
    );
}

/// A `Content-Length` above the configured ceiling is refused with
/// `413` before any body byte is buffered.
#[test]
fn oversized_body_is_refused_with_413() {
    let service = SamplingService::builder().shards(1).build();
    let server = Server::start_with_config(
        "127.0.0.1:0",
        service,
        ServerConfig::default().with_max_body(64),
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let body = vec![b'x'; 1000];
    let head = format!(
        "POST /v1/models/m/sample HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    let _ = stream.write_all(&body); // the server may hang up first
    let mut answer = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.read_to_string(&mut answer);
    assert!(
        answer.starts_with("HTTP/1.1 413"),
        "oversized declaration must die as 413, got {answer:?}"
    );
}

/// One scripted response: `(status, headers, body)`.
type ScriptedResponse = (u16, Vec<(String, String)>, String);

/// A raw scripted one-response-per-connection server: answers each
/// accepted connection with the next `(status, headers, body)` in the
/// script, then exits. The join handle yields connections served.
fn scripted_server(script: Vec<ScriptedResponse>) -> (SocketAddr, JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut served = 0;
        for (status, headers, body) in script {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut content_length = 0usize;
            let mut line = String::new();
            loop {
                line.clear();
                reader.read_line(&mut line).unwrap();
                let trimmed = line.trim_end();
                if trimmed.is_empty() {
                    break;
                }
                if let Some(raw) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = raw.trim().parse().unwrap_or(0);
                }
            }
            let mut drained = vec![0u8; content_length];
            reader.read_exact(&mut drained).unwrap();
            let mut answer = format!("HTTP/1.1 {status} Scripted\r\n");
            for (name, value) in &headers {
                answer.push_str(&format!("{name}: {value}\r\n"));
            }
            answer.push_str(&format!(
                "Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ));
            let mut stream = stream;
            stream.write_all(answer.as_bytes()).unwrap();
            served += 1;
        }
        served
    });
    (addr, handle)
}

fn error_body(code: &str) -> String {
    format!("{{\"code\": \"{code}\", \"error\": \"scripted\"}}")
}

/// `429` answers are retried on every request kind, and the server's
/// exact `X-Ember-Retry-After-Ms` hint is a lower bound on the pause.
#[test]
fn retry_honors_backpressure_hints_on_429() {
    let hint_ms = 40u64;
    let (addr, handle) = scripted_server(vec![
        (
            429,
            vec![
                ("Retry-After".into(), "1".into()),
                ("X-Ember-Retry-After-Ms".into(), hint_ms.to_string()),
            ],
            error_body("queue_full"),
        ),
        (
            200,
            vec![("Content-Type".into(), "application/json".into())],
            "{\"status\": \"ok\", \"shards\": 1}".into(),
        ),
    ]);
    let client = Client::new(addr).with_retry(
        RetryPolicy::default().with_max_retries(3).with_backoff(
            Duration::from_millis(1),
            2.0,
            Duration::from_millis(100),
        ),
        0x5EED,
    );
    let start = Instant::now();
    let health = client.health().unwrap();
    assert_eq!(health.status, "ok");
    assert!(
        start.elapsed() >= Duration::from_millis(hint_ms),
        "the server's {hint_ms} ms hint must floor the pause, got {:?}",
        start.elapsed()
    );
    assert_eq!(handle.join().unwrap(), 2, "exactly one retry");
}

/// Transient `503`s are retried on idempotent requests (reads, seeded
/// sampling) until the budget runs out.
#[test]
fn idempotent_requests_retry_transient_503s() {
    let (addr, handle) = scripted_server(vec![
        (503, vec![], error_body("shard_restarted")),
        (503, vec![], error_body("shard_restarted")),
        (
            200,
            vec![("Content-Type".into(), "application/json".into())],
            "{\"status\": \"ok\", \"shards\": 2}".into(),
        ),
    ]);
    let client = Client::new(addr).with_retry(
        RetryPolicy::default().with_max_retries(3).with_backoff(
            Duration::from_millis(1),
            2.0,
            Duration::from_millis(5),
        ),
        7,
    );
    assert_eq!(client.health().unwrap().shards, 2);
    assert_eq!(handle.join().unwrap(), 3, "two retries, then success");
}

/// Non-idempotent requests (train, rollback, snapshot) surface a `503`
/// immediately: a replay could apply the mutation twice.
#[test]
fn non_idempotent_requests_never_retry_a_503() {
    let (addr, handle) = scripted_server(vec![(503, vec![], error_body("service_closed"))]);
    let client = Client::new(addr).with_retry(RetryPolicy::default().with_max_retries(5), 7);
    let err = client.rollback("m", 1).unwrap_err();
    assert_eq!(err.status(), Some(503), "surfaced, not retried: {err}");
    assert_eq!(handle.join().unwrap(), 1, "exactly one attempt");
}

/// The token-bucket retry budget caps brownout amplification: against a
/// flapping server a client with 2 tokens and `max_retries = 10` stops
/// after two retries — the budget, not the per-call cap, bounds the
/// offered load, so the socket is hit exactly 3 times, never 11.
#[test]
fn flapping_503s_exhaust_the_retry_budget_instead_of_hammering_the_socket() {
    let script: Vec<_> = (0..3)
        .map(|_| (503, vec![], error_body("shard_restarted")))
        .collect();
    let (addr, handle) = scripted_server(script);
    let client = Client::new(addr)
        .with_retry(
            RetryPolicy::default().with_max_retries(10).with_backoff(
                Duration::from_millis(1),
                2.0,
                Duration::from_millis(5),
            ),
            11,
        )
        .retry_budget(2, 1.0);
    let err = client.health().unwrap_err();
    assert_eq!(err.status(), Some(503), "the brownout surfaces: {err}");
    assert_eq!(
        handle.join().unwrap(),
        3,
        "initial try + 2 budgeted retries, despite max_retries = 10"
    );
}

/// The retry budget is finite: a server that never relents exhausts
/// `max_retries` and the last error surfaces.
#[test]
fn retry_budget_exhausts_against_a_stuck_server() {
    let script: Vec<_> = (0..3)
        .map(|_| {
            (
                429,
                vec![("X-Ember-Retry-After-Ms".to_string(), "1".to_string())],
                error_body("queue_full"),
            )
        })
        .collect();
    let (addr, handle) = scripted_server(script);
    let client = Client::new(addr).with_retry(
        RetryPolicy::default().with_max_retries(2).with_backoff(
            Duration::from_millis(1),
            2.0,
            Duration::from_millis(5),
        ),
        1,
    );
    let err = client.models().unwrap_err();
    assert_eq!(err.status(), Some(429));
    assert_eq!(handle.join().unwrap(), 3, "initial try + 2 retries");
}
