//! Loopback integration tests of the HTTP edge — the issue's
//! acceptance bars, each pinned:
//!
//! * HTTP-served samples bit-identical to in-process
//!   `SamplingService::sample` for the same seed, at 1/2/8 shards;
//! * binary wire ≥ 50× smaller than the served JSON encoding at 784
//!   visible units;
//! * `429` carries `Retry-After`;
//! * shutdown drains in-flight HTTP requests;
//! * a train knob the trainer would reject is a `400`, not a dead worker.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ember_core::{GsConfig, SubstrateSpec};
use ember_http::{Client, ClientError, SampleOptions, Server};
use ember_rbm::Rbm;
use ember_serve::{SampleRequest, SamplingService};
use ndarray::Array1;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic model + prototype pair: every call with the same
/// `fab_seed` realizes the identical fabricated machine, so a service
/// behind HTTP and a reference service in-process sample the same bits.
fn fixture(
    m: usize,
    n: usize,
    fab_seed: u64,
) -> (Rbm, Box<dyn ember_substrate::ReplicableSubstrate>) {
    let mut rng = StdRng::seed_from_u64(fab_seed);
    let rbm = Rbm::random(m, n, 0.4, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate(m, n, &mut rng);
    (rbm, proto)
}

fn service_at(shards: usize, fab_seed: u64, m: usize, n: usize) -> SamplingService {
    let (rbm, proto) = fixture(m, n, fab_seed);
    let service = SamplingService::builder().shards(shards).build();
    service.register_model("m", rbm, proto).unwrap();
    service
}

#[test]
fn http_sampling_is_bit_identical_to_in_process_at_1_2_8_shards() {
    let (m, n) = (23, 9);
    let clamp: Vec<f64> = (0..m).map(|i| f64::from(i % 3 == 0)).collect();
    for &shards in &[1usize, 2, 8] {
        // Reference: the in-process path on an identically fabricated
        // service.
        let reference = service_at(shards, 0xFAB, m, n);
        let expected = reference
            .sample(
                SampleRequest::new("m")
                    .with_samples(6)
                    .with_gibbs_steps(3)
                    .with_clamp(Array1::from_vec(clamp.clone()))
                    .with_seed(0xBEEF),
            )
            .unwrap();

        // Same request over loopback HTTP, both encodings.
        let server = Server::start("127.0.0.1:0", service_at(shards, 0xFAB, m, n)).unwrap();
        let client = Client::new(server.addr());
        let options = SampleOptions::new()
            .samples(6)
            .gibbs_steps(3)
            .clamp(clamp.clone())
            .seed(0xBEEF);

        let binary = client.sample_binary("m", &options).unwrap();
        assert_eq!(
            binary.to_dense(),
            expected.samples,
            "binary wire differs from in-process at {shards} shard(s)"
        );
        assert_eq!(binary.model_version(), expected.model_version);
        assert!(!binary.degraded());

        let json = client.sample_json("m", &options).unwrap();
        let json_dense = ndarray::Array2::from_shape_vec(
            (json.reply.samples.len(), m),
            json.reply.samples.iter().flatten().copied().collect(),
        )
        .unwrap();
        assert_eq!(
            json_dense, expected.samples,
            "JSON encoding differs from in-process at {shards} shard(s)"
        );
        server.shutdown(Duration::from_secs(10));
    }
}

#[test]
fn binary_clamp_upload_matches_json_clamp() {
    let (m, n) = (65, 7); // clamp straddles a word boundary
    let clamp: Vec<f64> = (0..m).map(|i| f64::from(i % 2 == 0)).collect();
    let server = Server::start("127.0.0.1:0", service_at(2, 5, m, n)).unwrap();
    let client = Client::new(server.addr());
    let base = SampleOptions::new()
        .samples(3)
        .gibbs_steps(2)
        .clamp(clamp)
        .seed(77);
    let via_json_clamp = client.sample_binary("m", &base).unwrap();
    let via_binary_clamp = client
        .sample_binary("m", &base.clone().binary_clamp(true))
        .unwrap();
    assert_eq!(
        via_binary_clamp.to_dense(),
        via_json_clamp.to_dense(),
        "the clamp's encoding must be invisible in the sampled bits"
    );
    server.shutdown(Duration::from_secs(10));
}

#[test]
fn binary_wire_is_50x_smaller_than_json_at_784_cols() {
    // The issue's headline economics: at MNIST width the bit-packed
    // wire (24-byte header + 98 payload bytes/row) must beat the served
    // JSON encoding by ≥ 50×. The JSON fallback is pretty-printed by
    // design — it is the human/debug encoding; this test measures the
    // bytes each encoding actually puts on the wire.
    let (m, n) = (784, 16);
    let server = Server::start("127.0.0.1:0", service_at(2, 9, m, n)).unwrap();
    let client = Client::new(server.addr());
    let options = SampleOptions::new().samples(4).seed(1);

    let binary = client.sample_binary("m", &options).unwrap();
    let json = client.sample_json("m", &options).unwrap();
    assert_eq!(binary.samples.header.cols, 784);
    assert_eq!(binary.body_bytes, 24 + 4 * (784usize.div_ceil(64)) * 8);
    let ratio = json.body_bytes as f64 / binary.body_bytes as f64;
    assert!(
        ratio >= 50.0,
        "binary must be ≥50x smaller: json {} / binary {} = {ratio:.1}x",
        json.body_bytes,
        binary.body_bytes
    );
    server.shutdown(Duration::from_secs(10));
}

#[test]
fn queue_full_is_429_with_honored_retry_after() {
    // One shard pinned by a slow request + a 2-row queue: flooding over
    // HTTP must surface at least one 429, carrying both Retry-After
    // forms.
    let (rbm, proto) = fixture(64, 32, 11);
    let service = SamplingService::builder().shards(1).queue_rows(2).build();
    service.register_model("m", rbm, proto).unwrap();
    let server = Server::start_with_workers("127.0.0.1:0", service, 16).unwrap();
    let client = Client::new(server.addr());

    // Pin the shard from a background thread (400 Gibbs steps on a
    // 64x32 model holds it for a while).
    let slow_client = client.clone();
    let slow = std::thread::spawn(move || {
        slow_client.sample_binary("m", &SampleOptions::new().gibbs_steps(400).seed(0))
    });
    // Give the pin time to reach the shard, then flood concurrently:
    // 10 more slow requests against a 2-row queue must surface 429s.
    std::thread::sleep(Duration::from_millis(50));
    let floods: Vec<_> = (0..10)
        .map(|i| {
            let c = client.clone();
            std::thread::spawn(move || {
                c.sample_binary("m", &SampleOptions::new().gibbs_steps(400).seed(1 + i))
            })
        })
        .collect();
    let mut rejection = None;
    for flood in floods {
        match flood.join().unwrap() {
            Ok(_) => {}
            Err(e @ ClientError::Http { status: 429, .. }) => rejection = Some(e),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let rejection = rejection.expect("a 2-row queue must fill under a pinned shard");
    let retry_after = rejection.retry_after().expect("429 must carry Retry-After");
    assert!(
        retry_after >= Duration::from_micros(100),
        "retry hint must be a usable pause, got {retry_after:?}"
    );
    match &rejection {
        ClientError::Http { code, .. } => assert_eq!(code, "queue_full"),
        other => panic!("unexpected error shape: {other}"),
    }

    // Honor the hint, then retry until the backlog drains: the retried
    // request must eventually succeed.
    std::thread::sleep(retry_after);
    let mut retried = None;
    for _ in 0..100 {
        match client.sample_binary("m", &SampleOptions::new().gibbs_steps(1).seed(999)) {
            Ok(ok) => {
                retried = Some(ok);
                break;
            }
            Err(ClientError::Http { status: 429, .. }) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        retried.is_some(),
        "honored Retry-After must eventually serve"
    );
    slow.join().unwrap().unwrap();
    server.shutdown(Duration::from_secs(30));
}

#[test]
fn shutdown_drains_in_flight_http_requests() {
    let server = Server::start("127.0.0.1:0", service_at(2, 13, 64, 32)).unwrap();
    let client = Client::new(server.addr());

    // A request slow enough to still be executing when shutdown begins.
    let slow_client = client.clone();
    let slow = std::thread::spawn(move || {
        slow_client.sample_binary("m", &SampleOptions::new().gibbs_steps(300).seed(3))
    });
    // Give the request time to reach the shard.
    std::thread::sleep(Duration::from_millis(50));

    let report = server.shutdown(Duration::from_secs(60));
    assert!(
        report.connections_drained,
        "in-flight HTTP connections must finish within the deadline"
    );
    assert!(report.service.drained, "service queue must drain");
    assert_eq!(report.service.aborted_requests, 0);

    // The in-flight request got its real answer, not a slammed socket.
    let response = slow.join().unwrap().expect("drained request completes");
    assert_eq!(response.samples.header.rows, 1);

    // The edge is gone: connecting now fails.
    assert!(std::net::TcpStream::connect(client.addr()).is_err());
}

#[test]
fn deadline_header_maps_to_504() {
    // A 0 ms budget expires before any shard can pick the request up.
    let server = Server::start("127.0.0.1:0", service_at(1, 17, 32, 8)).unwrap();
    let client = Client::new(server.addr());
    let err = client
        .sample_binary(
            "m",
            &SampleOptions::new()
                .gibbs_steps(50)
                .seed(1)
                .timeout(Duration::from_millis(0)),
        )
        .unwrap_err();
    match err {
        ClientError::Http { status, code, .. } => {
            assert_eq!(status, 504);
            assert_eq!(code, "deadline_exceeded");
        }
        other => panic!("unexpected error: {other}"),
    }
    server.shutdown(Duration::from_secs(10));
}

#[test]
fn error_taxonomy_maps_to_status_codes() {
    let server = Server::start("127.0.0.1:0", service_at(1, 19, 12, 4)).unwrap();
    let client = Client::new(server.addr());

    // Unknown model → 404.
    let err = client
        .sample_binary("ghost", &SampleOptions::new())
        .unwrap_err();
    assert_eq!(err.status(), Some(404));

    // Invalid request (wrong clamp width) → 400.
    let err = client
        .sample_binary("m", &SampleOptions::new().clamp(vec![1.0; 5]))
        .unwrap_err();
    assert_eq!(err.status(), Some(400));

    // Unknown route → 404; bad JSON → 400.
    let health = client.health().unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(health.shards, 1);

    let models = client.models().unwrap();
    assert_eq!(models.models.len(), 1);
    assert_eq!(models.models[0].name, "m");
    assert_eq!(models.models[0].visible, 12);
    assert_eq!(models.models[0].hidden, 4);
    assert_eq!(models.models[0].version, 1);

    server.shutdown(Duration::from_secs(10));
}

#[test]
fn priority_header_rides_the_wire_without_touching_the_bits() {
    let (m, n) = (23, 9);
    let server = Server::start("127.0.0.1:0", service_at(1, 29, m, n)).unwrap();
    let client = Client::new(server.addr());

    // The same seeded request at both priorities: `X-Ember-Priority`
    // may reorder scheduling but must be invisible in the sampled bits.
    let base = SampleOptions::new().samples(4).gibbs_steps(3).seed(0xABCD);
    let interactive = client
        .sample_binary(
            "m",
            &base.clone().priority(ember_serve::Priority::Interactive),
        )
        .unwrap();
    let bulk = client
        .sample_binary("m", &base.clone().priority(ember_serve::Priority::Bulk))
        .unwrap();
    let unlabeled = client.sample_binary("m", &base).unwrap();
    assert_eq!(interactive.to_dense(), bulk.to_dense());
    assert_eq!(interactive.to_dense(), unlabeled.to_dense());

    server.shutdown(Duration::from_secs(10));
}

#[test]
fn admission_rejection_maps_to_429_overloaded_with_hints() {
    // Before any row is served the admission estimate is 1 ms/row: 64
    // rows against a 5 ms deadline are provably late, refused at
    // enqueue, and surface as `429 overloaded` with both Retry-After
    // forms — distinct from 504, which stays reserved for deadlines
    // that expire while queued.
    let server = Server::start("127.0.0.1:0", service_at(1, 31, 32, 8)).unwrap();
    let client = Client::new(server.addr());
    let err = client
        .sample_binary(
            "m",
            &SampleOptions::new()
                .samples(64)
                .gibbs_steps(1)
                .seed(1)
                .timeout(Duration::from_millis(5)),
        )
        .unwrap_err();
    match &err {
        ClientError::Http { status, code, .. } => {
            assert_eq!(*status, 429);
            assert_eq!(code, "overloaded");
        }
        other => panic!("unexpected error: {other}"),
    }
    let retry_after = err.retry_after().expect("429 overloaded carries hints");
    assert!(retry_after >= Duration::from_micros(100));

    // Nothing reached a shard; the rejection was at admission.
    let stats = client.stats().unwrap();
    assert_eq!(stats.admission_rejected, 1);
    assert_eq!(stats.total(|s| s.shed_requests), 0);

    server.shutdown(Duration::from_secs(10));
}

#[test]
fn stats_endpoint_serves_latency_histograms() {
    let server = Server::start("127.0.0.1:0", service_at(2, 37, 23, 9)).unwrap();
    let client = Client::new(server.addr());
    for seed in 0..5u64 {
        client
            .sample_binary("m", &SampleOptions::new().gibbs_steps(2).seed(seed))
            .unwrap();
    }

    // The merged histogram rides the typed `/v1/stats` snapshot: one
    // recording per accepted request, quantiles ordered and non-zero.
    let stats = client.stats().unwrap();
    let latency = stats.latency();
    assert_eq!(latency.count(), 5);
    assert!(latency.p50() > Duration::ZERO);
    assert!(latency.p99() >= latency.p50());
    assert!(latency.max() >= latency.p999());

    server.shutdown(Duration::from_secs(10));
}

#[test]
fn train_over_http_publishes_a_version_sampled_by_later_requests() {
    let (m, _n) = (12, 4);
    let server = Server::start("127.0.0.1:0", service_at(2, 23, 12, 4)).unwrap();
    let client = Client::new(server.addr());

    let before = client
        .sample_binary("m", &SampleOptions::new().seed(1))
        .unwrap();
    assert_eq!(before.model_version(), 1);

    let mut rng = StdRng::seed_from_u64(42);
    let data = ndarray::Array2::from_shape_fn((20, m), |_| {
        f64::from(rand::Rng::random_bool(&mut rng, 0.5))
    });
    let reply = client.train("m", &data, 2, 7).unwrap();
    assert_eq!(reply.new_version, 2);
    assert!(reply.batches >= 1);
    assert!(reply.reconstruction_error.is_finite());

    let after = client
        .sample_binary("m", &SampleOptions::new().seed(1))
        .unwrap();
    assert_eq!(
        after.model_version(),
        2,
        "post-train samples must come from the published version"
    );

    // The stats endpoint round-trips the typed snapshot.
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.len(), 2);
    assert!(stats.models.contains_key("m"));
    assert_eq!(stats.models["m"].train_requests, 1);
    assert!(stats.total(|s| s.rows) >= 2);

    server.shutdown(Duration::from_secs(10));
}

/// Sends one raw JSON `POST` and returns the whole answer (status line,
/// headers and body); empty when the server hung up without one.
fn post_raw(addr: SocketAddr, path: &str, body: &str) -> String {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    send_raw(addr, &[head.as_bytes(), body.as_bytes()].concat())
}

/// Writes `bytes` on a fresh connection and returns the whole answer;
/// empty when the server hung up without one.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut answer = String::new();
    let _ = stream.read_to_string(&mut answer);
    answer
}

/// RFC 9112 §2.2: a server SHOULD ignore at least one empty line
/// received before the request line. The edge ignores one, so such a
/// request is answered instead of having its connection closed.
#[test]
fn a_request_behind_one_empty_line_is_answered() {
    let server = Server::start("127.0.0.1:0", service_at(1, 31, 4, 3)).unwrap();
    let answer = send_raw(server.addr(), b"\r\nGET /healthz HTTP/1.1\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer:?}");
    server.shutdown(Duration::from_secs(5));
}

/// A `cd_k` of 0 or a learning rate that is not finite and positive
/// would panic the trainer's constructor on the HTTP worker. The edge
/// answers each with `400` before it builds a trainer, so the single
/// worker serves the next request and shutdown drains.
#[test]
fn bad_train_knobs_are_400_and_a_one_worker_edge_serves_on() {
    let server = Server::start_with_workers("127.0.0.1:0", service_at(1, 31, 4, 3), 1).unwrap();
    let path = "/v1/models/m/train";
    for knob in [
        r#""cd_k": 0"#,
        r#""learning_rate": -1"#,
        r#""learning_rate": 0"#,
    ] {
        let answer = post_raw(
            server.addr(),
            path,
            &format!(r#"{{"data": [[0, 1, 0, 1]], {knob}}}"#),
        );
        assert!(answer.starts_with("HTTP/1.1 400"), "{knob}: {answer:?}");
        assert!(answer.contains("invalid_request"), "{knob}: {answer:?}");
    }
    let answer = post_raw(
        server.addr(),
        path,
        r#"{"data": [[0, 1, 0, 1]], "cd_k": 1, "learning_rate": 0.1}"#,
    );
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer:?}");
    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.connections_drained);
}

/// JSON `1e999` parses to infinity. Training data that is not finite or
/// lies outside [0, 1] is a `400`, and no version is published: the next
/// valid request publishes version 2.
#[test]
fn non_finite_or_out_of_range_training_data_is_400() {
    let server = Server::start("127.0.0.1:0", service_at(1, 37, 4, 3)).unwrap();
    let path = "/v1/models/m/train";
    for level in ["1e999", "-1e999", "1.5", "-0.5"] {
        let answer = post_raw(
            server.addr(),
            path,
            &format!(r#"{{"data": [[0, {level}, 0, 1]]}}"#),
        );
        assert!(answer.starts_with("HTTP/1.1 400"), "{level}: {answer:?}");
        assert!(answer.contains("invalid_request"), "{level}: {answer:?}");
    }
    let answer = post_raw(
        server.addr(),
        path,
        r#"{"data": [[0, 1, 0, 1]], "seed": 2}"#,
    );
    assert!(answer.starts_with("HTTP/1.1 200"), "{answer:?}");
    assert!(
        answer.contains("X-Ember-Model-Version: 2\r\n"),
        "{answer:?}"
    );
    server.shutdown(Duration::from_secs(5));
}
