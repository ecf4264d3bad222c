//! The network edge end to end: an [`ember::http::Server`] on a
//! loopback port serving a sharded [`SamplingService`], driven by a mix
//! of binary-wire and JSON clients from multiple threads.
//!
//! The tour hits every part of the issue's contract:
//!
//! * mixed-encoding traffic — the same seeded request over the
//!   bit-packed wire (`application/x-ember-bits`) and the JSON fallback
//!   returns byte-for-byte the same sampled bits, and the binary body
//!   is ~80× smaller at MNIST width;
//! * backpressure — a deliberately tiny queue under concurrent flood
//!   surfaces `429 queue_full` with a `Retry-After` hint, and honoring
//!   the hint gets the retried request served;
//! * training over HTTP publishes a new model version that later
//!   sample requests observe;
//! * `GET /v1/stats` dumps the service's typed accounting snapshot;
//! * shutdown drains in-flight HTTP requests before the service's own
//!   bounded drain runs.
//!
//! ```sh
//! cargo run --release --example http_service
//! ```

use std::time::Duration;

use ember::core::{GsConfig, SubstrateSpec};
use ember::http::{Client, ClientError, SampleOptions, Server};
use ember::rbm::Rbm;
use ember::serve::SamplingService;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2023);

    // An MNIST-shaped model behind a 2-shard service with a small queue
    // (2048 rows is ample for phases 1-3; phase 4 rebuilds with a tiny
    // queue to force backpressure).
    let digits = Rbm::random(784, 32, 0.2, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&digits, &mut rng);

    let service = SamplingService::builder().shards(2).build();
    service
        .register_model("digits", digits.clone(), proto.clone_boxed())
        .unwrap();

    let server = Server::start("127.0.0.1:0", service).unwrap();
    let addr = server.addr();
    println!("== edge listening on {addr} ==");
    let client = Client::new(addr);

    let health = client.health().unwrap();
    println!(
        "  /healthz           {} ({} shards)",
        health.status, health.shards
    );
    for model in client.models().unwrap().models {
        println!(
            "  /v1/models         {} v{} ({}x{})",
            model.name, model.version, model.visible, model.hidden
        );
    }

    println!("\n== phase 1: mixed binary + JSON clients, same seed ==");
    // Four client threads — two speaking the binary wire, two JSON —
    // all asking for the same seeded request. Every response must carry
    // identical bits regardless of encoding, thread, or shard.
    let options = SampleOptions::new().samples(8).gibbs_steps(3).seed(0xBEEF);
    let mut handles = Vec::new();
    for worker in 0..4usize {
        let client = client.clone();
        let options = options.clone();
        handles.push(std::thread::spawn(move || {
            if worker % 2 == 0 {
                let reply = client.sample_binary("digits", &options).unwrap();
                (
                    format!("binary ({} B body)", reply.body_bytes),
                    reply.to_dense(),
                )
            } else {
                let reply = client.sample_json("digits", &options).unwrap();
                let rows = reply.reply.samples.len();
                let dense = ndarray::Array2::from_shape_vec(
                    (rows, 784),
                    reply.reply.samples.iter().flatten().copied().collect(),
                )
                .unwrap();
                (format!("json   ({} B body)", reply.body_bytes), dense)
            }
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (encoding, _) in &results {
        println!("  worker answered via {encoding}");
    }
    let reference = &results[0].1;
    assert!(
        results.iter().all(|(_, dense)| dense == reference),
        "same seed must mean same bits on every encoding"
    );
    println!("  all 4 responses bit-identical across encodings");

    println!("\n== phase 2: wire economics at 784 visible units ==");
    let binary = client.sample_binary("digits", &options).unwrap();
    let json = client.sample_json("digits", &options).unwrap();
    let ratio = json.body_bytes as f64 / binary.body_bytes as f64;
    println!(
        "  binary body {:>8} B   ({} B/row incl. header)",
        binary.body_bytes,
        binary.body_bytes / 8
    );
    println!("  json body   {:>8} B", json.body_bytes);
    println!("  ratio       {ratio:>7.1}x  (issue bar: >= 50x)");
    assert!(ratio >= 50.0);

    println!("\n== phase 3: training over HTTP publishes a new version ==");
    let mut data_rng = StdRng::seed_from_u64(7);
    let data = ndarray::Array2::from_shape_fn((32, 784), |_| {
        f64::from(rand::Rng::random_bool(&mut data_rng, 0.3))
    });
    let reply = client.train("digits", &data, 1, 99).unwrap();
    println!(
        "  trained on shard {}: v{} ({} batches, recon err {:.4})",
        reply.shard, reply.new_version, reply.batches, reply.reconstruction_error
    );
    let post = client
        .sample_binary("digits", &SampleOptions::new().seed(1))
        .unwrap();
    assert_eq!(post.model_version(), reply.new_version);
    println!("  follow-up sample served from v{}", post.model_version());

    println!("\n== phase 4: backpressure — 429 + honored Retry-After ==");
    // A fresh edge over a 1-shard service with a 2-row queue: pin the
    // shard with a slow request, then flood it from 8 threads.
    let tiny = SamplingService::builder().shards(1).queue_rows(2).build();
    tiny.register_model("digits", digits, proto).unwrap();
    let tiny_server = Server::start_with_workers("127.0.0.1:0", tiny, 16).unwrap();
    let tiny_client = Client::new(tiny_server.addr());

    let pin_client = tiny_client.clone();
    let pin = std::thread::spawn(move || {
        pin_client.sample_binary("digits", &SampleOptions::new().gibbs_steps(100).seed(0))
    });
    std::thread::sleep(Duration::from_millis(50));
    let floods: Vec<_> = (0..8u64)
        .map(|i| {
            let c = tiny_client.clone();
            std::thread::spawn(move || {
                c.sample_binary("digits", &SampleOptions::new().gibbs_steps(100).seed(1 + i))
            })
        })
        .collect();
    let mut rejection = None;
    let mut served = 0usize;
    for flood in floods {
        match flood.join().unwrap() {
            Ok(_) => served += 1,
            Err(e @ ClientError::Http { status: 429, .. }) => rejection = Some(e),
            Err(other) => panic!("unexpected error under flood: {other}"),
        }
    }
    let rejection = rejection.expect("a 2-row queue under flood must reject");
    let hint = rejection.retry_after().expect("429 carries Retry-After");
    println!("  flood: {served} served, rest rejected: {rejection}");
    println!("  retry hint: {hint:?} — honoring it");
    std::thread::sleep(hint);
    for attempt in 1.. {
        match tiny_client.sample_binary("digits", &SampleOptions::new().gibbs_steps(1).seed(99)) {
            Ok(_) => {
                println!("  retried request served on attempt {attempt}");
                break;
            }
            Err(ClientError::Http { status: 429, .. }) => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(other) => panic!("unexpected retry error: {other}"),
        }
    }
    pin.join().unwrap().unwrap();
    tiny_server.shutdown(Duration::from_secs(30));

    println!("\n== phase 5: /v1/stats dump ==");
    let stats = client.stats().unwrap();
    println!(
        "  {} shards, {} rows sampled, {} rejected, {} shed",
        stats.shards.len(),
        stats.total(|s| s.rows),
        stats.rejected,
        stats.total(|s| s.shed_requests)
    );
    for (name, model) in &stats.models {
        println!(
            "  {name:<10} sample reqs {:>3}  train reqs {:>2}  rows {:>3}",
            model.sample_requests, model.train_requests, model.rows
        );
    }
    // Accepted-request latency quantiles, merged across shards — the
    // same histograms `GET /v1/stats` serves to any client.
    println!("  latency    {}", stats.latency());

    println!("\n== phase 6: drained shutdown ==");
    // Leave a slow request in flight, then shut down: the connection
    // must drain (real answer, not a slammed socket) before the
    // service's own bounded drain runs.
    let slow_client = client.clone();
    let slow = std::thread::spawn(move || {
        slow_client.sample_binary("digits", &SampleOptions::new().gibbs_steps(50).seed(5))
    });
    std::thread::sleep(Duration::from_millis(30));
    let report = server.shutdown(Duration::from_secs(30));
    println!(
        "  connections drained: {}  service drained: {} (aborted {})",
        report.connections_drained, report.service.drained, report.service.aborted_requests
    );
    assert!(report.connections_drained && report.service.drained);
    let answer = slow.join().unwrap().expect("in-flight request drains");
    println!(
        "  in-flight request answered with {} rows during drain",
        answer.samples.header.rows
    );
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "the edge must be gone after shutdown"
    );
    println!("  edge closed");
}
