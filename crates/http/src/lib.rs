//! # ember-http
//!
//! The network edge of the sampling service: a dependency-free
//! HTTP/1.1 server and blocking client over
//! [`SamplingService`](ember_serve::SamplingService), with a
//! **bit-packed binary wire format** for sample batches.
//!
//! The paper's serving economics (§3.2: per-minibatch programming of
//! volatile analog weights) pay off when many remote clients share one
//! programmed substrate. That requires a network boundary — and since
//! sampled states are binary and already live bit-packed in
//! [`BitMatrix`](ember_core::kernels::BitMatrix) words, the natural
//! wire encoding is 1 bit/state: a 24-byte header (magic, version,
//! rows, cols, model version, flags) followed by the raw little-endian
//! `u64` row words. At 784 visible units that is 98 payload bytes per
//! sample row — 50–90× smaller than any textual encoding.
//!
//! * [`wire`] — the versioned binary format: [`wire::encode_samples`] /
//!   [`wire::decode`] with typed [`wire::WireError`] rejection of
//!   corrupt or truncated frames, shared by server and client.
//! * [`Server`] — blocking accept loop + worker threads (the `vendor/`
//!   playbook: no crates.io, no async runtime), exposing
//!   `POST /v1/models/{name}/sample`, `POST /v1/models/{name}/train`,
//!   `GET /v1/models`, `GET /v1/stats`, `GET /healthz`. Content
//!   negotiation via `Accept`/`Content-Type`
//!   (`application/x-ember-bits` vs a pretty-printed JSON debug
//!   fallback), the serving error taxonomy mapped onto status codes
//!   (`429` + `Retry-After`, `504` deadlines, `404`, `400`, `503`), and
//!   SIGTERM-style [`Server::shutdown`] that drains connections before
//!   handing the rest of the deadline to the service's queue drain.
//!   [`ServerConfig`] hardens each connection — slowloris read/write
//!   timeouts answered with `408`, a request-body ceiling answered with
//!   `413` — and can attach an
//!   [`ember_store::SnapshotDaemon`] to expose the durable lifecycle:
//!   `POST /v1/models/{name}/rollback` (republish a retained version)
//!   and `POST /v1/admin/snapshot` (seal a snapshot on demand).
//! * [`Client`] — a small blocking client speaking both encodings,
//!   used by the integration tests, the `http_service` example and the
//!   repository benchmark. [`Client::with_retry`] layers a
//!   seeded [`RetryPolicy`](ember_core::RetryPolicy) over every call:
//!   `429` backpressure is always retried honoring the server's
//!   `Retry-After`/`X-Ember-Retry-After-Ms` hints, transient `503`s
//!   only on idempotent requests.
//!
//! Because every chain carries its own seed-derived RNG stream,
//! **HTTP-served samples are bit-identical to in-process
//! `service.sample()`** for the same seed, regardless of shard count or
//! coalescing — the loopback tests pin that at 1/2/8 shards.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod json;
pub mod proto;
mod server;
pub mod wire;

pub use client::{BinarySample, Client, ClientError, JsonSample, SampleOptions};
pub use server::{headers, Server, ServerConfig, ShutdownReport};
