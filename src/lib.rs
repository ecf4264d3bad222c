//! # ember
//!
//! Energy-based learning on a simulated Ising-machine substrate — a full
//! reproduction of *"Supporting Energy-Based Learning with an Ising
//! Machine Substrate: A Case Study on RBM"* (MICRO 2023) as a Rust
//! workspace.
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`ising`] | `ember-ising` | Ising model, QUBO, max-cut, simulated annealing |
//! | [`brim`] | `ember-brim` | BRIM dynamical substrate simulator |
//! | [`analog`] | `ember-analog` | Sigmoid unit, thermal RNG, comparator, converters, charge pump, noise models |
//! | [`substrate`] | `ember-substrate` | The [`substrate::Substrate`] trait: the seam between trainers and interchangeable sampling backends — one `sample_batch` half-step per `Side`, the fallible `try_program` / `try_sample_batch_rows` entry points, fault taxonomy (`SubstrateFault`) with its readback digest (`couplings_checksum`), and the seeded fault-injecting `ChaosSubstrate` decorator |
//! | [`rbm`] | `ember-rbm` | RBM, CD-k/PCD/exact-ML trainers (substrate-generic), DBN, MLP, conv-RBM patches |
//! | [`core`] | `ember-core` | **The paper's contribution**: Gibbs Sampler and Boltzmann Gradient Follower accelerator models, the three `Substrate` backends (`core::substrate`), the `SubstrateSpec` fabrication recipes, and the bit-packed binary-state sampling kernels (`core::kernels`) |
//! | [`serve`] | `ember-serve` | Sampling-as-a-service: `ModelRegistry` of named versioned RBMs, sharded request-coalescing `SamplingService` over any substrate backend, self-healing under faults (retry-with-reprogram, circuit breakers, shard supervision, deadlines, bounded drain) |
//! | [`http`] | `ember-http` | Dependency-free HTTP/1.1 network edge over a `SamplingService`: `POST …/sample`, `POST …/train`, `POST …/rollback`, `POST /v1/admin/snapshot`, `GET /v1/models`, `GET /v1/stats`, `GET /healthz`; a bit-packed binary wire format (`application/x-ember-bits`, 1 bit/unit) negotiated against a JSON fallback; typed error taxonomy → status codes; slowloris timeouts + body ceiling (`408`/`413`); a blocking [`http::Client`] speaking both encodings, with seeded retry (`Client::with_retry`) |
//! | [`store`] | `ember-store` | Durable model lifecycle: crash-safe `SnapshotStore` over a versioned checksummed binary snapshot format (delta-compressed version chains, atomic temp-file+fsync+rename writes, automatic fallback to the last good snapshot), `SnapshotDaemon` on-publish/periodic persistence, `warm_start` recovery into a bit-identical serving fleet, and a fault-injecting `ChaosDir` for crash drills |
//! | [`datasets`] | `ember-datasets` | Synthetic stand-ins for the paper's eight datasets |
//! | [`metrics`] | `ember-metrics` | AIS, KL, ROC/AUC, MAE, smoothing |
//! | [`perf`] | `ember-perf` | Timing/energy/area models for Figs. 5–6 and Tables 2–3 |
//!
//! # Quickstart
//!
//! ```
//! use ember::core::{BgfConfig, BoltzmannGradientFollower};
//! use ember::rbm::Rbm;
//! use ndarray::Array2;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let data = Array2::from_shape_fn((40, 8), |(i, _)| (i % 2) as f64);
//! let init = Rbm::random(8, 4, 0.01, &mut rng);
//! let mut machine = BoltzmannGradientFollower::new(init, BgfConfig::default(), &mut rng);
//! machine.train_epoch(&data, &mut rng);
//! let trained = machine.read_out(&mut rng);
//! assert_eq!(trained.visible_len(), 8);
//! ```
//!
//! # Quickstart: sampling as a service
//!
//! Models live in a registry; worker shards serve them over cloned
//! substrate replicas, coalescing concurrent requests into batched
//! substrate calls (seeded requests are bit-reproducible at any shard
//! count):
//!
//! ```
//! use ember::core::{GsConfig, SubstrateSpec};
//! use ember::rbm::Rbm;
//! use ember::serve::{SampleRequest, SamplingService};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let rbm = Rbm::random(8, 4, 0.2, &mut rng);
//! let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
//! let service = SamplingService::builder().shards(2).build();
//! service.register_model("demo", rbm, proto).unwrap();
//! let resp = service
//!     .sample(SampleRequest::new("demo").with_samples(4).with_gibbs_steps(2).with_seed(1))
//!     .unwrap();
//! assert_eq!(resp.samples.dim(), (4, 8));
//! ```
//!
//! # Quickstart: running under faults
//!
//! The substrate is analog hardware, so the serving layer treats it as
//! *fallible*: wrap any backend in a seeded
//! [`substrate::ChaosSubstrate`] to inject programming corruption, read
//! faults, and latency spikes, and the service absorbs them —
//! reprogram-and-retry under a deterministic
//! [`core::RetryPolicy`] (a successful retry returns **exactly** the
//! fault-free bits, because every chain re-seeds from its own stream),
//! a per-model circuit breaker that degrades persistent failures to a
//! software fallback, panic-supervised shards, and deadline shedding:
//!
//! ```
//! use ember::core::{GsConfig, RetryPolicy, SubstrateSpec};
//! use ember::rbm::Rbm;
//! use ember::serve::{SampleRequest, SamplingService};
//! use ember::substrate::{ChaosConfig, ChaosSubstrate};
//! use rand::SeedableRng;
//! use std::time::Duration;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let rbm = Rbm::random(8, 4, 0.2, &mut rng);
//! let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
//!
//! // The same machine, clean and chaos-wrapped (1% seeded fault rate).
//! let clean = SamplingService::builder().shards(1).build();
//! clean.register_model("demo", rbm.clone(), proto.clone_boxed()).unwrap();
//! let chaotic = Box::new(ChaosSubstrate::new(
//!     proto,
//!     ChaosConfig::new(42).with_fault_rate(0.01),
//! ));
//! let service = SamplingService::builder()
//!     .shards(2)
//!     .retry_policy(RetryPolicy::default().with_max_retries(8))
//!     .build();
//! service.register_model("demo", rbm, chaotic).unwrap();
//!
//! let request = SampleRequest::new("demo").with_samples(4).with_gibbs_steps(2).with_seed(1);
//! let stormy = service.sample(request.clone()).unwrap();
//! let golden = clean.sample(request).unwrap();
//! assert_eq!(stormy.samples, golden.samples); // recovery is bit-invisible
//! assert!(!stormy.degraded);
//!
//! // Bounded, graceful drain.
//! let report = service.shutdown(Duration::from_secs(5));
//! assert!(report.drained);
//! ```
//!
//! See `examples/chaos_service.rs` for the full storm — injected
//! panics, breaker trips into degraded service, deadline shedding, and
//! the fault/recovery accounting in `serve::ServiceStats`.
//!
//! # Quickstart: HTTP serving
//!
//! [`http::Server`] puts a network edge in front of an owned
//! [`serve::SamplingService`] — a dependency-free HTTP/1.1 listener
//! (blocking accept loop + worker threads, no async runtime). Sample
//! responses negotiate a **bit-packed binary wire format** via
//! `Accept: application/x-ember-bits`: a 24-byte header plus one bit
//! per unit (98 payload bytes/row at 784 visible units, ≥ 50× smaller
//! than the JSON fallback). Seeded requests over HTTP return **exactly
//! the bits** `service.sample()` returns in-process, at any shard
//! count:
//!
//! ```
//! use ember::core::{GsConfig, SubstrateSpec};
//! use ember::http::{Client, SampleOptions, Server};
//! use ember::rbm::Rbm;
//! use ember::serve::SamplingService;
//! use rand::SeedableRng;
//! use std::time::Duration;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let rbm = Rbm::random(8, 4, 0.2, &mut rng);
//! let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
//! let service = SamplingService::builder().shards(2).build();
//! service.register_model("demo", rbm, proto).unwrap();
//!
//! let server = Server::start("127.0.0.1:0", service).unwrap();
//! let client = Client::new(server.addr());
//! let reply = client
//!     .sample_binary("demo", &SampleOptions::new().samples(4).gibbs_steps(2).seed(1))
//!     .unwrap();
//! assert_eq!(reply.to_dense().dim(), (4, 8));
//!
//! let report = server.shutdown(Duration::from_secs(5));
//! assert!(report.service.drained);
//! ```
//!
//! Any HTTP client works — the JSON fallback is the curl-friendly
//! encoding, and the binary format is one `Accept` header away:
//!
//! ```sh
//! curl -s localhost:8080/v1/models
//! curl -s -X POST localhost:8080/v1/models/demo/sample \
//!      -H 'Content-Type: application/json' \
//!      -d '{"n_samples": 4, "gibbs_steps": 2, "seed": 1}'
//! curl -s -X POST localhost:8080/v1/models/demo/sample \
//!      -H 'Accept: application/x-ember-bits' \
//!      -H 'X-Ember-Samples: 4' -H 'X-Ember-Seed: 1' \
//!      --output samples.bits
//! curl -s localhost:8080/v1/stats
//! ```
//!
//! Backpressure and failures arrive as a typed taxonomy: a full queue
//! is `429` with `Retry-After` (and a microsecond-resolution
//! `X-Ember-Retry-After-Ms`), a blown `X-Ember-Timeout-Ms` budget is
//! `504`, an unknown model `404`, and a draining edge `503` — see
//! `examples/http_service.rs` for the full tour.
//!
//! # Overload behavior
//!
//! The service stays predictable when offered more work than it can
//! serve, with four cooperating mechanisms — none of which touches the
//! per-row RNG streams, so every *accepted* request returns the same
//! bits loaded or unloaded:
//!
//! * **Bounded coalescing window**
//!   ([`serve::ServiceBuilder::coalesce_window`], default off): a
//!   partially-filled batch dispatches as soon as the group fills *or*
//!   its oldest request has waited the window out, so a lone request's
//!   worst-case latency is `window + service_time` instead of "whenever
//!   batch-mates show up".
//! * **Priority lanes** ([`serve::Priority`], set per request with
//!   [`serve::SampleRequest::with_priority`], over HTTP via the
//!   `X-Ember-Priority` header): shards drain `Interactive` before
//!   `Bulk`; training always rides the Bulk lane.
//! * **Admission control**: each deadlined request's completion is
//!   projected from the measured per-row service rate; work that
//!   provably cannot meet its deadline is refused *at enqueue* with the
//!   typed [`serve::ServeError::Overloaded`] (`429 overloaded` over
//!   HTTP, with `Retry-After` / `X-Ember-Retry-After-Ms` hints) instead
//!   of burning a shard on an answer nobody will read. `504
//!   deadline_exceeded` stays reserved for deadlines that expire while
//!   queued.
//! * **Bulk-first shedding**: when the queue is full, an arriving
//!   `Interactive` request evicts the newest queued `Bulk` work (shed
//!   with `Overloaded` and a drain hint) before any interactive
//!   traffic is turned away.
//!
//! The client side cooperates: [`http::Client::with_retry`] draws
//! retries from a **token-bucket budget** (refilled by successes, see
//! [`http::Client::retry_budget`]), so a browning-out server sees
//! failures surface at the client instead of a retry storm multiplying
//! its load. Accepted-request latency is recorded per shard in
//! log-bucketed [`serve::LatencyHistogram`]s — p50/p99/p99.9 ride
//! [`serve::ServiceStats`] and `GET /v1/stats`.
//!
//! ```
//! use ember::core::{GsConfig, SubstrateSpec};
//! use ember::rbm::Rbm;
//! use ember::serve::{Priority, SampleRequest, SamplingService, ServeError};
//! use rand::SeedableRng;
//! use std::time::Duration;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let rbm = Rbm::random(8, 4, 0.2, &mut rng);
//! let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
//! let service = SamplingService::builder()
//!     .shards(1)
//!     .coalesce_window(Duration::from_millis(2)) // bounded batch wait
//!     .build();
//! service.register_model("demo", rbm, proto).unwrap();
//!
//! // Lanes are scheduling, not semantics: same seed, same bits.
//! let fast = SampleRequest::new("demo").with_gibbs_steps(2).with_seed(1);
//! let a = service.sample(fast.clone()).unwrap();
//! let b = service.sample(fast.with_priority(Priority::Bulk)).unwrap();
//! assert_eq!(a.samples, b.samples);
//!
//! // A deadline the backlog provably cannot meet is refused at
//! // enqueue, with a usable retry hint.
//! let doomed = SampleRequest::new("demo")
//!     .with_samples(64)
//!     .with_deadline_in(Duration::from_micros(50));
//! assert!(matches!(
//!     service.submit(doomed).unwrap_err(),
//!     ServeError::Overloaded { .. }
//! ));
//!
//! // Accepted-request latency quantiles, live.
//! assert_eq!(service.stats().latency().count(), 2);
//! ```
//!
//! # Quickstart: persistence & recovery
//!
//! Trained weights live on *volatile* analog hardware (§3.2 of the
//! paper: couplings are reprogrammed every minibatch), so the durable
//! source of truth is the registry — and [`store`] makes it crash-safe.
//! A [`store::SnapshotStore`] seals the registry's full version chains
//! into checksummed, delta-compressed snapshot files with atomic
//! write-then-rename; a [`store::SnapshotDaemon`] keeps it in sync with
//! every publication; and [`store::warm_start`] rebuilds a serving
//! fleet from the last **good** snapshot — stepping over torn or
//! bit-rotted files with typed errors, never serving corrupt
//! parameters. Restored services sample **bit-identical** to the
//! pre-crash fleet:
//!
//! ```
//! use ember::core::{GsConfig, SubstrateSpec};
//! use ember::rbm::Rbm;
//! use ember::serve::{ModelRegistry, SamplingService};
//! use ember::store::{warm_start, DaemonConfig, MemDir, SnapshotDaemon, SnapshotStore};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let registry = ModelRegistry::new();
//! registry.register("demo", Rbm::random(8, 4, 0.2, &mut rng)).unwrap();
//!
//! // Persist: the daemon snapshots on every publication (swap MemDir
//! // for `SnapshotStore::open(path)` to land on disk).
//! let store = SnapshotStore::new(MemDir::new()).unwrap();
//! let daemon = SnapshotDaemon::start(store.clone(), registry.clone(), DaemonConfig::default());
//! registry.publish("demo", Rbm::random(8, 4, 0.2, &mut rng)).unwrap();
//! drop(daemon); // orderly shutdown flushes the freshest state
//!
//! // "Crash", then warm-start a new fleet from the last good snapshot.
//! let (service, report) = warm_start(
//!     &store,
//!     SamplingService::builder().shards(2),
//!     |_name, rbm| {
//!         let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!         SubstrateSpec::software(GsConfig::default()).fabricate_for(rbm, &mut rng)
//!     },
//! )
//! .unwrap();
//! assert!(report.skipped.is_empty(), "no torn files to step over");
//! assert_eq!(service.registry().get("demo").unwrap().version, 2);
//!
//! // Rollback: v1's parameters come back as a NEW version (the
//! // counter only moves forward), and the next snapshot makes it
//! // durable. Over HTTP this is `POST /v1/models/demo/rollback`.
//! assert_eq!(service.rollback("demo", 1).unwrap(), 3);
//! store.save(service.registry()).unwrap();
//! ```
//!
//! Attach the daemon to an [`http::Server`] via
//! [`http::ServerConfig::with_persistence`] to expose
//! `POST /v1/admin/snapshot`, and see `examples/durable_service.rs` for
//! the full crash drill — kill-mid-write via [`store::ChaosDir`],
//! fallback to the previous snapshot, bit-identity proof, rollback.
//!
//! # Kernel selection: bit-packed vs dense
//!
//! Every product with a binary left operand in the sampling hot path —
//! `states · W`, `states · Wᵀ` — runs on the bit-packed kernel layer
//! (`core::kernels`): an exactly `{0, 1}` clamp packs 64 states per
//! `u64` word and the GEMM reduces to summing selected weight rows (no
//! multiplies, zeros skipped a word at a time). Gray clamps (multi-bit
//! DTC levels) take the dense GEMM. The two accumulate in the same index
//! order, so **samples never depend on the kernel**, only the time it
//! takes. Read `HardwareCounters::packed_kernel_calls` /
//! `dense_kernel_calls` (also surfaced per shard by
//! `serve::ServiceStats`) to see which kernel served each call:
//!
//! ```
//! use ember::core::{GsConfig, SubstrateSpec};
//! use ember::core::substrate::Substrate;
//! use ember::rbm::Rbm;
//! use ndarray::Array2;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let rbm = Rbm::random(8, 4, 0.2, &mut rng);
//! let mut sub = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
//! let v = Array2::from_shape_fn((4, 8), |(i, j)| f64::from((i + j) % 2 == 0));
//! let h = sub.sample_hidden_batch(&v, &mut rng);
//! assert_eq!(h.dim(), (4, 4));
//! assert_eq!(sub.counters().packed_kernel_calls, 1);
//! let gray = Array2::from_elem((4, 8), 0.5);
//! let _ = sub.sample_hidden_batch(&gray, &mut rng);
//! assert_eq!(sub.counters().dense_kernel_calls, 1);
//! ```
//!
//! # Kernel tiers: runtime SIMD dispatch
//!
//! Underneath the packed/dense split sits a second axis: every inner
//! field loop — the packed kernel's selected-row adds, the dense GEMM's
//! `ikj` update, the BRIM GEMVs and annealer sweep dots — executes on a
//! runtime-dispatched **SIMD
//! tier** ([`kernels::SimdTier`]): AVX2 on x86_64, NEON on aarch64,
//! detected once per process and cached, with the original scalar loops
//! kept verbatim as the always-available reference and fallback. The
//! vector paths perform the same floating-point operations in the same
//! per-element order as the scalar reference (no FMA contraction, same
//! reduction tree), so **the tier never changes a sampled bit** — only
//! how fast it is produced. The serial tier is what finally speeds up a
//! *single* Gibbs chain, which batching cannot help.
//!
//! * [`kernels::active_tier`] reports the tier in use;
//!   `SimdTier::name()` gives `"avx2"` / `"neon"` / `"scalar"`.
//! * Set the `EMBER_FORCE_SCALAR=1` environment variable (read at
//!   first dispatch), or call
//!   [`kernels::force_tier`]`(Some(SimdTier::Scalar))` at runtime, to
//!   pin the scalar reference tier — for the CI fallback matrix or to
//!   debug a suspected miscompare in the field. `force_tier(None)`
//!   restores detection.
//! * `HardwareCounters::simd_kernel_calls` counts sampling calls whose
//!   inner loops ran on a vector tier (on such a tier it equals
//!   `packed_kernel_calls + dense_kernel_calls`; it stays `0` when
//!   scalar is pinned). `serve::ServiceStats::counters` sums it across
//!   shards — the deployment health check that a fleet is actually on
//!   the fast tier.
//!
//! ```
//! use ember::kernels;
//!
//! let tier = kernels::active_tier();
//! println!("field kernels running on the {} tier", tier.name());
//! // Pin the scalar reference (bit-identical, just slower), then
//! // restore automatic detection.
//! kernels::force_tier(Some(kernels::SimdTier::Scalar));
//! assert_eq!(kernels::active_tier(), kernels::SimdTier::Scalar);
//! kernels::force_tier(None);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios (e.g.
//! `examples/sampling_service.rs` for mixed sample/train traffic over
//! all three backends) and `crates/bench/src/bin/` for the
//! per-table/figure experiment harness.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use ember_analog as analog;
pub use ember_brim as brim;
pub use ember_core as core;
pub use ember_datasets as datasets;
pub use ember_http as http;
pub use ember_ising as ising;
pub use ember_metrics as metrics;
pub use ember_perf as perf;
pub use ember_rbm as rbm;
pub use ember_serve as serve;
pub use ember_store as store;
pub use ember_substrate as substrate;

// The kernel-tier surface (`SimdTier`, `active_tier`, `force_tier`,
// the bit-packed kernels) at the facade root: see the "Kernel tiers"
// section above.
pub use ember_core::kernels;
