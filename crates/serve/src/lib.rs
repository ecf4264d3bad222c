//! # ember-serve
//!
//! Sampling-as-a-service over the `Substrate` seam: the paper's
//! accelerator earns its keep by amortizing substrate operations over
//! whole minibatches (§3.2), and the same economics apply to *serving* —
//! many concurrent clients each wanting a few samples or a free-running
//! chain from some model. Related work already treats the Ising machine
//! as a shared multi-tenant sampling resource (Niazi et al. drive many
//! chains through one physical sampler; Schmid et al. put the machine
//! behind a uniform sample-request interface); this crate makes that a
//! service API:
//!
//! * [`ModelRegistry`] — named, **versioned** RBMs behind one
//!   thread-safe handle; training publishes new versions, sampling
//!   always reads a consistent snapshot. A bounded per-model version
//!   history powers [`ModelRegistry::rollback`] (republish a prior
//!   version through the CAS path) and the delta-compressed durable
//!   snapshots in `ember_store`.
//! * [`SamplingService`] — a pool of worker shards
//!   (`std::thread`), each holding cloned
//!   [`ReplicableSubstrate`](ember_substrate::ReplicableSubstrate)
//!   replicas on its own deterministic
//!   [`RngStreams`](ember_rbm::RngStreams) lane, fed from a **bounded**
//!   request queue that rejects (never blocks) when full.
//! * typed requests — [`SampleRequest`] → [`SampleResponse`],
//!   [`TrainRequest`] → [`TrainResponse`] — answered through per-request
//!   channels.
//! * **request coalescing** — pending sample requests for the same
//!   `(model, gibbs_steps)` key merge into one batched substrate call
//!   ([`batch::try_sample_rows`]; [`batch::sample_rows`] is its
//!   infallible twin for offline callers), the serving-side analogue
//!   of the paper's per-minibatch operation list; per-row RNG streams
//!   make the coalescing bit-invisible to every caller. A group runs
//!   one program → sample → retry path whether it is served by the
//!   model's substrate or by its degraded fallback.
//! * [`ServiceStats`] — per-shard and per-model
//!   [`HardwareCounters`](ember_substrate::HardwareCounters)
//!   aggregation, batch-size and backpressure accounting; service-wide
//!   figures are [`ServiceStats::total`] (one [`ShardStats`] field
//!   summed over shards), [`ServiceStats::counters`] and
//!   [`ServiceStats::latency`].
//! * **self-healing** — the substrate is treated as fallible analog
//!   hardware: faulted groups are *reprogrammed and retried* under a
//!   deterministic [`RetryPolicy`](ember_core::RetryPolicy) (successful
//!   retries are bit-identical to the fault-free run); repeated failures
//!   trip a per-model circuit breaker that degrades to a software
//!   fallback ([`SampleResponse::degraded`]); panicking requests answer
//!   everyone with a typed [`ServeError::ShardRestarted`] and the shard
//!   re-provisions from retained prototypes; deadline-expired requests
//!   are shed; [`SamplingService::shutdown`] drains within a deadline
//!   and reports a [`DrainReport`].
//! * **overload robustness** — a bounded, deadline-aware
//!   [`ServiceBuilder::coalesce_window`] caps how long a group may wait
//!   for batch-mates; two [`Priority`] lanes drain Interactive before
//!   Bulk; admission control projects each deadlined request's
//!   completion from the measured per-row service rate and refuses
//!   provably-late work at enqueue ([`ServeError::Overloaded`]); under
//!   sustained overload queued Bulk work is shed before any Interactive
//!   request is turned away. None of this touches the per-row RNG
//!   streams: accepted requests return bit-identical samples, loaded or
//!   not. Accepted-request queue-to-answer latency is recorded in
//!   log-bucketed [`LatencyHistogram`]s
//!   ([`ShardStats::latency`], [`ServiceStats::latency`]).
//!
//! See `examples/sampling_service.rs` for two models served over all
//! three substrate backends under mixed sample/train traffic, and
//! `examples/chaos_service.rs` for the same service riding out an
//! injected fault storm.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod latency;
mod registry;
mod request;
mod service;

pub use latency::LatencyHistogram;
pub use registry::{ModelRegistry, ModelSnapshot, PublishHook};
pub use request::{
    Priority, SampleRequest, SampleResponse, ServeError, TrainRequest, TrainResponse,
};
pub use service::{
    DrainReport, ModelStats, ResponseHandle, SamplingService, ServiceBuilder, ServiceStats,
    ShardStats,
};
