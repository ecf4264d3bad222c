use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use ndarray::{Array1, Array2};

use ember_rbm::{CdTrainer, EpochStats};
use ember_substrate::{HardwareCounters, SubstrateFault};

/// Scheduling lane of a [`SampleRequest`].
///
/// The service keeps one queue lane per priority. Shards always drain
/// the `Interactive` lane first, and under sustained overload the
/// admission shedder evicts queued `Bulk` work (answering it with
/// [`ServeError::Overloaded`]) before it ever rejects an `Interactive`
/// request. Training requests ride the `Bulk` lane.
///
/// Lane order is pure *scheduling*: it never changes the bits of a
/// request that is served, because every chain's RNG stream is derived
/// from the request seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground work — drained first, shed last.
    #[default]
    Interactive,
    /// Throughput work (batch scoring, speculative sampling) — drained
    /// after `Interactive`, shed first under pressure.
    Bulk,
}

impl Priority {
    /// Canonical lowercase wire name (`"interactive"` / `"bulk"`), as
    /// carried by the `X-Ember-Priority` HTTP header.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Bulk => "bulk",
        }
    }

    /// Parses a case-insensitive wire name.
    pub fn parse(name: &str) -> Option<Priority> {
        match name.trim().to_ascii_lowercase().as_str() {
            "interactive" => Some(Priority::Interactive),
            "bulk" => Some(Priority::Bulk),
            _ => None,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request for conditional/free-running samples from a registered
/// model.
///
/// Semantics: the request expands to [`SampleRequest::n_samples`]
/// independent Gibbs chains. Chain `j` runs on its own deterministic RNG
/// stream derived from the request seed (`RngStreams::new(seed).seed(j)`;
/// no chain draws from another chain's stream), starts from [`SampleRequest::clamp`] (or a random visible state drawn
/// from the chain's stream), takes [`SampleRequest::gibbs_steps`] full
/// Gibbs steps through the substrate, and contributes its final visible
/// configuration as one row of the response.
///
/// Because every chain's bits depend only on (model parameters, clamp,
/// steps, its stream) — see `Substrate::sample_batch_rows` — the
/// response is **bit-identical no matter how the service coalesces,
/// shards, or reorders requests**, provided a `seed` is given.
///
/// # Example
///
/// ```
/// use ember_serve::SampleRequest;
///
/// let req = SampleRequest::new("mnist-784x200")
///     .with_samples(16)
///     .with_gibbs_steps(5)
///     .with_seed(42);
/// assert_eq!(req.n_samples, 16);
/// ```
#[derive(Debug, Clone)]
pub struct SampleRequest {
    /// Registered model name.
    pub model: String,
    /// Number of independent chains (= response rows) to draw.
    pub n_samples: usize,
    /// Full Gibbs steps per chain (the `k` of CD-k; ≥ 1).
    pub gibbs_steps: usize,
    /// Initial visible levels in `[0, 1]` shared by every chain (data to
    /// reconstruct / denoise / daydream from). `None` starts each chain
    /// from a random visible state drawn from its own stream — a
    /// free-running model sample.
    pub clamp: Option<Array1<f64>>,
    /// Master seed of the request's chain streams. `None` lets the
    /// executing shard draw one from its own deterministic lane (the
    /// response is then reproducible per shard sequence, not globally).
    pub seed: Option<u64>,
    /// Latest useful answer time. A request still queued (or picked up
    /// by a shard) past its deadline is **shed** with
    /// [`ServeError::DeadlineExceeded`] instead of wasting substrate
    /// time on an answer nobody is waiting for. `None` never expires.
    pub deadline: Option<Instant>,
    /// Scheduling lane (default [`Priority::Interactive`]). See
    /// [`Priority`] for drain and shed ordering.
    pub priority: Priority,
}

impl SampleRequest {
    /// One free-running single-sample request for `model` (1 chain,
    /// 1 Gibbs step, no clamp, shard-lane seeding).
    pub fn new(model: impl Into<String>) -> Self {
        SampleRequest {
            model: model.into(),
            n_samples: 1,
            gibbs_steps: 1,
            clamp: None,
            seed: None,
            deadline: None,
            priority: Priority::Interactive,
        }
    }

    /// Returns a copy requesting `n` samples.
    #[must_use]
    pub fn with_samples(mut self, n: usize) -> Self {
        self.n_samples = n;
        self
    }

    /// Returns a copy taking `k` Gibbs steps per chain.
    #[must_use]
    pub fn with_gibbs_steps(mut self, k: usize) -> Self {
        self.gibbs_steps = k;
        self
    }

    /// Returns a copy with every chain starting from `levels`.
    #[must_use]
    pub fn with_clamp(mut self, levels: Array1<f64>) -> Self {
        self.clamp = Some(levels);
        self
    }

    /// Returns a copy with a fixed master seed (full reproducibility).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Returns a copy that expires at `deadline`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy that expires `budget` from now.
    #[must_use]
    pub fn with_deadline_in(self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }

    /// Returns a copy scheduled on the given [`Priority`] lane.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// The samples drawn for one [`SampleRequest`], plus execution metadata.
#[derive(Debug, Clone)]
pub struct SampleResponse {
    /// One final visible configuration per requested chain
    /// (`n_samples × visible_len`).
    pub samples: Array2<f64>,
    /// Hardware-event delta of the coalesced execution this request rode
    /// in (the *whole group's* events — prorate by
    /// `samples.nrows() / coalesced_rows` for a per-request estimate).
    ///
    /// A group large enough to split across the shard's cores (see
    /// [`ServiceBuilder::shards`](crate::ServiceBuilder::shards)) counts
    /// the same phase points, words and samples as one serial run, but
    /// the per-call kernel counters (`packed_kernel_calls`,
    /// `dense_kernel_calls`, `simd_kernel_calls`) count one substrate
    /// call per worker per half-step.
    pub counters: HardwareCounters,
    /// Index of the worker shard that executed the request.
    pub shard: usize,
    /// Version of the model the samples were drawn from.
    pub model_version: u64,
    /// Total rows of the coalesced batch this request was executed in
    /// (≥ `samples.nrows()`; equal when the request ran alone).
    pub coalesced_rows: usize,
    /// `true` when the per-model circuit breaker had tripped and this
    /// response was served by the shard's `SoftwareGibbs` **fallback**
    /// instead of the registered (faulting) substrate. Degraded samples
    /// are valid model samples, but not the registered backend's bits.
    pub degraded: bool,
}

/// A request to run CD-k training epochs on a registered model.
///
/// The executing shard snapshots the model from the registry, trains it
/// through its own substrate replica
/// (`CdTrainer::train_with`), and publishes the result back as a new
/// model version — subsequent sample requests (on any shard) see the
/// updated weights.
#[derive(Debug, Clone)]
pub struct TrainRequest {
    /// Registered model name.
    pub model: String,
    /// Training data, rows = samples (`rows × visible_len`).
    pub data: Array2<f64>,
    /// The CD-k trainer to run (k, learning rate, momentum, decay).
    pub trainer: CdTrainer,
    /// Minibatch size.
    pub batch_size: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Seed of the training RNG. `None` lets the shard draw one from its
    /// lane.
    pub seed: Option<u64>,
}

impl TrainRequest {
    /// One CD-1 epoch over `data` with learning rate 0.05 and batch 10.
    pub fn new(model: impl Into<String>, data: Array2<f64>) -> Self {
        TrainRequest {
            model: model.into(),
            data,
            trainer: CdTrainer::new(1, 0.05),
            batch_size: 10,
            epochs: 1,
            seed: None,
        }
    }

    /// Returns a copy using the given trainer.
    #[must_use]
    pub fn with_trainer(mut self, trainer: CdTrainer) -> Self {
        self.trainer = trainer;
        self
    }

    /// Returns a copy with the given minibatch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Returns a copy running `epochs` epochs.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Returns a copy with a fixed training seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

/// The outcome of one [`TrainRequest`].
#[derive(Debug, Clone)]
pub struct TrainResponse {
    /// Final epoch's statistics.
    pub stats: EpochStats,
    /// Model version the trained parameters were published under.
    pub new_version: u64,
    /// Index of the worker shard that trained.
    pub shard: usize,
    /// Hardware-event delta of the training run on the shard's replica.
    pub counters: HardwareCounters,
}

/// Errors surfaced by the serving API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The named model is not in the registry.
    ModelNotFound(String),
    /// A model is already registered under this name.
    ModelExists(String),
    /// The request failed validation (reason inside).
    InvalidRequest(String),
    /// A training run raced another publish on the same model: the
    /// trained parameters were derived from `base_version` but the
    /// registry already holds `current_version`, so publishing them
    /// would silently discard the other update. Re-submit to train from
    /// the current snapshot.
    TrainConflict {
        /// The contended model.
        model: String,
        /// The version this training run started from.
        base_version: u64,
        /// The version found at publish time.
        current_version: u64,
    },
    /// A rollback named a version that is neither the model's current
    /// one nor retained in its bounded history (old versions are
    /// evicted once the history limit is exceeded).
    VersionNotFound {
        /// The model whose history was searched.
        model: String,
        /// The requested (absent) version.
        version: u64,
    },
    /// The bounded request queue is at capacity; the request was
    /// **rejected, not blocked** — retry later or shed load.
    QueueFull {
        /// Estimated time until the present backlog has drained, derived
        /// from the queue depth and the observed per-row service time —
        /// the value an HTTP edge would emit as `429` + `Retry-After`.
        /// A hint, not a reservation: the queue may refill.
        retry_after: Duration,
    },
    /// The request expired ([`SampleRequest::deadline`]) before a shard
    /// could answer it; the work was shed, no substrate time was spent.
    DeadlineExceeded,
    /// Admission control refused the request at enqueue: from the
    /// measured per-row service rate the queue projected that the
    /// request's completion would already miss its deadline (or the
    /// sustained-overload shedder evicted this queued `Bulk` request to
    /// admit `Interactive` work). No substrate time was spent; retry
    /// after the hint, or relax the deadline / lower the priority
    /// pressure.
    Overloaded {
        /// Estimated time until the backlog ahead of the request would
        /// have drained — the value an HTTP edge emits as `429` +
        /// `Retry-After`. A hint, not a reservation.
        retry_after: Duration,
    },
    /// The executing shard exhausted the service's retry policy against
    /// a faulting substrate; the underlying hardware fault is attached.
    /// Repeated occurrences trip the model's circuit breaker (subsequent
    /// requests degrade to the software fallback instead of erroring).
    SubstrateFault {
        /// The model whose replica faulted.
        model: String,
        /// The last fault observed after all retries.
        fault: SubstrateFault,
    },
    /// The executing shard panicked mid-request and was restarted (its
    /// replicas re-provisioned from the registered prototypes). The
    /// request itself was **not** completed — resubmit it; the restarted
    /// shard serves again immediately.
    ShardRestarted {
        /// Index of the shard that died and was restarted.
        shard: usize,
    },
    /// The service has been shut down.
    ServiceClosed,
    /// The executing shard disappeared before answering (service dropped
    /// mid-flight).
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ModelNotFound(name) => write!(f, "model `{name}` is not registered"),
            ServeError::ModelExists(name) => {
                write!(f, "model `{name}` is already registered")
            }
            ServeError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
            ServeError::TrainConflict {
                model,
                base_version,
                current_version,
            } => write!(
                f,
                "training on `{model}` raced another publish (trained from v{base_version}, \
                 registry is at v{current_version}); re-submit to train from the current snapshot"
            ),
            ServeError::VersionNotFound { model, version } => write!(
                f,
                "model `{model}` has no retained version {version} (evicted or never published)"
            ),
            ServeError::QueueFull { retry_after } => write!(
                f,
                "request queue is full (backpressure); retry after ~{:.1} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline expired before a shard could serve it")
            }
            ServeError::Overloaded { retry_after } => write!(
                f,
                "service overloaded: projected completion misses the deadline; \
                 retry after ~{:.1} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            ServeError::SubstrateFault { model, fault } => write!(
                f,
                "substrate serving `{model}` faulted beyond the retry budget: {fault}"
            ),
            ServeError::ShardRestarted { shard } => write!(
                f,
                "shard {shard} panicked mid-request and was restarted; resubmit"
            ),
            ServeError::ServiceClosed => write!(f, "service is shut down"),
            ServeError::Disconnected => write!(f, "serving shard disconnected"),
        }
    }
}

impl Error for ServeError {}
