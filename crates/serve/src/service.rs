use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ember_core::recovery::verify_programming;
use ember_core::{GsConfig, RetryPolicy, SubstrateSpec};
use ember_rbm::{Rbm, RngStreams};
use ember_substrate::{HardwareCounters, ReplicableSubstrate, SubstrateFault};
use ndarray::Array2;

use crate::batch::{self, ChainRequest};
use crate::registry::ModelSnapshot;
use crate::{
    LatencyHistogram, ModelRegistry, Priority, SampleRequest, SampleResponse, ServeError,
    TrainRequest, TrainResponse,
};

/// Queue-lane indices ([`Priority::Interactive`] /
/// [`Priority::Bulk`]); shards drain the lower index first.
const LANE_INTERACTIVE: usize = 0;
const LANE_BULK: usize = 1;
const LANES: usize = 2;

fn lane_index(priority: Priority) -> usize {
    match priority {
        Priority::Interactive => LANE_INTERACTIVE,
        Priority::Bulk => LANE_BULK,
    }
}

/// Builder for [`SamplingService`] (see there for the architecture).
///
/// Defaults: 2 shards, a 1024-row queue, coalesced batches of up to 64
/// rows and a zero coalescing window (dispatch immediately),
/// master seed `0x5EED`, the default
/// [`RetryPolicy`] against substrate faults, and a circuit breaker that
/// degrades a model to the software fallback after 3 consecutive
/// retry-exhausted groups.
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    shards: usize,
    queue_rows: usize,
    max_coalesce_rows: usize,
    coalesce_window: Duration,
    master_seed: u64,
    retry_policy: RetryPolicy,
    breaker_threshold: u32,
    registry: Option<ModelRegistry>,
}

impl ServiceBuilder {
    /// Number of worker shards (threads), each owning its own substrate
    /// replicas.
    ///
    /// Each shard may use `max(1, cores / shards)` of the host's cores,
    /// with `cores` its `std::thread::available_parallelism`: a
    /// coalesced group large enough to pay for the threads runs its
    /// rows on that many, with the bits of one thread (see the
    /// [`batch`](crate::batch) module). So one shard on two cores splits
    /// a large group two ways, and two shards on two cores never split.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Row-weighted capacity of the bounded ingress queue: a sample
    /// request weighs its `n_samples`, a training request weighs 1.
    /// Submissions beyond capacity are **rejected** with
    /// [`ServeError::QueueFull`], never blocked.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    #[must_use]
    pub fn queue_rows(mut self, rows: usize) -> Self {
        assert!(rows >= 1, "queue capacity must be at least one row");
        self.queue_rows = rows;
        self
    }

    /// Upper bound on the rows one coalesced batch may gather. `1`
    /// serves request-at-a-time: a group never takes a second member.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    #[must_use]
    pub fn max_coalesce_rows(mut self, rows: usize) -> Self {
        assert!(rows >= 1, "coalesce bound must be at least one row");
        self.max_coalesce_rows = rows;
        self
    }

    /// Bounded coalescing window: how long an idle shard may hold a
    /// popped sample group open, gathering same-`(model, gibbs_steps)`
    /// batch-mates, before it must dispatch. A group dispatches when it
    /// is **full** ([`ServiceBuilder::max_coalesce_rows`]) *or* when its
    /// oldest member has waited the window out since enqueue — so a lone
    /// request's latency is bounded by `window + service_time` instead
    /// of depending on unrelated traffic. The wait is deadline-aware
    /// (the shard never holds a member past its
    /// [`SampleRequest::deadline`] to gather company) and
    /// priority-aware (a `Bulk` group dispatches early the moment
    /// `Interactive` work arrives).
    ///
    /// `Duration::ZERO` (the default) dispatches immediately with
    /// whatever is already queued — the pre-window behavior. The window
    /// only shapes *scheduling*; sampled bits are unchanged either way.
    #[must_use]
    pub fn coalesce_window(mut self, window: Duration) -> Self {
        self.coalesce_window = window;
        self
    }

    /// Master seed of the per-shard [`RngStreams`] lanes (used to seed
    /// requests submitted without an explicit seed, and the shards'
    /// backoff jitter).
    #[must_use]
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Recovery schedule against [`SubstrateFault`]s: how many times a
    /// shard **reprograms and re-runs** a faulted group before giving
    /// up, and how it backs off in between. Retried chains recreate
    /// their RNG streams from their seeds, so a successful retry is
    /// bit-identical to a fault-free run. `RetryPolicy::none()` fails
    /// fast on the first fault.
    #[must_use]
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// Consecutive retry-exhausted groups on one model before its
    /// circuit breaker trips and the model **degrades** to each shard's
    /// deterministic `SoftwareGibbs` fallback (responses then carry
    /// [`SampleResponse::degraded`], and the model is listed in
    /// [`ServiceStats::degraded`]).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    #[must_use]
    pub fn breaker_threshold(mut self, threshold: u32) -> Self {
        assert!(threshold >= 1, "breaker threshold must be at least 1");
        self.breaker_threshold = threshold;
        self
    }

    /// Serves models from an existing registry handle instead of a fresh
    /// one.
    #[must_use]
    pub fn registry(mut self, registry: ModelRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Starts the worker shards and returns the running service.
    pub fn build(self) -> SamplingService {
        let registry = self.registry.unwrap_or_default();
        let core = Arc::new(Core {
            state: Mutex::new(QueueState {
                open: true,
                queued_rows: 0,
                in_flight: 0,
                lanes: std::array::from_fn(|_| VecDeque::new()),
                inboxes: (0..self.shards).map(|_| Vec::new()).collect(),
            }),
            cv: Condvar::new(),
            ledger: Mutex::new(Ledger {
                stats: ServiceStats {
                    shards: vec![ShardStats::default(); self.shards],
                    ..ServiceStats::default()
                },
                failures: HashMap::new(),
            }),
            prototypes: Mutex::new(HashMap::new()),
            shards: self.shards,
            queue_rows: self.queue_rows,
            max_coalesce_rows: self.max_coalesce_rows,
            coalesce_window: self.coalesce_window,
            retry_policy: self.retry_policy,
            breaker_threshold: self.breaker_threshold,
        });
        let streams = RngStreams::new(self.master_seed);
        let workers = (0..self.shards)
            .map(|shard| {
                let core = Arc::clone(&core);
                let registry = registry.clone();
                let lane = streams.subfamily(shard as u64);
                std::thread::Builder::new()
                    .name(format!("ember-serve-shard-{shard}"))
                    .spawn(move || run_shard(&core, &registry, shard, lane))
                    .expect("spawn serving shard")
            })
            .collect();
        SamplingService {
            core,
            registry,
            workers,
        }
    }
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            shards: 2,
            queue_rows: 1024,
            max_coalesce_rows: 64,
            coalesce_window: Duration::ZERO,
            master_seed: 0x5EED,
            retry_policy: RetryPolicy::default(),
            breaker_threshold: 3,
            registry: None,
        }
    }
}

/// The in-flight side of a submitted request: await the response with
/// [`ResponseHandle::wait`].
#[derive(Debug)]
pub struct ResponseHandle<T> {
    rx: mpsc::Receiver<Result<T, ServeError>>,
}

impl<T> ResponseHandle<T> {
    /// Blocks until the executing shard answers.
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Non-blocking poll: `None` while the request is still queued or
    /// executing.
    ///
    /// A returned reply is **handed over**, not copied: after
    /// `try_wait` returns `Some(reply)`, a later
    /// [`ResponseHandle::wait`] on the same handle returns
    /// [`ServeError::Disconnected`] and a later poll never yields the
    /// reply again. Keep the polled reply instead of waiting again.
    pub fn try_wait(&self) -> Option<Result<T, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

/// The outcome of [`SamplingService::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// `true` if every queued and in-flight request completed within the
    /// drain deadline; `false` if the deadline expired first.
    pub drained: bool,
    /// Requests still queued at the deadline, each answered with a typed
    /// [`ServeError::ServiceClosed`] instead of being executed (always
    /// `0` when `drained`).
    pub aborted_requests: usize,
}

/// Sampling-as-a-service over the [`Substrate`](ember_substrate::Substrate)
/// seam: a pool of worker shards serving named, versioned models to many
/// concurrent clients.
///
/// # Architecture
///
/// * A [`ModelRegistry`] holds the named, versioned [`Rbm`]s.
/// * [`SamplingService::register_model`] fabricates nothing itself: the
///   caller provides a **prototype substrate** (see
///   `ember_core::SubstrateSpec`), which is cloned into every shard via
///   [`ReplicableSubstrate::clone_boxed`] — all shards realize the same
///   physical machine, heterogeneous backends coexist per model. The
///   service retains its own prototype clone for shard recovery.
/// * Requests enter a **bounded, row-weighted queue** (backpressure:
///   [`ServeError::QueueFull`] with a drain-time `retry_after` hint
///   instead of blocking) and are answered through per-request `mpsc`
///   channels.
/// * An idle shard pops the queue head and **coalesces** every other
///   pending sample request with the same `(model, gibbs_steps)` key
///   into one batched chain run
///   ([`batch::try_sample_rows`]) — the serving-side analogue of the
///   paper's per-minibatch §3.2 operation list: program once, quantize
///   once, whole-batch conditional samples, scatter rows back to
///   callers. Chains carry per-row RNG streams, so coalescing, sharding,
///   and scheduling are invisible in the sampled bits. On an
///   infallible backend a group large enough to pay for it runs its
///   rows on the shard's share of the cores
///   ([`ServiceBuilder::shards`]), with the same bits.
/// * Programming is counted **per coalesced group**, not per request:
///   analog coupling weights live on leaky gate charges, so every job
///   is charged a re-programming of its replica (the paper's
///   per-minibatch `m·n + m + n` word accounting — what coalescing
///   amortizes). The host rebuilds the realized array only when the
///   model snapshot changes; re-programming an unchanged snapshot on
///   an infallible backend costs a counter update.
/// * [`TrainRequest`]s run CD-k on the shard's replica and publish the
///   update back to the registry as a new version.
///
/// # Fault posture
///
/// The substrate is *analog hardware* and treated as fallible
/// throughout:
///
/// * Every group programs through the fallible seam (`try_program`),
///   with readback-checksum verification. A fallible backend's group
///   samples through it too (`try_sample_batch_rows`), with a binary
///   sanity screen on every sampled batch; an infallible backend's
///   reads cannot fault, so they skip the screen.
/// * A faulted group is **reprogrammed and retried** under the
///   builder's [`RetryPolicy`] (volatile weights: the upset that broke
///   the read may have disturbed the couplings). Retries recreate every
///   chain RNG from its seed, so a successful retry returns exactly the
///   fault-free bits. Exhausted retries answer every member with a
///   typed [`ServeError::SubstrateFault`].
/// * Consecutive exhausted groups trip a **per-model circuit breaker**
///   ([`ServiceBuilder::breaker_threshold`]): the model degrades to a
///   deterministic per-shard `SoftwareGibbs` fallback (responses carry
///   [`SampleResponse::degraded`]; [`ServiceStats::degraded`] lists the
///   model).
/// * Workers run every request under `catch_unwind`: a panicking
///   request answers **all** its group members with
///   [`ServeError::ShardRestarted`] — nobody hangs on a dropped reply
///   channel — and the shard re-provisions its replicas from the
///   retained prototypes before taking the next job
///   ([`ShardStats::restarts`]).
/// * Requests past their [`SampleRequest::deadline`] are **shed** with
///   [`ServeError::DeadlineExceeded`] before any substrate time is
///   spent ([`ShardStats::shed_requests`]).
/// * [`SamplingService::shutdown`] drains within an explicit deadline;
///   dropping the service still drains everything, without a bound.
///
/// # Example
///
/// ```
/// use ember_serve::{SamplingService, SampleRequest};
/// use ember_core::{GsConfig, SubstrateSpec};
/// use ember_rbm::Rbm;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let rbm = Rbm::random(6, 3, 0.5, &mut rng);
/// let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
/// let service = SamplingService::builder().shards(2).build();
/// service.register_model("demo", rbm, proto).unwrap();
/// let resp = service
///     .sample(SampleRequest::new("demo").with_samples(4).with_seed(1))
///     .unwrap();
/// assert_eq!(resp.samples.dim(), (4, 6));
/// ```
#[derive(Debug)]
pub struct SamplingService {
    core: Arc<Core>,
    registry: ModelRegistry,
    workers: Vec<JoinHandle<()>>,
}

impl SamplingService {
    /// A builder with serving defaults.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// The registry handle this service serves from.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Registers `rbm` under `name` (version 1) and provisions every
    /// shard with a replica of `prototype`.
    ///
    /// The prototype must be fabricated at the model's size; fabricate
    /// it once (e.g. via `ember_core::SubstrateSpec::fabricate_for`) so
    /// all replicas share one fabricated identity. The service keeps its
    /// own clone of the prototype to re-provision a shard that dies
    /// mid-request.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] on size mismatch,
    /// [`ServeError::ModelExists`] on a duplicate name,
    /// [`ServeError::ServiceClosed`] after shutdown.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        rbm: Rbm,
        prototype: Box<dyn ReplicableSubstrate>,
    ) -> Result<u64, ServeError> {
        let name = name.into();
        check_prototype(&name, &rbm, &*prototype)?;
        self.provision(name.clone(), prototype, || {
            self.registry.register(name, rbm)
        })
    }

    /// Provisions every shard with a replica of `prototype` for a model
    /// that is **already in the registry** — the path for serving a
    /// registry shared with another service
    /// ([`ServiceBuilder::registry`]), whose pre-existing entries this
    /// service has no replicas for. [`SamplingService::register_model`]
    /// is `ModelRegistry::register` + this.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] for an unregistered name,
    /// [`ServeError::InvalidRequest`] on size mismatch,
    /// [`ServeError::ServiceClosed`] after shutdown.
    pub fn provision_model(
        &self,
        name: impl Into<String>,
        prototype: Box<dyn ReplicableSubstrate>,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let snapshot = self
            .registry
            .get(&name)
            .ok_or_else(|| ServeError::ModelNotFound(name.clone()))?;
        check_prototype(&name, &snapshot.rbm, &*prototype)?;
        self.provision(name, prototype, || Ok(()))
    }

    /// Republishes the retained parameters of `version` of `model` as a
    /// new version through the registry's CAS publish path (see
    /// [`ModelRegistry::rollback`]). Serving shards pick up the rolled
    /// back parameters exactly like any other publish — per-request
    /// snapshot reads mean no in-flight request ever sees a torn
    /// update, and responses report the new (higher) version.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] for an unregistered name,
    /// [`ServeError::VersionNotFound`] if `version` fell out of the
    /// registry's bounded history.
    pub fn rollback(&self, model: &str, version: u64) -> Result<u64, ServeError> {
        self.registry.rollback(model, version)
    }

    /// Retains a clone of `prototype` for shard recovery and pushes one
    /// replica of it into every shard inbox. `register` runs under the
    /// queue lock, before the replicas are pushed, so registering and
    /// provisioning are one step: no shard can see a request for the
    /// model before its replica.
    fn provision<T>(
        &self,
        name: String,
        prototype: Box<dyn ReplicableSubstrate>,
        register: impl FnOnce() -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        // Deep-copying a replica per shard is expensive (weights +
        // variation maps); do it before taking the service lock.
        let retained = prototype.clone_boxed();
        let mut replicas: Vec<_> = (1..self.workers.len())
            .map(|_| prototype.clone_boxed())
            .collect();
        replicas.push(prototype);
        let mut st = self.core.state.lock().expect("service lock");
        if !st.open {
            return Err(ServeError::ServiceClosed);
        }
        let registered = register()?;
        self.core
            .prototypes
            .lock()
            .expect("prototype lock")
            .insert(name.clone(), retained);
        for (inbox, replica) in st.inboxes.iter_mut().zip(replicas) {
            inbox.push((name.clone(), replica));
        }
        drop(st);
        self.core.cv.notify_all();
        Ok(registered)
    }

    /// Submits a sample request; returns immediately with a handle.
    ///
    /// # Errors
    ///
    /// Validation errors ([`ServeError::ModelNotFound`],
    /// [`ServeError::InvalidRequest`]), [`ServeError::QueueFull`] under
    /// backpressure, [`ServeError::Overloaded`] when admission control
    /// projects (from the measured per-row service rate) that the
    /// request's still-future deadline cannot be met,
    /// [`ServeError::ServiceClosed`] after shutdown.
    pub fn submit(
        &self,
        request: SampleRequest,
    ) -> Result<ResponseHandle<SampleResponse>, ServeError> {
        let snapshot = self
            .registry
            .get(&request.model)
            .ok_or_else(|| ServeError::ModelNotFound(request.model.clone()))?;
        if request.n_samples == 0 {
            return Err(ServeError::InvalidRequest("n_samples must be ≥ 1".into()));
        }
        if request.gibbs_steps == 0 {
            return Err(ServeError::InvalidRequest("gibbs_steps must be ≥ 1".into()));
        }
        if let Some(clamp) = &request.clamp {
            if clamp.len() != snapshot.rbm.visible_len() {
                return Err(ServeError::InvalidRequest(format!(
                    "clamp has {} levels, model `{}` has {} visible units",
                    clamp.len(),
                    request.model,
                    snapshot.rbm.visible_len(),
                )));
            }
            if clamp.iter().any(|&x| !(0.0..=1.0).contains(&x)) {
                return Err(ServeError::InvalidRequest(
                    "clamp levels must lie in [0, 1]".into(),
                ));
            }
        }
        let weight = request.n_samples;
        let priority = request.priority;
        let deadline = request.deadline;
        let (tx, rx) = mpsc::channel();
        self.enqueue(
            weight,
            priority,
            deadline,
            Queued::Sample(QueuedSample {
                request,
                reply: tx,
                enqueued_at: Instant::now(),
            }),
        )?;
        Ok(ResponseHandle { rx })
    }

    /// Convenience: [`SamplingService::submit`] + wait.
    pub fn sample(&self, request: SampleRequest) -> Result<SampleResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Submits a training request; returns immediately with a handle.
    ///
    /// # Errors
    ///
    /// Same classes as [`SamplingService::submit`];
    /// [`ServeError::InvalidRequest`] also when a data entry is not
    /// finite or lies outside `[0, 1]`.
    pub fn submit_train(
        &self,
        request: TrainRequest,
    ) -> Result<ResponseHandle<TrainResponse>, ServeError> {
        let snapshot = self
            .registry
            .get(&request.model)
            .ok_or_else(|| ServeError::ModelNotFound(request.model.clone()))?;
        if request.data.ncols() != snapshot.rbm.visible_len() {
            return Err(ServeError::InvalidRequest(format!(
                "training data has {} columns, model `{}` has {} visible units",
                request.data.ncols(),
                request.model,
                snapshot.rbm.visible_len(),
            )));
        }
        if request.data.nrows() == 0 || request.batch_size == 0 || request.epochs == 0 {
            return Err(ServeError::InvalidRequest(
                "training needs data rows, batch_size ≥ 1 and epochs ≥ 1".into(),
            ));
        }
        // As for clamps: the substrate sees every level clamped into
        // [0, 1], but the host gradient multiplies in the raw value, and
        // a non-finite one would publish non-finite weights.
        if request.data.iter().any(|&x| !(0.0..=1.0).contains(&x)) {
            return Err(ServeError::InvalidRequest(
                "training data must lie in [0, 1]".into(),
            ));
        }
        let (tx, rx) = mpsc::channel();
        // Training rides the Bulk lane: it is throughput work, drained
        // after interactive sampling and shed first under pressure.
        self.enqueue(
            1,
            Priority::Bulk,
            None,
            Queued::Train(QueuedTrain { request, reply: tx }),
        )?;
        Ok(ResponseHandle { rx })
    }

    /// Convenience: [`SamplingService::submit_train`] + wait.
    pub fn train(&self, request: TrainRequest) -> Result<TrainResponse, ServeError> {
        self.submit_train(request)?.wait()
    }

    /// A consistent snapshot of the service's accounting.
    pub fn stats(&self) -> ServiceStats {
        self.core.ledger().stats.clone()
    }

    /// Graceful drain: closes the queue (new submissions fail with
    /// [`ServeError::ServiceClosed`]), waits up to `deadline` for every
    /// queued and in-flight request to complete, then joins the shards.
    ///
    /// If the deadline expires first, requests **still queued** are
    /// answered with a typed [`ServeError::ServiceClosed`] (counted in
    /// [`DrainReport::aborted_requests`]) instead of being executed;
    /// requests already executing on a shard are allowed to finish —
    /// the substrate seam has no preemption — so the final join may
    /// outlast the deadline by up to one group's compute time.
    ///
    /// Dropping the service instead drains *everything* with no bound.
    pub fn shutdown(mut self, deadline: Duration) -> DrainReport {
        let deadline_at = Instant::now() + deadline;
        {
            let mut st = self.core.state.lock().expect("service lock");
            st.open = false;
        }
        self.core.cv.notify_all();

        let mut st = self.core.state.lock().expect("service lock");
        let drained = loop {
            if st.lanes.iter().all(|lane| lane.is_empty()) && st.in_flight == 0 {
                break true;
            }
            let now = Instant::now();
            if now >= deadline_at {
                break false;
            }
            let (guard, _) = self
                .core
                .cv
                .wait_timeout(st, deadline_at - now)
                .expect("service lock");
            st = guard;
        };
        let mut aborted = 0usize;
        if !drained {
            for lane in &mut st.lanes {
                while let Some(item) = lane.pop_front() {
                    aborted += 1;
                    item.reject(ServeError::ServiceClosed);
                }
            }
            st.queued_rows = 0;
        }
        drop(st);
        self.core.cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        DrainReport {
            drained,
            aborted_requests: aborted,
        }
    }

    fn enqueue(
        &self,
        weight: usize,
        priority: Priority,
        deadline: Option<Instant>,
        item: Queued,
    ) -> Result<(), ServeError> {
        let weight = weight.max(1);
        if weight > self.core.queue_rows {
            // Heavier than the whole queue: no amount of retrying will
            // ever get this accepted, so it is a validation error, not
            // transient backpressure.
            return Err(ServeError::InvalidRequest(format!(
                "request weighs {weight} rows but the queue holds at most {}; \
                 split it or raise `ServiceBuilder::queue_rows`",
                self.core.queue_rows,
            )));
        }
        let shards = self.workers.len().max(1);
        let mut st = self.core.state.lock().expect("service lock");
        if !st.open {
            return Err(ServeError::ServiceClosed);
        }
        // The measured per-row service rate, read only where an estimate
        // is needed: a deadline to project or a full queue to hint at,
        // so a plain submit never waits on the shards' accounting. The
        // lock order is queue, then ledger; no path takes the ledger and
        // then the queue.
        let per_row = || per_row_nanos(&self.core.ledger().stats);

        // Admission control: a request whose deadline is still in the
        // future but provably unreachable — the backlog ahead of it plus
        // its own rows, at the measured per-row rate, projects past the
        // deadline — is refused *now*, before it wastes queue space and
        // substrate time. An already-expired deadline is NOT refused
        // here: it flows to the shard's shed path and keeps its
        // established [`ServeError::DeadlineExceeded`] answer.
        if let Some(deadline) = deadline {
            let now = Instant::now();
            if deadline > now {
                let per_row = per_row();
                let projected = drain_estimate(st.queued_rows + weight, per_row, shards);
                if now + projected > deadline {
                    let retry_after = drain_estimate(st.queued_rows, per_row, shards);
                    drop(st);
                    self.core.ledger().stats.admission_rejected += 1;
                    return Err(ServeError::Overloaded { retry_after });
                }
            }
        }

        // Sustained-overload shedder: before an Interactive request is
        // turned away, evict queued Bulk work (newest first, so the
        // Bulk lane still drains FIFO) until there is room. Evicted
        // requests get a typed `Overloaded` with the same drain hint a
        // rejection would carry.
        let mut shed_bulk = 0u64;
        if st.queued_rows + weight > self.core.queue_rows && priority == Priority::Interactive {
            let retry_after = drain_estimate(st.queued_rows, per_row(), shards);
            while st.queued_rows + weight > self.core.queue_rows {
                let Some(victim) = st.lanes[LANE_BULK].pop_back() else {
                    break;
                };
                st.queued_rows -= victim.weight();
                shed_bulk += 1;
                victim.reject(ServeError::Overloaded { retry_after });
            }
        }
        if st.queued_rows + weight > self.core.queue_rows {
            let backlog_rows = st.queued_rows;
            drop(st);
            let stats = &mut self.core.ledger().stats;
            stats.rejected += 1;
            stats.shed_bulk += shed_bulk;
            let retry_after = drain_estimate(backlog_rows, per_row_nanos(stats), shards);
            return Err(ServeError::QueueFull { retry_after });
        }
        st.queued_rows += weight;
        st.lanes[lane_index(priority)].push_back(item);
        drop(st);
        if shed_bulk > 0 {
            self.core.ledger().stats.shed_bulk += shed_bulk;
        }
        self.core.cv.notify_all();
        Ok(())
    }
}

impl Drop for SamplingService {
    /// Graceful shutdown: close the queue (new submissions fail), let
    /// the shards drain what is already queued, join them. For a
    /// *bounded* drain use [`SamplingService::shutdown`].
    fn drop(&mut self) {
        {
            let mut st = self.core.state.lock().expect("service lock");
            st.open = false;
        }
        self.core.cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Refuses a prototype fabricated at another size than the model it is
/// to serve.
fn check_prototype(
    name: &str,
    rbm: &Rbm,
    prototype: &dyn ReplicableSubstrate,
) -> Result<(), ServeError> {
    if prototype.visible_len() == rbm.visible_len() && prototype.hidden_len() == rbm.hidden_len() {
        return Ok(());
    }
    Err(ServeError::InvalidRequest(format!(
        "prototype is {}x{}, model `{name}` is {}x{}",
        prototype.visible_len(),
        prototype.hidden_len(),
        rbm.visible_len(),
        rbm.hidden_len(),
    )))
}

/// Observed mean per-row service time in nanoseconds — the measured
/// rate behind both the `retry_after` hints and admission control.
/// Before any row has been served, assumes 1 ms/row; floored at 1 µs.
fn per_row_nanos(stats: &ServiceStats) -> u64 {
    let rows = stats.total(|s| s.rows);
    match stats.total(|s| s.busy_nanos).checked_div(rows) {
        None => 1_000_000,
        Some(per_row) => per_row.max(1_000),
    }
}

/// Estimated time for `backlog_rows` to drain at `per_row` nanoseconds
/// per row across `shards` workers; floored at 100 µs so the hint is
/// never a busy-loop invitation.
fn drain_estimate(backlog_rows: usize, per_row: u64, shards: usize) -> Duration {
    let nanos = (backlog_rows as u64).saturating_mul(per_row) / shards.max(1) as u64;
    Duration::from_nanos(nanos.max(100_000))
}

/// Per-shard accounting (one entry per worker in
/// [`ServiceStats::shards`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardStats {
    /// Sample requests answered.
    pub sample_requests: u64,
    /// Chain rows sampled.
    pub rows: u64,
    /// Batched kernel executions (coalesced groups).
    pub batches: u64,
    /// Rows of the largest coalesced batch executed.
    pub largest_batch: u64,
    /// Training requests executed.
    pub train_requests: u64,
    /// Times this shard died mid-request (panic) and was re-provisioned
    /// from the retained prototypes.
    pub restarts: u64,
    /// Requests shed past their deadline without substrate work.
    pub shed_requests: u64,
    /// Wall-clock nanoseconds this shard spent executing sample groups
    /// (drives the [`ServeError::QueueFull`] `retry_after` hint and
    /// admission control's drain projection).
    pub busy_nanos: u64,
    /// Hardware events of this shard's replicas.
    pub counters: HardwareCounters,
    /// Queue-to-answer latency of every sample request this shard
    /// answered successfully (enqueue → response sent), log-bucketed.
    /// Shed, faulted, and rejected requests are not recorded here — the
    /// histogram describes what accepted callers experienced.
    pub latency: LatencyHistogram,
}

/// Per-model accounting (keyed by model name in
/// [`ServiceStats::models`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ModelStats {
    /// Sample requests answered for this model.
    pub sample_requests: u64,
    /// Chain rows sampled from this model.
    pub rows: u64,
    /// Training requests executed on this model.
    pub train_requests: u64,
    /// Sample requests answered by the software fallback after the
    /// model's circuit breaker tripped.
    pub degraded_requests: u64,
    /// Sample requests answered with [`ServeError::SubstrateFault`]
    /// after the retry budget was exhausted.
    pub failed_requests: u64,
    /// Hardware events spent serving this model, summed over shards
    /// (fault and retry totals live in
    /// [`HardwareCounters::substrate_faults`] /
    /// [`HardwareCounters::recovery_retries`] and friends).
    pub counters: HardwareCounters,
}

/// A snapshot of the service's per-shard and per-model accounting —
/// `Serialize` so the HTTP edge's `GET /v1/stats` emits it as JSON
/// directly (and `Deserialize` so clients get the typed snapshot back).
///
/// Service-wide figures are sums over [`ServiceStats::shards`]:
/// [`ServiceStats::total`] sums one [`ShardStats`] field,
/// [`ServiceStats::counters`] merges the hardware counters and
/// [`ServiceStats::latency`] the latency histograms.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// One entry per worker shard.
    pub shards: Vec<ShardStats>,
    /// Aggregates per model name.
    pub models: BTreeMap<String, ModelStats>,
    /// Requests rejected by backpressure ([`ServeError::QueueFull`]).
    pub rejected: u64,
    /// Requests refused at enqueue by admission control
    /// ([`ServeError::Overloaded`]): their still-future deadline was
    /// projected unreachable at the measured per-row service rate.
    pub admission_rejected: u64,
    /// Queued Bulk requests evicted by the sustained-overload shedder
    /// to admit Interactive work (answered with
    /// [`ServeError::Overloaded`]).
    pub shed_bulk: u64,
    /// Models whose circuit breaker has tripped: they are currently
    /// served by the `SoftwareGibbs` fallback, not their registered
    /// substrate.
    pub degraded: Vec<String>,
}

impl ServiceStats {
    /// One [`ShardStats`] field summed over the shards:
    /// `total(|s| s.rows)` is the chain rows sampled, and
    /// `total(|s| s.rows) / total(|s| s.batches)` the realized
    /// coalescing factor (1 means every request ran alone).
    pub fn total(&self, field: impl Fn(&ShardStats) -> u64) -> u64 {
        self.shards.iter().map(field).sum()
    }

    /// Every shard's [`HardwareCounters`] merged: the service's fault
    /// events ([`HardwareCounters::total_fault_events`]), recovery
    /// retries, and the kernel mix. `packed_kernel_calls +
    /// dense_kernel_calls` counts the kernel-served sampling calls;
    /// `simd_kernel_calls` equals that sum on an AVX2/NEON host and is
    /// 0 under `EMBER_FORCE_SCALAR`, the health check that a
    /// deployment runs the fast tier.
    pub fn counters(&self) -> HardwareCounters {
        let mut merged = HardwareCounters::new();
        for shard in &self.shards {
            merged.merge(&shard.counters);
        }
        merged
    }

    /// Service-wide queue-to-answer latency: every shard's histogram
    /// merged; `latency().p99()` is the service's tail latency.
    pub fn latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for shard in &self.shards {
            merged.merge(&shard.latency);
        }
        merged
    }
}

// ---------------------------------------------------------------------
// Internals: the shared queue and the shard workers.
// ---------------------------------------------------------------------

struct Core {
    state: Mutex<QueueState>,
    cv: Condvar,
    ledger: Mutex<Ledger>,
    /// Retained prototype per model, for re-provisioning a restarted
    /// shard.
    prototypes: Mutex<HashMap<String, Box<dyn ReplicableSubstrate>>>,
    /// Worker shards: each may split a group across its share of the
    /// cores ([`batch::cores_per_shard`]).
    shards: usize,
    queue_rows: usize,
    max_coalesce_rows: usize,
    coalesce_window: Duration,
    retry_policy: RetryPolicy,
    breaker_threshold: u32,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("shards", &self.shards)
            .field("queue_rows", &self.queue_rows)
            .field("max_coalesce_rows", &self.max_coalesce_rows)
            .field("coalesce_window", &self.coalesce_window)
            .field("retry_policy", &self.retry_policy)
            .field("breaker_threshold", &self.breaker_threshold)
            .finish_non_exhaustive()
    }
}

impl Core {
    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().expect("stats lock")
    }
}

/// The service's accounting and its circuit breakers, under one lock.
struct Ledger {
    /// What [`SamplingService::stats`] returns. A tripped breaker lists
    /// its model in `stats.degraded`, kept in name order.
    stats: ServiceStats,
    /// Consecutive retry-exhausted primary groups per model since its
    /// last primary success.
    failures: HashMap<String, u32>,
}

/// Models provisioned for one shard (name and replica), drained by the
/// shard before it takes new work.
type Inbox = Vec<(String, Box<dyn ReplicableSubstrate>)>;

struct QueueState {
    open: bool,
    queued_rows: usize,
    /// Requests popped by a shard but not yet answered — what a bounded
    /// drain waits on besides the queue itself.
    in_flight: usize,
    /// One FIFO lane per [`Priority`], drained Interactive-first
    /// (`LANE_INTERACTIVE` / `LANE_BULK`).
    lanes: [VecDeque<Queued>; LANES],
    /// One inbox per shard.
    inboxes: Vec<Inbox>,
}

#[derive(Debug)]
enum Queued {
    Sample(QueuedSample),
    Train(QueuedTrain),
}

impl Queued {
    /// Row weight this item holds in the bounded queue.
    fn weight(&self) -> usize {
        match self {
            Queued::Sample(s) => s.request.n_samples.max(1),
            Queued::Train(_) => 1,
        }
    }

    /// Answers the caller with `err` without executing (shed / abort).
    fn reject(self, err: ServeError) {
        match self {
            Queued::Sample(sample) => {
                let _ = sample.reply.send(Err(err));
            }
            Queued::Train(train) => {
                let _ = train.reply.send(Err(err));
            }
        }
    }
}

#[derive(Debug)]
struct QueuedSample {
    request: SampleRequest,
    reply: mpsc::Sender<Result<SampleResponse, ServeError>>,
    /// When the request entered the queue — the latency histograms
    /// measure from here to the reply, and the coalescing window counts
    /// down from the *oldest* member's enqueue.
    enqueued_at: Instant,
}

#[derive(Debug)]
struct QueuedTrain {
    request: TrainRequest,
    reply: mpsc::Sender<Result<TrainResponse, ServeError>>,
}

enum Work {
    Provision(Inbox),
    Sample(Vec<QueuedSample>),
    Train(QueuedTrain),
    Exit,
}

/// One provisioned model replica on a shard: the primary substrate and
/// the lazily fabricated `SoftwareGibbs` fallback standing in after the
/// model's circuit breaker trips.
struct Replica {
    primary: Programmed,
    fallback: Option<Programmed>,
}

impl Replica {
    fn new(substrate: Box<dyn ReplicableSubstrate>) -> Self {
        Replica {
            primary: Programmed::new(substrate),
            fallback: None,
        }
    }
}

/// A substrate and the immutable model snapshot it currently realizes.
///
/// Analog weights are volatile, so every coalesced group is *charged* a
/// full programming event (`programming_cost()` words, the paper's
/// per-minibatch accounting). The host only rebuilds the realized array
/// when the snapshot changes: `holds` keeps the last programmed
/// `Arc<Rbm>` alive, so `Arc::ptr_eq` against it cannot be fooled by a
/// reused allocation, and a rollback (which republishes a retained
/// `Arc`) still matches.
struct Programmed {
    substrate: Box<dyn ReplicableSubstrate>,
    /// The snapshot `substrate` was last programmed with; `None` when
    /// unknown (fresh replica, after a fault, after training).
    holds: Option<Arc<Rbm>>,
}

impl Programmed {
    fn new(substrate: Box<dyn ReplicableSubstrate>) -> Self {
        Programmed {
            substrate,
            holds: None,
        }
    }

    /// §3.2 steps 1–2 for one group: programs the snapshot through the
    /// fallible seam and verifies the readback checksum (vacuous on
    /// backends without readback). A substrate that already holds this
    /// exact snapshot is only charged the words, which is all its
    /// `program` would have counted.
    fn program(&mut self, snapshot: &ModelSnapshot) -> Result<(), SubstrateFault> {
        if let Some(rbm) = &self.holds {
            if Arc::ptr_eq(rbm, &snapshot.rbm) {
                let words = self.substrate.programming_cost();
                self.substrate.counters_mut().host_words_transferred += words;
                return Ok(());
            }
        }
        self.holds = None;
        let weights = snapshot.rbm.weights().view();
        let visible_bias = snapshot.rbm.visible_bias().view();
        let hidden_bias = snapshot.rbm.hidden_bias().view();
        self.substrate
            .try_program(&weights, &visible_bias, &hidden_bias)?;
        verify_programming(&*self.substrate, &weights, &visible_bias, &hidden_bias)?;
        // A fallible backend rolls its faults per programming event, so
        // it never holds a snapshot and re-programs every group.
        if !self.substrate.is_fallible() {
            self.holds = Some(Arc::clone(&snapshot.rbm));
        }
        Ok(())
    }

    /// Runs one coalesced group: programs the snapshot, samples `rows`
    /// ([`Programmed::sample`]) and, after a fault, re-programs and
    /// re-samples under `policy` — the volatile couplings are assumed
    /// disturbed, and the chains restart from their seeds, so a
    /// successful retry is bit-identical to a fault-free run. Returns
    /// the outcome and the counters the group spent, retries included.
    fn run(
        &mut self,
        snapshot: &ModelSnapshot,
        rows: &[ChainRequest],
        gibbs_steps: usize,
        policy: &RetryPolicy,
        runner: &mut GroupRunner,
    ) -> (Result<Array2<f64>, SubstrateFault>, HardwareCounters) {
        let before = *self.substrate.counters();
        let mut retries = 0u32;
        let outcome = loop {
            let attempt = self
                .program(snapshot)
                .and_then(|()| self.sample(rows, gibbs_steps, &mut runner.pool));
            let fault = match attempt {
                Ok(samples) => break Ok(samples),
                Err(fault) => fault,
            };
            self.holds = None;
            if retries >= policy.max_retries {
                break Err(fault);
            }
            retries += 1;
            self.substrate.counters_mut().recovery_retries += 1;
            std::thread::sleep(policy.backoff(retries, &mut runner.backoff_rng));
        };
        (outcome, self.substrate.counters().delta_since(&before))
    }

    /// Samples `rows` on the programmed substrate. A fallible backend
    /// reads through the fallible seam and its screens, serially
    /// ([`batch::try_sample_rows`]). An infallible one splits the rows
    /// across the shard's cores when the group's work pays for it
    /// ([`batch::SplitPool`]).
    fn sample(
        &mut self,
        rows: &[ChainRequest],
        gibbs_steps: usize,
        pool: &mut batch::SplitPool,
    ) -> Result<Array2<f64>, SubstrateFault> {
        let substrate = &mut *self.substrate;
        if substrate.is_fallible() {
            return batch::try_sample_rows(substrate, rows, gibbs_steps);
        }
        Ok(pool.sample_rows(substrate, rows, gibbs_steps))
    }
}

/// What a shard runs its groups with besides their replicas: the jitter
/// stream of its retry backoff, and the helper threads that a large
/// group splits across.
struct GroupRunner {
    backoff_rng: StdRng,
    pool: batch::SplitPool,
}

/// One forward pass over `lane` (O(n), done while holding the service
/// lock): moves every same-`(model, gibbs_steps)` sample request into
/// `members` up to the row bound, keeping the rest in order.
fn gather_same_key(
    lane: &mut VecDeque<Queued>,
    queued_rows: &mut usize,
    key_model: &str,
    key_steps: usize,
    max_rows: usize,
    rows: &mut usize,
    members: &mut Vec<QueuedSample>,
) {
    if *rows >= max_rows {
        return; // full: admits nothing, so skip the walk
    }
    let mut kept = VecDeque::with_capacity(lane.len());
    while let Some(item) = lane.pop_front() {
        match item {
            Queued::Sample(s)
                if *rows < max_rows
                    && s.request.model == key_model
                    && s.request.gibbs_steps == key_steps
                    && *rows + s.request.n_samples.max(1) <= max_rows =>
            {
                let weight = s.request.n_samples.max(1);
                *queued_rows -= weight;
                *rows += weight;
                members.push(s);
            }
            other => kept.push_back(other),
        }
    }
    *lane = kept;
}

/// Blocks until this shard has work: its inbox first, then the head of
/// the highest-priority non-empty lane (Interactive before Bulk) —
/// coalesced with every pending same-`(model, gibbs_steps)` sample
/// request *in the same lane* up to the row bound — then shutdown once
/// the lanes are drained. Taken work is counted in-flight until
/// [`finish_work`].
///
/// With a non-zero [`ServiceBuilder::coalesce_window`], a group that is
/// not yet full lingers on the condvar gathering late-arriving
/// batch-mates until the window (counted from its **oldest** member's
/// enqueue) runs out. The wait is cut short the moment the group fills,
/// the service closes, any member's deadline approaches, or — for a
/// Bulk group — Interactive work arrives (no priority inversion behind
/// a lingering Bulk batch). A zero window has run out at the first
/// gather.
fn next_work(core: &Core, shard: usize) -> Work {
    let mut st = core.state.lock().expect("service lock");
    loop {
        if !st.inboxes[shard].is_empty() {
            return Work::Provision(std::mem::take(&mut st.inboxes[shard]));
        }
        let lane_idx = if st.lanes[LANE_INTERACTIVE].is_empty() {
            LANE_BULK
        } else {
            LANE_INTERACTIVE
        };
        match st.lanes[lane_idx].pop_front() {
            Some(Queued::Train(train)) => {
                st.queued_rows -= 1;
                st.in_flight += 1;
                return Work::Train(train);
            }
            Some(Queued::Sample(first)) => {
                let mut rows = first.request.n_samples.max(1);
                st.queued_rows -= rows;
                st.in_flight += 1;
                let key_model = first.request.model.clone();
                let key_steps = first.request.gibbs_steps;
                // Dispatch at the earliest of: the window out (from the
                // oldest member's enqueue) or any member's deadline.
                let mut wake = first.enqueued_at + core.coalesce_window;
                let mut members = vec![first];
                let mut folded = 0;
                loop {
                    let state = &mut *st;
                    gather_same_key(
                        &mut state.lanes[lane_idx],
                        &mut state.queued_rows,
                        &key_model,
                        key_steps,
                        core.max_coalesce_rows,
                        &mut rows,
                        &mut members,
                    );
                    for m in &members[folded..] {
                        if let Some(d) = m.request.deadline {
                            wake = wake.min(d);
                        }
                    }
                    folded = members.len();
                    let now = Instant::now();
                    if rows >= core.max_coalesce_rows
                        || !st.open
                        || (lane_idx == LANE_BULK && !st.lanes[LANE_INTERACTIVE].is_empty())
                        || now >= wake
                    {
                        return Work::Sample(members);
                    }
                    st = core
                        .cv
                        .wait_timeout(st, wake - now)
                        .expect("service lock")
                        .0;
                }
            }
            None => {
                if !st.open {
                    return Work::Exit;
                }
                st = core.cv.wait(st).expect("service lock");
            }
        }
    }
}

/// Marks one in-flight work item answered and wakes any bounded drain
/// waiting on the count.
fn finish_work(core: &Core) {
    let mut st = core.state.lock().expect("service lock");
    st.in_flight -= 1;
    drop(st);
    core.cv.notify_all();
}

/// The shard worker: drains its inbox, serves coalesced sample groups
/// and training jobs until shutdown. `lane` is this shard's
/// deterministic RNG-stream family, consumed (one stream per event) to
/// seed requests submitted without an explicit seed.
fn run_shard(core: &Core, registry: &ModelRegistry, shard: usize, lane: RngStreams) {
    let mut replicas: HashMap<String, Replica> = HashMap::new();
    // Backoff jitter draws from a dedicated stream far outside the
    // request-seeding sequence, so fault recovery never perturbs the
    // seeds handed to seedless requests.
    let mut runner = GroupRunner {
        backoff_rng: StdRng::seed_from_u64(lane.seed(u64::MAX)),
        pool: batch::SplitPool::new(shard, core.shards),
    };
    let mut lane_next: u64 = 0;
    let mut lane_seed = move || {
        let seed = lane.seed(lane_next);
        lane_next += 1;
        seed
    };
    loop {
        match next_work(core, shard) {
            Work::Exit => return,
            Work::Provision(inbox) => {
                for (name, replica) in inbox {
                    replicas.insert(name, Replica::new(replica));
                }
            }
            Work::Sample(members) => {
                let replies = supervised(core, registry, shard, &mut replicas, |replicas| {
                    serve_sample_group(
                        core,
                        registry,
                        shard,
                        replicas,
                        &members,
                        &mut lane_seed,
                        &mut runner,
                    )
                })
                .unwrap_or_else(|| {
                    members
                        .iter()
                        .map(|_| Err(ServeError::ShardRestarted { shard }))
                        .collect()
                });
                debug_assert_eq!(replies.len(), members.len());
                for (member, reply) in members.iter().zip(replies) {
                    let _ = member.reply.send(reply);
                }
                finish_work(core);
            }
            Work::Train(QueuedTrain { request, reply }) => {
                let result = supervised(core, registry, shard, &mut replicas, |replicas| {
                    serve_train(core, registry, shard, replicas, &request, &mut lane_seed)
                })
                .unwrap_or(Err(ServeError::ShardRestarted { shard }));
                let _ = reply.send(result);
                finish_work(core);
            }
        }
    }
}

/// Runs one request on this shard's replicas under `catch_unwind`. A
/// panic drops the replicas wholesale (whatever state the panic left
/// them in), re-provisions every registered model from its retained
/// prototype, counts the restart and returns `None`: the caller answers
/// every member with [`ServeError::ShardRestarted`], so nobody hangs on
/// a dropped reply channel, and a caller that reads the stats after
/// that answer already sees the restart.
fn supervised<T>(
    core: &Core,
    registry: &ModelRegistry,
    shard: usize,
    replicas: &mut HashMap<String, Replica>,
    f: impl FnOnce(&mut HashMap<String, Replica>) -> T,
) -> Option<T> {
    if let Ok(value) = catch_unwind(AssertUnwindSafe(|| f(replicas))) {
        return Some(value);
    }
    replicas.clear();
    for (name, prototype) in core.prototypes.lock().expect("prototype lock").iter() {
        if registry.get(name).is_some() {
            replicas.insert(name.clone(), Replica::new(prototype.clone_boxed()));
        }
    }
    core.ledger().stats.shards[shard].restarts += 1;
    None
}

/// The degraded-service substrate: a `SoftwareGibbs` fabricated
/// deterministically from the model *name* (not the shard index), so
/// every shard's fallback realizes the same machine and degraded
/// responses stay shard-invariant.
fn fabricate_fallback(model: &str, snapshot: &ModelSnapshot) -> Box<dyn ReplicableSubstrate> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in model.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = StdRng::seed_from_u64(hash);
    SubstrateSpec::software(GsConfig::default()).fabricate(
        snapshot.rbm.visible_len(),
        snapshot.rbm.hidden_len(),
        &mut rng,
    )
}

/// Executes one coalesced group and returns one reply per member (in
/// member order): shed expired deadlines, program through the
/// verified fallible seam, run the batched kernel with
/// reprogram-and-retry under the service's [`RetryPolicy`], scatter the
/// rows back — or degrade to the software fallback when the model's
/// circuit breaker has tripped.
fn serve_sample_group(
    core: &Core,
    registry: &ModelRegistry,
    shard: usize,
    replicas: &mut HashMap<String, Replica>,
    members: &[QueuedSample],
    lane_seed: &mut impl FnMut() -> u64,
    runner: &mut GroupRunner,
) -> Vec<Result<SampleResponse, ServeError>> {
    let started = Instant::now();
    let model = members[0].request.model.clone();
    let gibbs_steps = members[0].request.gibbs_steps;
    let (Some(snapshot), Some(replica)) = (registry.get(&model), replicas.get_mut(&model)) else {
        // Registration is atomic (registry + provisioning under one
        // lock), so this means the model vanished mid-flight.
        return members
            .iter()
            .map(|_| Err(ServeError::ModelNotFound(model.clone())))
            .collect();
    };

    // Deadline shedding: a member already past due gets its typed error
    // now and costs zero substrate time.
    let now = Instant::now();
    let mut replies: Vec<Option<Result<SampleResponse, ServeError>>> =
        (0..members.len()).map(|_| None).collect();
    let mut live: Vec<usize> = Vec::with_capacity(members.len());
    for (i, member) in members.iter().enumerate() {
        match member.request.deadline {
            Some(deadline) if now >= deadline => {
                replies[i] = Some(Err(ServeError::DeadlineExceeded));
            }
            _ => live.push(i),
        }
    }
    let shed = (members.len() - live.len()) as u64;
    if live.is_empty() {
        core.ledger().stats.shards[shard].shed_requests += shed;
        return replies
            .into_iter()
            .map(|r| r.expect("every member shed"))
            .collect();
    }

    // Expand live members to chain rows; remember each member's range.
    let mut rows: Vec<ChainRequest> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(live.len());
    for &i in &live {
        let master_seed = members[i].request.seed.unwrap_or_else(&mut *lane_seed);
        let start = rows.len();
        rows.extend(batch::expand_request(&members[i].request, master_seed));
        ranges.push((start, rows.len()));
    }

    // Circuit broken: serve from the deterministic software fallback,
    // programmed and charged per group as the primary is. Its seam never
    // faults, so the retry loop never runs for it.
    let degraded = core.ledger().stats.degraded.binary_search(&model).is_ok();
    let programmed = if degraded {
        replica
            .fallback
            .get_or_insert_with(|| Programmed::new(fabricate_fallback(&model, &snapshot)))
    } else {
        &mut replica.primary
    };
    let (outcome, delta) =
        programmed.run(&snapshot, &rows, gibbs_steps, &core.retry_policy, runner);

    // Account first, reply second: once a caller holds its response,
    // `SamplingService::stats` already reflects the work it paid for.
    {
        let mut ledger = core.ledger();
        let Ledger { stats, failures } = &mut *ledger;
        // Breaker bookkeeping (primary groups only): consecutive
        // exhausted groups trip the model into degraded service; any
        // primary success resets the count.
        if !degraded {
            if outcome.is_ok() {
                failures.remove(&model);
            } else {
                let count = failures.entry(model.clone()).or_default();
                *count += 1;
                if *count >= core.breaker_threshold {
                    if let Err(at) = stats.degraded.binary_search(&model) {
                        stats.degraded.insert(at, model.clone());
                    }
                }
            }
        }
        let shard_stats = &mut stats.shards[shard];
        shard_stats.shed_requests += shed;
        shard_stats.busy_nanos += started.elapsed().as_nanos() as u64;
        shard_stats.counters.merge(&delta);
        if outcome.is_ok() {
            shard_stats.sample_requests += live.len() as u64;
            shard_stats.rows += rows.len() as u64;
            shard_stats.batches += 1;
            shard_stats.largest_batch = shard_stats.largest_batch.max(rows.len() as u64);
            // Queue-to-answer latency of every member about to get a
            // successful reply (the histogram describes accepted
            // requests only).
            let answered = Instant::now();
            for &i in &live {
                shard_stats
                    .latency
                    .record(answered.saturating_duration_since(members[i].enqueued_at));
            }
        }
        let model_stats = stats.models.entry(model.clone()).or_default();
        model_stats.counters.merge(&delta);
        if outcome.is_ok() {
            model_stats.sample_requests += live.len() as u64;
            model_stats.rows += rows.len() as u64;
            if degraded {
                model_stats.degraded_requests += live.len() as u64;
            }
        } else {
            model_stats.failed_requests += live.len() as u64;
        }
    }

    // Scatter rows back to the callers: each live member's rows are a
    // contiguous range of the group result.
    match outcome {
        Ok(samples) => {
            for (&i, (start, end)) in live.iter().zip(&ranges) {
                let own = samples.slice(ndarray::s![*start..*end, ..]).to_owned();
                replies[i] = Some(Ok(SampleResponse {
                    samples: own,
                    counters: delta,
                    shard,
                    model_version: snapshot.version,
                    coalesced_rows: rows.len(),
                    degraded,
                }));
            }
        }
        Err(fault) => {
            for &i in &live {
                replies[i] = Some(Err(ServeError::SubstrateFault {
                    model: model.clone(),
                    fault: fault.clone(),
                }));
            }
        }
    }
    replies
        .into_iter()
        .map(|r| r.expect("every member answered"))
        .collect()
}

/// Executes one training job on this shard's replica and publishes the
/// updated parameters as a new model version.
fn serve_train(
    core: &Core,
    registry: &ModelRegistry,
    shard: usize,
    replicas: &mut HashMap<String, Replica>,
    request: &TrainRequest,
    lane_seed: &mut impl FnMut() -> u64,
) -> Result<TrainResponse, ServeError> {
    let (Some(snapshot), Some(replica)) = (
        registry.get(&request.model),
        replicas.get_mut(&request.model),
    ) else {
        return Err(ServeError::ModelNotFound(request.model.clone()));
    };

    let mut rbm = (*snapshot.rbm).clone();
    let mut rng = StdRng::seed_from_u64(request.seed.unwrap_or_else(&mut *lane_seed));
    let primary = &mut replica.primary;
    // The trainer re-programs the replica every minibatch with
    // intermediate weights, so it no longer holds any published
    // snapshot.
    primary.holds = None;
    let before = *primary.substrate.counters();
    let stats = request.trainer.train_with(
        &mut rbm,
        &request.data,
        request.batch_size,
        &mut *primary.substrate,
        request.epochs,
        &mut rng,
    );
    let delta = primary.substrate.counters().delta_since(&before);

    // Compare-and-swap publish: if another shard published meanwhile
    // (concurrent training on the same model), fail with TrainConflict
    // instead of silently discarding that update — the caller re-trains
    // from the current snapshot.
    let result = registry
        .publish_if(&request.model, rbm, snapshot.version)
        .map(|new_version| TrainResponse {
            stats,
            new_version,
            shard,
            counters: delta,
        });

    {
        let stats = &mut core.ledger().stats;
        stats.shards[shard].train_requests += 1;
        stats.shards[shard].counters.merge(&delta);
        let model_stats = stats.models.entry(request.model.clone()).or_default();
        model_stats.train_requests += 1;
        model_stats.counters.merge(&delta);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_wait_hands_the_reply_over() {
        let (tx, rx) = mpsc::channel();
        let handle = ResponseHandle::<u32> { rx };
        assert!(handle.try_wait().is_none(), "nothing answered yet");
        tx.send(Ok(7)).unwrap();
        drop(tx);
        assert!(matches!(handle.try_wait(), Some(Ok(7))));
        assert!(matches!(
            handle.try_wait(),
            Some(Err(ServeError::Disconnected))
        ));
        assert!(matches!(handle.wait(), Err(ServeError::Disconnected)));
    }

    #[test]
    fn a_submit_without_a_deadline_does_not_wait_on_the_ledger() {
        let mut rng = StdRng::seed_from_u64(1);
        let rbm = Rbm::random(4, 3, 0.2, &mut rng);
        let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
        let service = SamplingService::builder().shards(1).build();
        service.register_model("m", rbm, proto).unwrap();
        // A shard accounting a long group holds the ledger like this.
        let ledger = service.core.ledger();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let service = &service;
            scope.spawn(move || {
                let submitted = service.submit(SampleRequest::new("m").with_seed(1));
                tx.send(submitted.is_ok()).unwrap();
            });
            let answered = rx.recv_timeout(Duration::from_secs(5));
            drop(ledger);
            assert_eq!(answered, Ok(true), "the submit waited on the ledger");
        });
    }
}
