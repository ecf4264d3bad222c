//! The HTTP/1.1 edge: a blocking accept loop + worker-thread pool over
//! an owned [`SamplingService`].
//!
//! # Routes
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/models/{name}/sample` | Draw samples (JSON or binary wire) |
//! | `POST /v1/models/{name}/train` | Run CD-k epochs, publish a version |
//! | `POST /v1/models/{name}/rollback` | Republish a retained version |
//! | `POST /v1/admin/snapshot` | Seal a durable snapshot now ([`ServerConfig::with_persistence`]) |
//! | `GET /v1/models` | List registered models |
//! | `GET /v1/stats` | JSON [`ServiceStats`](ember_serve::ServiceStats) snapshot |
//! | `GET /healthz` | Liveness (`ok` / `draining`) |
//!
//! # Hardening
//!
//! [`ServerConfig`] bounds each connection: per-connection socket
//! read/write timeouts (a slowloris peer trickling header bytes is cut
//! off with `408 Request Timeout` instead of pinning a worker forever)
//! and a maximum request-body size (an oversized `Content-Length` is
//! refused with `413` before a single body byte is buffered).
//!
//! # Content negotiation
//!
//! A sample request with `Accept: application/x-ember-bits` gets the
//! bit-packed binary wire format of [`crate::wire`] (1 bit/state plus a
//! 24-byte header; execution metadata rides in `X-Ember-*` response
//! headers). Anything else gets the JSON fallback — **pretty-printed**
//! deliberately: JSON is this edge's human/debug encoding (curl and
//! eyeballs), the wire format is the production encoding, so the JSON
//! side optimizes for readability, not bytes. Binary sample requests
//! (`Content-Type: application/x-ember-bits`) carry the clamp row as
//! wire bits and their knobs in `X-Ember-*` request headers.
//!
//! # Error mapping
//!
//! [`ServeError`] maps onto status codes per the serving taxonomy:
//! `QueueFull` and `Overloaded` (admission control / the Bulk-first
//! shedder) → `429` with `Retry-After` (and exact
//! `X-Ember-Retry-After-Ms`), `DeadlineExceeded` → `504` (deadline set
//! via `X-Ember-Timeout-Ms`; priority lane via `X-Ember-Priority`),
//! `ModelNotFound` → `404`,
//! `InvalidRequest` → `400`, `ServiceClosed` → `503`. Every error body
//! is a JSON [`ErrorReply`] with a stable `code`.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] is the SIGTERM path: stop accepting, let every
//! accepted connection finish within the deadline, then hand the
//! remaining budget to [`SamplingService::shutdown`] so the queue
//! drains too. Requests still mid-flight past the deadline get their
//! answers (the seam has no preemption); connections never see a slammed
//! socket.

use std::io::{self, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ndarray::Array1;

use ember_serve::{
    DrainReport, Priority, SampleRequest, SamplingService, ServeError, TrainRequest,
};
use ember_store::SnapshotDaemon;

use crate::json::{
    parse_rollback_body, parse_sample_body, parse_train_body, ErrorReply, Health, ModelInfo,
    ModelList, RollbackReply, SampleReply, SnapshotReply, TrainReply, JSON_MIME,
};
use crate::proto::{read_request_limited, ParseError, ReadOutcome, Request, Response, MAX_BODY};
use crate::wire::{self, WIRE_MIME};

/// Request-knob headers understood on binary (and optionally JSON)
/// sample requests.
pub mod headers {
    /// Number of chains to draw.
    pub const SAMPLES: &str = "X-Ember-Samples";
    /// Gibbs steps per chain.
    pub const GIBBS_STEPS: &str = "X-Ember-Gibbs-Steps";
    /// Master seed.
    pub const SEED: &str = "X-Ember-Seed";
    /// Request deadline budget in milliseconds.
    pub const TIMEOUT_MS: &str = "X-Ember-Timeout-Ms";
    /// Scheduling lane: `interactive` (default) or `bulk`,
    /// case-insensitive (see `ember_serve::Priority`).
    pub const PRIORITY: &str = "X-Ember-Priority";
    /// Response: executing shard index.
    pub const SHARD: &str = "X-Ember-Shard";
    /// Response: model version sampled/trained.
    pub const MODEL_VERSION: &str = "X-Ember-Model-Version";
    /// Response: rows of the coalesced batch the request rode in.
    pub const COALESCED_ROWS: &str = "X-Ember-Coalesced-Rows";
    /// Response: `1` when served by the degraded fallback.
    pub const DEGRADED: &str = "X-Ember-Degraded";
    /// Response (429): exact backlog-drain hint in milliseconds (the
    /// standard `Retry-After` header is whole seconds, rounded up).
    pub const RETRY_AFTER_MS: &str = "X-Ember-Retry-After-Ms";
}

/// Connection-level policy of a [`Server`]: worker count, slowloris
/// timeouts, body bound, and the optional persistence hook behind
/// `POST /v1/admin/snapshot`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection workers (bounds how many HTTP requests can block on
    /// the service concurrently). Default 8.
    pub workers: usize,
    /// Per-connection socket read timeout: a peer that stalls mid-
    /// request longer than this is answered `408` and disconnected
    /// (`None` disables the guard). Default 30 s.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout (a peer that stops draining
    /// its response is disconnected). Default 30 s.
    pub write_timeout: Option<Duration>,
    /// Maximum accepted request-body size in bytes; larger
    /// `Content-Length` declarations are refused with `413` before any
    /// buffering. Default [`MAX_BODY`].
    pub max_body: usize,
    /// Snapshot daemon exposed at `POST /v1/admin/snapshot`. `None`
    /// answers that route with `503 no_persistence`.
    pub persistence: Option<Arc<SnapshotDaemon>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_body: MAX_BODY,
            persistence: None,
        }
    }
}

impl ServerConfig {
    /// Replaces the connection-worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces both socket timeouts (`None` disables the guards).
    #[must_use]
    pub fn with_timeouts(mut self, read: Option<Duration>, write: Option<Duration>) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Replaces the request-body ceiling.
    #[must_use]
    pub fn with_max_body(mut self, max_body: usize) -> Self {
        self.max_body = max_body;
        self
    }

    /// Attaches a snapshot daemon, enabling `POST /v1/admin/snapshot`.
    #[must_use]
    pub fn with_persistence(mut self, daemon: Arc<SnapshotDaemon>) -> Self {
        self.persistence = Some(daemon);
        self
    }
}

/// The outcome of [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// `true` if every accepted HTTP connection finished within the
    /// deadline.
    pub connections_drained: bool,
    /// The inner service's drain report.
    pub service: DrainReport,
}

struct Shared {
    /// `None` once shutdown has taken the service; requests arriving
    /// after that answer `503 service_closed`.
    service: RwLock<Option<SamplingService>>,
    /// Set when shutdown begins: the accept loop exits and `/healthz`
    /// reports `draining`.
    closing: AtomicBool,
    /// Accepted-but-unfinished connections (incremented by the accept
    /// loop *before* the stream is handed to a worker, so a drain never
    /// misses a connection sitting in the hand-off queue).
    in_flight: Mutex<usize>,
    idle: Condvar,
    /// Connection policy + the optional persistence hook.
    config: ServerConfig,
}

/// A running HTTP edge. Constructed with [`Server::start`]; stopped
/// with [`Server::shutdown`] (or dropped, which drains without a
/// bound).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `service` with 8 connection workers.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(addr: impl ToSocketAddrs, service: SamplingService) -> io::Result<Server> {
        Server::start_with_config(addr, service, ServerConfig::default())
    }

    /// [`Server::start`] with an explicit connection-worker count
    /// (bounds how many HTTP requests can block on the service
    /// concurrently).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn start_with_workers(
        addr: impl ToSocketAddrs,
        service: SamplingService,
        workers: usize,
    ) -> io::Result<Server> {
        Server::start_with_config(addr, service, ServerConfig::default().with_workers(workers))
    }

    /// [`Server::start`] with the full connection policy: worker count,
    /// slowloris timeouts, body ceiling, and the optional persistence
    /// hook behind `POST /v1/admin/snapshot`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0`.
    pub fn start_with_config(
        addr: impl ToSocketAddrs,
        service: SamplingService,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let workers = config.workers;
        assert!(workers >= 1, "need at least one connection worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: RwLock::new(Some(service)),
            closing: AtomicBool::new(false),
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            config,
        });

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("ember-http-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn http worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ember-http-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &tx))
                .expect("spawn http accept loop")
        };

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers: worker_handles,
        })
    }

    /// The bound address (the realized port when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// SIGTERM-style graceful stop: closes the listener, drains
    /// accepted connections within `deadline`, then hands the remaining
    /// budget to [`SamplingService::shutdown`] for the queue drain, and
    /// joins every thread.
    pub fn shutdown(mut self, deadline: Duration) -> ShutdownReport {
        let deadline_at = Instant::now() + deadline;
        self.stop_accepting();

        // Wait for every accepted connection to be answered.
        let connections_drained = {
            let mut in_flight = self.shared.in_flight.lock().expect("in-flight lock");
            loop {
                if *in_flight == 0 {
                    break true;
                }
                let now = Instant::now();
                if now >= deadline_at {
                    break false;
                }
                let (guard, _) = self
                    .shared
                    .idle
                    .wait_timeout(in_flight, deadline_at - now)
                    .expect("in-flight lock");
                in_flight = guard;
            }
        };

        // Take the service out from under the edge (late connections see
        // `503 service_closed`) and drain its queue with what is left of
        // the budget.
        let service = self
            .shared
            .service
            .write()
            .expect("service slot")
            .take()
            .expect("service taken before shutdown");
        let remaining = deadline_at.saturating_duration_since(Instant::now());
        let service_report = service.shutdown(remaining);

        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        ShutdownReport {
            connections_drained,
            service: service_report,
        }
    }

    /// Sets `closing` and wakes the accept loop, parked in a blocking
    /// `accept`, with one loopback connection; the loop drops that
    /// connection uncounted, exits, and closes the listener. Should the
    /// wake connection fail (descriptors exhausted, loopback filtered),
    /// the loop and the idle workers it feeds are detached instead of
    /// joined, so stopping never hangs.
    fn stop_accepting(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        let Some(accept) = self.accept.take() else {
            return;
        };
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = accept.join();
        } else {
            self.workers.clear();
        }
    }
}

impl Drop for Server {
    /// Unbounded graceful stop: closes the listener, drains accepted
    /// connections and the service queue without a deadline. For a
    /// bounded stop use [`Server::shutdown`].
    fn drop(&mut self) {
        self.stop_accepting();
        {
            let mut in_flight = self.shared.in_flight.lock().expect("in-flight lock");
            while *in_flight > 0 {
                in_flight = self.shared.idle.wait(in_flight).expect("in-flight lock");
            }
        }
        drop(self.shared.service.write().expect("service slot").take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Blocks in `accept` until shutdown; every accepted stream is counted
/// in-flight *before* entering the worker hand-off queue. A connection
/// accepted once `closing` is set (the shutdown wake, or a client racing
/// it) is dropped uncounted and ends the loop. Dropping `tx` on exit is
/// what terminates the idle workers.
fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &mpsc::Sender<TcpStream>) {
    loop {
        let accepted = listener.accept();
        if shared.closing.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                *shared.in_flight.lock().expect("in-flight lock") += 1;
                if tx.send(stream).is_err() {
                    return;
                }
            }
            // A persistent error (e.g. `EMFILE`) must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        let stream = match rx.lock().expect("hand-off lock").recv() {
            Ok(stream) => stream,
            Err(_) => return,
        };
        handle_connection(shared, stream);
        let mut in_flight = shared.in_flight.lock().expect("in-flight lock");
        *in_flight -= 1;
        drop(in_flight);
        shared.idle.notify_all();
    }
}

/// Serves one connection: read one request (bounded by the configured
/// timeouts and body ceiling), route it, answer, close. A peer that
/// stalls mid-request past the read timeout gets `408 Request Timeout`
/// instead of pinning this worker.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    let mut reader = BufReader::new(&stream);
    let response = match read_request_limited(&mut reader, shared.config.max_body) {
        Err(e) if is_timeout(&e) => error_response(
            408,
            "request_timeout",
            "connection idle past the read timeout before a complete request arrived",
        ),
        Err(_) | Ok(ReadOutcome::Closed) => return,
        Ok(ReadOutcome::Invalid(e)) => invalid_response(&e),
        // A panicking handler fails this request, not the worker: an
        // unwound worker would leave its connection counted in flight
        // forever. Handlers only read-lock the service slot, and a read
        // guard does not poison on unwind.
        Ok(ReadOutcome::Request(req)) => {
            panic::catch_unwind(AssertUnwindSafe(|| route(shared, &req)))
                .unwrap_or_else(|_| error_response(500, "internal", "the request handler panicked"))
        }
    };
    let _ = response.write_to(&mut &stream);
}

/// `true` for the error kinds a timed-out socket read surfaces
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn invalid_response(e: &ParseError) -> Response {
    let status = match e {
        ParseError::Malformed(_) => 400,
        ParseError::TooLarge(_) => 413,
        ParseError::UnsupportedFraming => 501,
    };
    error_response(status, "bad_request", &e.to_string())
}

fn error_response(status: u16, code: &str, error: &str) -> Response {
    let body = serde_json::to_string_pretty(&ErrorReply {
        code: code.into(),
        error: error.into(),
    })
    .expect("serialize error body");
    Response::new(status).with_body(JSON_MIME, body.into_bytes())
}

fn json_response<T: serde::Serialize>(status: u16, body: &T) -> Response {
    let body = serde_json::to_string_pretty(body).expect("serialize body");
    Response::new(status).with_body(JSON_MIME, body.into_bytes())
}

/// Maps a [`ServeError`] onto its HTTP answer (status, stable code,
/// taxonomy headers).
fn serve_error_response(e: &ServeError) -> Response {
    let (status, code) = match e {
        ServeError::ModelNotFound(_) => (404, "model_not_found"),
        ServeError::ModelExists(_) => (409, "model_exists"),
        ServeError::InvalidRequest(_) => (400, "invalid_request"),
        ServeError::TrainConflict { .. } => (409, "train_conflict"),
        ServeError::VersionNotFound { .. } => (404, "version_not_found"),
        ServeError::QueueFull { .. } => (429, "queue_full"),
        ServeError::Overloaded { .. } => (429, "overloaded"),
        ServeError::DeadlineExceeded => (504, "deadline_exceeded"),
        ServeError::SubstrateFault { .. } => (500, "substrate_fault"),
        ServeError::ShardRestarted { .. } => (503, "shard_restarted"),
        ServeError::ServiceClosed => (503, "service_closed"),
        ServeError::Disconnected => (500, "disconnected"),
        _ => (500, "internal"),
    };
    let mut response = error_response(status, code, &e.to_string());
    if let ServeError::QueueFull { retry_after } | ServeError::Overloaded { retry_after } = e {
        // RFC Retry-After is whole seconds; round up so a client that
        // honors it never retries early. The exact hint rides alongside,
        // also rounded up so a sub-millisecond estimate never degrades
        // to a zero (i.e. retry-immediately) hint.
        let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
        let millis = retry_after.as_nanos().div_ceil(1_000_000).max(1);
        response = response
            .with_header("Retry-After", secs.to_string())
            .with_header(headers::RETRY_AFTER_MS, millis.to_string());
    }
    response
}

fn route(shared: &Shared, req: &Request) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => health(shared),
        ("GET", ["v1", "models"]) => with_service(shared, list_models),
        ("GET", ["v1", "stats"]) => {
            with_service(shared, |service| json_response(200, &service.stats()))
        }
        ("POST", ["v1", "models", name, "sample"]) => {
            with_service(shared, |service| sample(service, name, req))
        }
        ("POST", ["v1", "models", name, "train"]) => {
            with_service(shared, |service| train(service, name, req))
        }
        ("POST", ["v1", "models", name, "rollback"]) => {
            with_service(shared, |service| rollback(service, name, req))
        }
        ("POST", ["v1", "admin", "snapshot"]) => snapshot(shared),
        ("GET" | "POST", _) => error_response(404, "not_found", &format!("no route {path}")),
        (method, _) => error_response(405, "method_not_allowed", &format!("{method} {path}")),
    }
}

/// Runs `f` against the live service, or answers `503 service_closed`
/// once shutdown has taken it. The read lock is held for the whole
/// request, so shutdown's take() naturally waits for in-flight work.
fn with_service(shared: &Shared, f: impl FnOnce(&SamplingService) -> Response) -> Response {
    let guard = shared.service.read().expect("service slot");
    match guard.as_ref() {
        Some(service) => f(service),
        None => error_response(503, "service_closed", "service is shut down"),
    }
}

fn health(shared: &Shared) -> Response {
    let guard = shared.service.read().expect("service slot");
    let (status, shards) = match guard.as_ref() {
        Some(service) if !shared.closing.load(Ordering::SeqCst) => ("ok", service.shards()),
        Some(service) => ("draining", service.shards()),
        None => ("draining", 0),
    };
    json_response(
        200,
        &Health {
            status: status.into(),
            shards,
        },
    )
}

fn list_models(service: &SamplingService) -> Response {
    let registry = service.registry();
    let models = registry
        .names()
        .into_iter()
        .filter_map(|name| {
            registry.get(&name).map(|snapshot| ModelInfo {
                name,
                version: snapshot.version,
                visible: snapshot.rbm.visible_len(),
                hidden: snapshot.rbm.hidden_len(),
            })
        })
        .collect();
    json_response(200, &ModelList { models })
}

/// `POST /v1/models/{name}/sample`: assemble the [`SampleRequest`] from
/// either encoding, run it, answer in the negotiated encoding.
fn sample(service: &SamplingService, name: &str, req: &Request) -> Response {
    let request = match build_sample_request(name, req) {
        Ok(request) => request,
        Err(response) => return *response,
    };
    let wants_binary = req
        .header("Accept")
        .is_some_and(|accept| accept.contains(WIRE_MIME));
    let response = match service.sample(request) {
        Ok(response) => response,
        Err(e) => return serve_error_response(&e),
    };

    let meta = |r: Response| {
        r.with_header(headers::SHARD, response.shard.to_string())
            .with_header(headers::MODEL_VERSION, response.model_version.to_string())
            .with_header(headers::COALESCED_ROWS, response.coalesced_rows.to_string())
            .with_header(headers::DEGRADED, u8::from(response.degraded).to_string())
    };
    if wants_binary {
        let flags = if response.degraded {
            wire::FLAG_DEGRADED
        } else {
            0
        };
        match wire::encode_samples(&response.samples, response.model_version, flags) {
            Ok(bytes) => meta(Response::new(200).with_body(WIRE_MIME, bytes)),
            Err(e) => error_response(500, "wire_encode", &e.to_string()),
        }
    } else {
        let samples = response.samples.rows().map(|row| row.to_vec()).collect();
        meta(json_response(
            200,
            &SampleReply {
                samples,
                shard: response.shard,
                model_version: response.model_version,
                coalesced_rows: response.coalesced_rows,
                degraded: response.degraded,
            },
        ))
    }
}

/// Builds the service request from the HTTP request: knobs from the
/// JSON body or (for binary clamp uploads) from `X-Ember-*` headers.
fn build_sample_request(name: &str, req: &Request) -> Result<SampleRequest, Box<Response>> {
    let bad = |msg: &str| Box::new(error_response(400, "invalid_request", msg));
    let mut request = SampleRequest::new(name);

    let body_is_binary = req
        .header("Content-Type")
        .is_some_and(|ct| ct.contains(WIRE_MIME));
    if body_is_binary {
        let decoded = wire::decode(&req.body).map_err(|e| bad(&e.to_string()))?;
        if decoded.header.rows != 1 {
            return Err(bad(&format!(
                "binary clamp upload must be a single row, got {}",
                decoded.header.rows
            )));
        }
        let clamp: Array1<f64> = decoded.to_dense().row(0).to_owned();
        request = request.with_clamp(clamp);
    } else {
        let parsed = parse_sample_body(&req.body).map_err(|e| bad(&e))?;
        if let Some(n) = parsed.n_samples {
            request = request.with_samples(n);
        }
        if let Some(k) = parsed.gibbs_steps {
            request = request.with_gibbs_steps(k);
        }
        if let Some(seed) = parsed.seed {
            request = request.with_seed(seed);
        }
        if let Some(clamp) = parsed.clamp {
            request = request.with_clamp(Array1::from_vec(clamp));
        }
    }

    // Knob headers apply to both encodings (binary requests have
    // nowhere else to put them; on JSON requests they override the
    // body's values).
    let header_u64 = |name: &str| -> Result<Option<u64>, Box<Response>> {
        match req.header(name) {
            None => Ok(None),
            Some(raw) => raw
                .trim()
                .parse::<u64>()
                .map(Some)
                .map_err(|_| bad(&format!("`{name}` header must be an integer, got {raw:?}"))),
        }
    };
    if let Some(n) = header_u64(headers::SAMPLES)? {
        request = request.with_samples(n as usize);
    }
    if let Some(k) = header_u64(headers::GIBBS_STEPS)? {
        request = request.with_gibbs_steps(k as usize);
    }
    if let Some(seed) = header_u64(headers::SEED)? {
        request = request.with_seed(seed);
    }
    if let Some(ms) = header_u64(headers::TIMEOUT_MS)? {
        request = request.with_deadline_in(Duration::from_millis(ms));
    }
    if let Some(raw) = req.header(headers::PRIORITY) {
        let priority = Priority::parse(raw).ok_or_else(|| {
            bad(&format!(
                "`{}` header must be `interactive` or `bulk`, got {raw:?}",
                headers::PRIORITY
            ))
        })?;
        request = request.with_priority(priority);
    }
    Ok(request)
}

/// `POST /v1/models/{name}/train`: JSON body only.
fn train(service: &SamplingService, name: &str, req: &Request) -> Response {
    let parsed = match parse_train_body(&req.body) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, "invalid_request", &e),
    };
    let rate = parsed.learning_rate;
    if parsed.cd_k == Some(0) || !rate.is_none_or(|lr| lr.is_finite() && lr > 0.0) {
        let msg = "`cd_k` must be at least 1 and `learning_rate` finite and positive";
        return error_response(400, "invalid_request", msg);
    }
    let mut request = TrainRequest::new(name, parsed.data);
    if let (Some(k), lr) = (parsed.cd_k, parsed.learning_rate) {
        request = request.with_trainer(ember_rbm::CdTrainer::new(k, lr.unwrap_or(0.05)));
    } else if let Some(lr) = parsed.learning_rate {
        request = request.with_trainer(ember_rbm::CdTrainer::new(1, lr));
    }
    if let Some(batch) = parsed.batch_size {
        request = request.with_batch_size(batch);
    }
    if let Some(epochs) = parsed.epochs {
        request = request.with_epochs(epochs);
    }
    if let Some(seed) = parsed.seed {
        request = request.with_seed(seed);
    }
    match service.train(request) {
        Ok(response) => json_response(
            200,
            &TrainReply {
                new_version: response.new_version,
                shard: response.shard,
                batches: response.stats.batches,
                reconstruction_error: response.stats.reconstruction_error,
                gradient_norm: response.stats.gradient_norm,
            },
        )
        .with_header(headers::SHARD, response.shard.to_string())
        .with_header(headers::MODEL_VERSION, response.new_version.to_string()),
        Err(e) => serve_error_response(&e),
    }
}

/// `POST /v1/models/{name}/rollback`: republish a retained version as
/// a new one. Body: `{"version": N}`.
fn rollback(service: &SamplingService, name: &str, req: &Request) -> Response {
    let version = match parse_rollback_body(&req.body) {
        Ok(version) => version,
        Err(e) => return error_response(400, "invalid_request", &e),
    };
    match service.rollback(name, version) {
        Ok(new_version) => json_response(
            200,
            &RollbackReply {
                new_version,
                rolled_back_to: version,
            },
        )
        .with_header(headers::MODEL_VERSION, new_version.to_string()),
        Err(e) => serve_error_response(&e),
    }
}

/// `POST /v1/admin/snapshot`: seal a durable snapshot on the attached
/// [`SnapshotDaemon`], synchronously on this worker.
fn snapshot(shared: &Shared) -> Response {
    let Some(daemon) = shared.config.persistence.as_ref() else {
        return error_response(
            503,
            "no_persistence",
            "this server was started without a snapshot store",
        );
    };
    match daemon.snapshot_now() {
        Ok(report) => json_response(
            200,
            &SnapshotReply {
                sequence: report.sequence,
                file: report.file,
                bytes: report.bytes as u64,
                models: report.models,
                versions: report.versions,
            },
        ),
        Err(e) => error_response(500, "snapshot_failed", &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::tests::Counting;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A binary sample answer and an error answer each leave the edge in
    /// one `write` (30 and 14 when written piece by piece).
    #[test]
    fn edge_answers_leave_in_one_write() {
        let mut rng = StdRng::seed_from_u64(7);
        let rbm = ember_rbm::Rbm::random(23, 9, 0.4, &mut rng);
        let spec = ember_core::SubstrateSpec::software(ember_core::GsConfig::default());
        let service = SamplingService::builder().shards(1).build();
        service
            .register_model("m", rbm, spec.fabricate(23, 9, &mut rng))
            .unwrap();
        let req = Request {
            method: "POST".into(),
            path: "/v1/models/m/sample".into(),
            headers: vec![("Accept".into(), WIRE_MIME.into())],
            body: br#"{"seed": 7}"#.to_vec(),
        };
        let binary = sample(&service, "m", &req);
        assert_eq!(binary.header("Content-Type"), Some(WIRE_MIME));
        let error = error_response(400, "invalid_request", "bad knob");
        let writes = [binary, error].map(|answer| {
            let mut w = Counting::default();
            answer.write_to(&mut w).unwrap();
            w.writes
        });
        assert_eq!(writes, [1, 1], "binary sample and error answers");
    }

    /// Stopping closes the listener before it returns: the blocking
    /// accept loop was woken and joined, not left parked.
    #[test]
    fn stopped_server_refuses_connections() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = Server::start(bind, SamplingService::builder().shards(1).build()).unwrap();
            let port = server.addr().port();
            let report = server.shutdown(Duration::from_secs(5));
            assert!(report.connections_drained, "{bind}");
            let err = TcpStream::connect(("127.0.0.1", port)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{bind}");
        }

        let server =
            Server::start("127.0.0.1:0", SamplingService::builder().shards(1).build()).unwrap();
        let addr = server.addr();
        drop(server);
        let err = TcpStream::connect(addr).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }
}
