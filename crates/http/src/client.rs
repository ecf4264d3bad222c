//! A small blocking client for the edge, speaking both encodings.
//!
//! One TCP connection per request (the server answers
//! `Connection: close`), so the client is trivially `Send`/`Sync`-free
//! state-wise — clone the address and fan out across threads.
//!
//! [`Client::with_retry`] layers the serving crate's
//! [`RetryPolicy`](ember_core::RetryPolicy) over every call: `429`
//! backpressure answers are always retried (honoring the server's
//! `Retry-After` / `X-Ember-Retry-After-Ms` hints), transient `503`s
//! only on **idempotent** requests (reads and seeded sampling — never
//! train, rollback, or snapshot, which mutate state the client cannot
//! prove was not applied).

use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ndarray::Array1;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ember_core::RetryPolicy;
use ember_serve::{Priority, ServiceStats};

use crate::json::{
    ErrorReply, Health, ModelList, RollbackReply, SampleReply, SnapshotReply, TrainReply, JSON_MIME,
};
use crate::proto::{read_response, write_request, Response};
use crate::server::headers;
use crate::wire::{self, WireError, WireSamples, WIRE_MIME};

/// Errors surfaced by [`Client`] calls.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect/read/write).
    Io(io::Error),
    /// The server answered with a non-2xx status; the typed error body
    /// and taxonomy headers are attached.
    Http {
        /// HTTP status code.
        status: u16,
        /// Stable machine-readable code from the error body.
        code: String,
        /// Human-readable description from the error body.
        error: String,
        /// The backlog-drain hint of a `429` (from
        /// `X-Ember-Retry-After-Ms`, falling back to `Retry-After`
        /// seconds).
        retry_after: Option<Duration>,
    },
    /// A 2xx body failed to decode (JSON shape or wire format).
    Decode(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Http {
                status,
                code,
                error,
                ..
            } => write!(f, "HTTP {status} ({code}): {error}"),
            ClientError::Decode(what) => write!(f, "undecodable response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Decode(e.to_string())
    }
}

impl ClientError {
    /// The `retry_after` hint if this is a `429 queue_full` answer.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Http { retry_after, .. } => *retry_after,
            _ => None,
        }
    }

    /// The HTTP status, if the server answered at all.
    pub fn status(&self) -> Option<u16> {
        match self {
            ClientError::Http { status, .. } => Some(*status),
            _ => None,
        }
    }
}

/// Knobs of a sample request, shared by both encodings.
#[derive(Debug, Clone, Default)]
pub struct SampleOptions {
    /// Chains to draw (`None` = server default of 1).
    pub n_samples: Option<usize>,
    /// Gibbs steps per chain (`None` = server default of 1).
    pub gibbs_steps: Option<usize>,
    /// Master seed for bit-reproducible responses.
    pub seed: Option<u64>,
    /// Initial visible levels shared by every chain.
    pub clamp: Option<Vec<f64>>,
    /// Upload the clamp as binary wire bits instead of JSON (requires
    /// every clamp level to be exactly 0.0 or 1.0).
    pub binary_clamp: bool,
    /// Request deadline, sent as `X-Ember-Timeout-Ms`.
    pub timeout: Option<Duration>,
    /// Scheduling lane, sent as `X-Ember-Priority` (`None` = server
    /// default of `Interactive`).
    pub priority: Option<Priority>,
}

impl SampleOptions {
    /// All server defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy requesting `n` samples.
    #[must_use]
    pub fn samples(mut self, n: usize) -> Self {
        self.n_samples = Some(n);
        self
    }

    /// Returns a copy taking `k` Gibbs steps per chain.
    #[must_use]
    pub fn gibbs_steps(mut self, k: usize) -> Self {
        self.gibbs_steps = Some(k);
        self
    }

    /// Returns a copy with a fixed master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Returns a copy with every chain starting from `levels`.
    #[must_use]
    pub fn clamp(mut self, levels: impl Into<Vec<f64>>) -> Self {
        self.clamp = Some(levels.into());
        self
    }

    /// Returns a copy uploading the clamp as wire bits.
    #[must_use]
    pub fn binary_clamp(mut self, on: bool) -> Self {
        self.binary_clamp = on;
        self
    }

    /// Returns a copy that expires `budget` after submission.
    #[must_use]
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.timeout = Some(budget);
        self
    }

    /// Returns a copy scheduled on the given priority lane.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = Some(priority);
        self
    }
}

/// A binary-wire sample response plus the metadata headers it rode with.
#[derive(Debug, Clone)]
pub struct BinarySample {
    /// The decoded wire payload (header + packed bits).
    pub samples: WireSamples,
    /// Executing shard (`X-Ember-Shard`).
    pub shard: usize,
    /// Coalesced batch rows (`X-Ember-Coalesced-Rows`).
    pub coalesced_rows: usize,
    /// Bytes of the response body on the wire.
    pub body_bytes: usize,
}

/// A JSON sample response plus its on-wire body size.
#[derive(Debug, Clone)]
pub struct JsonSample {
    /// The decoded reply.
    pub reply: SampleReply,
    /// Bytes of the response body on the wire.
    pub body_bytes: usize,
}

/// One retry costs this many milli-tokens from the budget bucket.
const RETRY_COST_MTOK: u64 = 1_000;

/// Seeded retry state shared by every clone of a retrying client: the
/// policy, an attempt counter that derives a fresh deterministic jitter
/// stream per backoff, and the **retry budget** — a token bucket that
/// caps how many retries the client may issue per success it observes.
///
/// Per-call `max_retries` bounds one request's persistence; the budget
/// bounds the *fleet effect*: during a brownout every call fails, every
/// call would retry `max_retries` times, and the offered load multiplies
/// exactly when the server can least afford it. With the bucket, a
/// run of failures drains the budget and further failures surface
/// immediately — the client sheds its own retry amplification — while
/// each success refills a token and restores normal retrying.
#[derive(Debug)]
struct RetryState {
    policy: RetryPolicy,
    seed: u64,
    counter: AtomicU64,
    /// Remaining budget in milli-tokens (1 retry = 1000 mtok).
    budget_mtok: AtomicU64,
    /// Bucket capacity in milli-tokens.
    capacity_mtok: u64,
    /// Milli-tokens refunded per successful response.
    refill_mtok: u64,
}

impl RetryState {
    /// Takes one retry's worth of budget; `false` when the bucket is
    /// too empty (the caller must surface the error instead of
    /// retrying).
    fn try_spend(&self) -> bool {
        let mut current = self.budget_mtok.load(Ordering::Relaxed);
        loop {
            if current < RETRY_COST_MTOK {
                return false;
            }
            match self.budget_mtok.compare_exchange_weak(
                current,
                current - RETRY_COST_MTOK,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Refills the bucket by one success's worth, capped at capacity.
    fn refund(&self) {
        let mut current = self.budget_mtok.load(Ordering::Relaxed);
        loop {
            let next = current
                .saturating_add(self.refill_mtok)
                .min(self.capacity_mtok);
            if next == current {
                return;
            }
            match self.budget_mtok.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }
}

/// Blocking HTTP client for an [`crate::Server`] edge.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    retry: Option<Arc<RetryState>>,
}

impl Client {
    /// A client for the edge at `addr` (no retries; every transient
    /// failure surfaces immediately).
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, retry: None }
    }

    /// Returns a copy that retries transient failures under `policy`
    /// with jitter seeded by `seed` (deterministic backoff schedules
    /// for tests; share one seed fleet-wide and the per-attempt counter
    /// still decorrelates the streams).
    ///
    /// Retried: `429 queue_full` / `429 overloaded` on **every** request
    /// (the server explicitly asked for a later retry and its
    /// `Retry-After` / `X-Ember-Retry-After-Ms` hints are honored as a
    /// lower bound on the pause), and `503` on **idempotent** requests
    /// only — reads and seeded sampling, never train/rollback/snapshot.
    ///
    /// Retries draw from a shared **retry budget** (default: 10 tokens,
    /// one refunded per success — tune with [`Client::retry_budget`]):
    /// during a sustained brownout the budget drains and further
    /// failures surface immediately instead of multiplying the offered
    /// load, which is exactly when the server can least afford extra
    /// traffic.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy, seed: u64) -> Self {
        const DEFAULT_CAPACITY: u64 = 10 * RETRY_COST_MTOK;
        self.retry = Some(Arc::new(RetryState {
            policy,
            seed,
            counter: AtomicU64::new(0),
            budget_mtok: AtomicU64::new(DEFAULT_CAPACITY),
            capacity_mtok: DEFAULT_CAPACITY,
            refill_mtok: RETRY_COST_MTOK,
        }));
        self
    }

    /// Returns a copy whose retry budget holds `capacity` tokens
    /// (starting full; 1 retry = 1 token) and refunds
    /// `refill_per_success` tokens per successful response. Call after
    /// [`Client::with_retry`].
    ///
    /// # Panics
    ///
    /// Panics when no retry policy is configured.
    #[must_use]
    pub fn retry_budget(mut self, capacity: u32, refill_per_success: f64) -> Self {
        let state = self
            .retry
            .as_ref()
            .expect("retry_budget requires with_retry first");
        let capacity_mtok = u64::from(capacity) * RETRY_COST_MTOK;
        self.retry = Some(Arc::new(RetryState {
            policy: state.policy,
            seed: state.seed,
            counter: AtomicU64::new(0),
            budget_mtok: AtomicU64::new(capacity_mtok),
            capacity_mtok,
            refill_mtok: (refill_per_success.max(0.0) * RETRY_COST_MTOK as f64) as u64,
        }));
        self
    }

    /// The edge address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` when `e` may be answered differently by a later attempt:
    /// `429` always (explicit backpressure), `503` only when the
    /// request is safe to replay.
    fn transient(e: &ClientError, idempotent: bool) -> bool {
        match e.status() {
            Some(429) => true,
            Some(503) => idempotent,
            _ => false,
        }
    }

    /// One attempt plus up to `policy.max_retries` replays on transient
    /// failures. The pause before retry `k` is the policy's jittered
    /// exponential backoff, raised to any server `Retry-After` hint and
    /// capped at the policy's `max_backoff`.
    fn roundtrip(
        &self,
        method: &str,
        path: &str,
        extra_headers: &[(String, String)],
        content_type: Option<&str>,
        body: &[u8],
        idempotent: bool,
    ) -> Result<Response, ClientError> {
        let Some(state) = self.retry.as_ref() else {
            return self.roundtrip_once(method, path, extra_headers, content_type, body);
        };
        let mut attempt = 0u32;
        loop {
            match self.roundtrip_once(method, path, extra_headers, content_type, body) {
                Ok(response) => {
                    state.refund();
                    return Ok(response);
                }
                Err(e) => {
                    attempt += 1;
                    if attempt > state.policy.max_retries || !Self::transient(&e, idempotent) {
                        return Err(e);
                    }
                    if !state.try_spend() {
                        // Budget exhausted: surface the failure instead
                        // of adding retry load to a browning-out server.
                        return Err(e);
                    }
                    let lane = state.counter.fetch_add(1, Ordering::Relaxed);
                    let mut rng = StdRng::seed_from_u64(
                        state.seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut pause = state.policy.backoff(attempt, &mut rng);
                    if let Some(hint) = e.retry_after() {
                        pause = pause.max(hint);
                    }
                    std::thread::sleep(pause.min(state.policy.max_backoff));
                }
            }
        }
    }

    fn roundtrip_once(
        &self,
        method: &str,
        path: &str,
        extra_headers: &[(String, String)],
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<Response, ClientError> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        write_request(
            &mut stream,
            method,
            path,
            self.addr,
            extra_headers,
            content_type,
            body,
        )?;
        let response = read_response(&mut BufReader::new(stream))?;
        if (200..300).contains(&response.status) {
            return Ok(response);
        }
        // Non-2xx: decode the typed error body.
        let retry_after = response
            .header(headers::RETRY_AFTER_MS)
            .and_then(|ms| ms.trim().parse::<u64>().ok().map(Duration::from_millis))
            .or_else(|| {
                response
                    .header("Retry-After")
                    .and_then(|s| s.trim().parse::<u64>().ok().map(Duration::from_secs))
            });
        let (code, error) = match std::str::from_utf8(&response.body)
            .ok()
            .and_then(|text| serde_json::from_str::<ErrorReply>(text).ok())
        {
            Some(reply) => (reply.code, reply.error),
            None => (
                "opaque".to_string(),
                String::from_utf8_lossy(&response.body).into_owned(),
            ),
        };
        Err(ClientError::Http {
            status: response.status,
            code,
            error,
            retry_after,
        })
    }

    fn decode_json<T: serde::de::DeserializeOwned>(response: &Response) -> Result<T, ClientError> {
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| ClientError::Decode("non-UTF-8 JSON body".into()))?;
        serde_json::from_str(text).map_err(|e| ClientError::Decode(e.to_string()))
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, HTTP, or decode failure.
    pub fn health(&self) -> Result<Health, ClientError> {
        let response = self.roundtrip("GET", "/healthz", &[], None, &[], true)?;
        Self::decode_json(&response)
    }

    /// `GET /v1/models`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, HTTP, or decode failure.
    pub fn models(&self) -> Result<ModelList, ClientError> {
        let response = self.roundtrip("GET", "/v1/models", &[], None, &[], true)?;
        Self::decode_json(&response)
    }

    /// `GET /v1/stats`: the service's accounting snapshot.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, HTTP, or decode failure.
    pub fn stats(&self) -> Result<ServiceStats, ClientError> {
        let response = self.roundtrip("GET", "/v1/stats", &[], None, &[], true)?;
        Self::decode_json(&response)
    }

    fn sample_headers(options: &SampleOptions) -> Vec<(String, String)> {
        let mut extra = Vec::new();
        if let Some(ms) = options.timeout {
            extra.push((headers::TIMEOUT_MS.to_string(), ms.as_millis().to_string()));
        }
        if let Some(priority) = options.priority {
            extra.push((headers::PRIORITY.to_string(), priority.as_str().to_string()));
        }
        extra
    }

    fn json_sample_body(options: &SampleOptions) -> Vec<u8> {
        // Assemble by hand so omitted knobs stay omitted (the lenient
        // server-side parser fills in serving defaults).
        let mut pairs: Vec<(String, serde::Value)> = Vec::new();
        if let Some(n) = options.n_samples {
            pairs.push(("n_samples".into(), serde::Value::UInt(n as u64)));
        }
        if let Some(k) = options.gibbs_steps {
            pairs.push(("gibbs_steps".into(), serde::Value::UInt(k as u64)));
        }
        if let Some(seed) = options.seed {
            pairs.push(("seed".into(), serde::Value::UInt(seed)));
        }
        if let Some(clamp) = &options.clamp {
            pairs.push((
                "clamp".into(),
                serde::Value::Seq(clamp.iter().map(|&x| serde::Value::Float(x)).collect()),
            ));
        }
        serde_json::to_string(&serde::Value::Map(pairs))
            .expect("serialize sample body")
            .into_bytes()
    }

    /// `POST /v1/models/{model}/sample` negotiating the **binary** wire
    /// format (`Accept: application/x-ember-bits`). With
    /// [`SampleOptions::binary_clamp`], the clamp is uploaded as wire
    /// bits too and the knobs ride in `X-Ember-*` headers.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, HTTP (e.g. 429/504 taxonomy), or
    /// wire-decode failure.
    pub fn sample_binary(
        &self,
        model: &str,
        options: &SampleOptions,
    ) -> Result<BinarySample, ClientError> {
        let mut extra = Self::sample_headers(options);
        extra.push(("Accept".to_string(), WIRE_MIME.to_string()));
        let (content_type, body) = if options.binary_clamp {
            let clamp = options
                .clamp
                .as_ref()
                .ok_or_else(|| ClientError::Decode("binary_clamp set without a clamp".into()))?;
            let row = ndarray::Array2::from_shape_vec((1, clamp.len()), clamp.clone())
                .map_err(|e| ClientError::Decode(e.to_string()))?;
            let bytes = wire::encode_samples(&row, 0, 0)?;
            // Binary bodies have no JSON fields: every knob goes in a
            // header.
            if let Some(n) = options.n_samples {
                extra.push((headers::SAMPLES.to_string(), n.to_string()));
            }
            if let Some(k) = options.gibbs_steps {
                extra.push((headers::GIBBS_STEPS.to_string(), k.to_string()));
            }
            if let Some(seed) = options.seed {
                extra.push((headers::SEED.to_string(), seed.to_string()));
            }
            (WIRE_MIME, bytes)
        } else {
            (JSON_MIME, Self::json_sample_body(options))
        };
        let response = self.roundtrip(
            "POST",
            &format!("/v1/models/{model}/sample"),
            &extra,
            Some(content_type),
            &body,
            true, // sampling mutates nothing; a replay is safe
        )?;
        let body_bytes = response.body.len();
        let samples = wire::decode(&response.body)?;
        let header_usize = |name: &str| {
            response
                .header(name)
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(0)
        };
        Ok(BinarySample {
            samples,
            shard: header_usize(headers::SHARD),
            coalesced_rows: header_usize(headers::COALESCED_ROWS),
            body_bytes,
        })
    }

    /// `POST /v1/models/{model}/sample` with the JSON fallback encoding
    /// on both sides.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, HTTP, or decode failure.
    pub fn sample_json(
        &self,
        model: &str,
        options: &SampleOptions,
    ) -> Result<JsonSample, ClientError> {
        let extra = Self::sample_headers(options);
        let body = Self::json_sample_body(options);
        let response = self.roundtrip(
            "POST",
            &format!("/v1/models/{model}/sample"),
            &extra,
            Some(JSON_MIME),
            &body,
            true, // sampling mutates nothing; a replay is safe
        )?;
        let body_bytes = response.body.len();
        let reply = Self::decode_json(&response)?;
        Ok(JsonSample { reply, body_bytes })
    }

    /// `POST /v1/models/{model}/train`: run CD-k on `data` and publish a
    /// new model version.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, HTTP, or decode failure.
    pub fn train(
        &self,
        model: &str,
        data: &ndarray::Array2<f64>,
        epochs: usize,
        seed: u64,
    ) -> Result<TrainReply, ClientError> {
        let response = self.roundtrip(
            "POST",
            &format!("/v1/models/{model}/train"),
            &[],
            Some(JSON_MIME),
            &train_body(data, epochs, seed),
            false, // a replayed train would publish a second version
        )?;
        Self::decode_json(&response)
    }

    /// `POST /v1/models/{model}/rollback`: republish retained `version`
    /// as a new one. Not retried on `503` — a replay could republish
    /// twice.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, HTTP (`404 version_not_found` when
    /// the version was evicted from history), or decode failure.
    pub fn rollback(&self, model: &str, version: u64) -> Result<RollbackReply, ClientError> {
        let body = serde_json::to_string(&serde::Value::Map(vec![(
            "version".into(),
            serde::Value::UInt(version),
        )]))
        .expect("serialize rollback body")
        .into_bytes();
        let response = self.roundtrip(
            "POST",
            &format!("/v1/models/{model}/rollback"),
            &[],
            Some(JSON_MIME),
            &body,
            false,
        )?;
        Self::decode_json(&response)
    }

    /// `POST /v1/admin/snapshot`: seal a durable snapshot now. Answers
    /// `503 no_persistence` when the server runs without a store. Not
    /// retried — a replay would burn a second snapshot sequence.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, HTTP, or decode failure.
    pub fn snapshot(&self) -> Result<SnapshotReply, ClientError> {
        let response = self.roundtrip("POST", "/v1/admin/snapshot", &[], None, &[], false)?;
        Self::decode_json(&response)
    }
}

/// The JSON body of [`Client::train`], `{"data":[[…],…],"epochs":…,"seed":…}`,
/// written row by row with no value tree in between. Each level goes
/// through `serde_json`'s one number writer, so the bytes are those
/// `serde_json::to_string` gives for the same rows as a tree.
fn train_body(data: &ndarray::Array2<f64>, epochs: usize, seed: u64) -> Vec<u8> {
    let mut body = String::from("{\"data\":[");
    for (i, row) in data.rows().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, &x) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            serde_json::write_f64(x, &mut body);
        }
        body.push(']');
    }
    // Writing to a `String` cannot fail.
    let _ = write!(body, "],\"epochs\":{epochs},\"seed\":{seed}}}");
    body.into_bytes()
}

/// Convenience for callers that want dense samples out of a binary
/// response without touching the wire types.
impl BinarySample {
    /// The samples as a dense 0.0/1.0 matrix.
    pub fn to_dense(&self) -> ndarray::Array2<f64> {
        self.samples.to_dense()
    }

    /// Model version the samples were drawn from (wire header).
    pub fn model_version(&self) -> u64 {
        self.samples.header.model_version
    }

    /// `true` when served by the degraded fallback (wire flag).
    pub fn degraded(&self) -> bool {
        self.samples.header.degraded()
    }

    /// The clamp row as `Array1` — helper for tests comparing uploads.
    pub fn row(&self, r: usize) -> Array1<f64> {
        self.to_dense().row(r).to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The body as `Client::train` built it from a value tree.
    fn tree_body(data: &ndarray::Array2<f64>, epochs: usize, seed: u64) -> Vec<u8> {
        let rows: Vec<serde::Value> = data
            .rows()
            .map(|row| serde::Value::Seq(row.iter().map(|&x| serde::Value::Float(x)).collect()))
            .collect();
        serde_json::to_string(&serde::Value::Map(vec![
            ("data".into(), serde::Value::Seq(rows)),
            ("epochs".into(), serde::Value::UInt(epochs as u64)),
            ("seed".into(), serde::Value::UInt(seed)),
        ]))
        .expect("serialize train body")
        .into_bytes()
    }

    #[test]
    fn the_train_body_is_written_as_the_tree_wrote_it() {
        let special = [
            0.0,
            -0.0,
            1.0,
            f64::NAN,
            f64::INFINITY,
            1e15,
            -1e15,
            1e16,
            999_999_999_999_999.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            0.1,
        ];
        let mut rng = StdRng::seed_from_u64(0x7EA1);
        for case in 0..200 {
            let (rows, cols) = (rng.random_range(0..=6), rng.random_range(0..=6));
            let data =
                ndarray::Array2::from_shape_fn((rows, cols), |_| match rng.random_range(0..4) {
                    0 => special[rng.random_range(0..special.len())],
                    1 => f64::from(rng.random_range(0..2u8)),
                    2 => rng.random_range(-1e17..1e17f64).trunc(),
                    _ => rng.random_range(-1.0..1.0) * 10f64.powi(rng.random_range(-310..310)),
                });
            let (epochs, seed) = (rng.random_range(0..100), rng.random::<u64>());
            assert_eq!(
                String::from_utf8(train_body(&data, epochs, seed)).unwrap(),
                String::from_utf8(tree_body(&data, epochs, seed)).unwrap(),
                "case {case}"
            );
        }
    }
}
