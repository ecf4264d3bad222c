//! The measured loops: each workload's traffic against its entry point,
//! with client-side timing of every request and the raw material for
//! the correctness check.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ndarray::Array2;

use ember_http::{proto, SampleOptions};
use ember_rbm::Rbm;
use ember_serve::{
    batch, ModelRegistry, Priority, ResponseHandle, SampleRequest, SampleResponse, TrainRequest,
    TrainResponse,
};

use crate::env::{Env, Target, MODEL, TRAINED};
use crate::gen::{checked, Inputs, Op, SampleOp, Stream, Workload, TRAIN_BATCH, WAVE};
use crate::trace::Tracer;

/// A served response kept for the correctness check.
#[derive(Debug)]
pub struct Check {
    /// The request as generated.
    pub op: SampleOp,
    /// The parameters of the version that served it.
    pub rbm: Arc<Rbm>,
    /// The served bits, dense.
    pub samples: Array2<f64>,
}

/// What one measured loop observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Client-side latency of every answered sample request (of every
    /// fully answered wave on the wave workload), ns.
    pub latency_ns: Vec<u64>,
    /// Sample requests (waves) attempted.
    pub latency_attempted: u64,
    /// Operations answered.
    pub answered: u64,
    /// Latency of every answered training request, ns.
    pub train_ns: Vec<u64>,
    /// How late each request was sent: behind its schedule on the open
    /// loop, after the previous answer on the closed loops, ns.
    pub late_ns: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Wall time from the first send to the last answer.
    pub elapsed: Duration,
    /// Process CPU time over the loop, ms.
    pub cpu_ms: f64,
    /// CPU time stolen from the machine by its hypervisor over the loop,
    /// ms.
    pub steal_ms: f64,
    /// Responses kept for the correctness check.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Sample requests (waves) answered within `limit_ms`, over those
    /// attempted (a failed request misses).
    pub fn slo_ok_ratio(&self, limit_ms: f64) -> f64 {
        let limit = (limit_ms * 1e6) as u64;
        let ok = self.latency_ns.iter().filter(|&&ns| ns <= limit).count();
        ok as f64 / self.latency_attempted.max(1) as f64
    }
}

/// One in this many responses is re-computed and checked.
fn check_every(workload: Workload) -> u64 {
    match workload {
        Workload::LoneHttp => 16,
        Workload::Wave => 64,
        Workload::Mixed => 32,
    }
}

/// The in-process request for a generated sample op.
pub fn sample_request(op: &SampleOp, inputs: &Inputs) -> SampleRequest {
    let priority = if op.bulk {
        Priority::Bulk
    } else {
        Priority::Interactive
    };
    SampleRequest::new(MODEL)
        .with_samples(op.n_samples)
        .with_gibbs_steps(op.gibbs_steps)
        .with_clamp(inputs.clamps[op.clamp].clone())
        .with_seed(op.seed)
        .with_priority(priority)
}

/// The in-process training request for a generated train op on `model`.
pub fn train_request(model: &str, set: usize, seed: u64, inputs: &Inputs) -> TrainRequest {
    TrainRequest::new(model, inputs.train_sets[set].clone())
        .with_batch_size(TRAIN_BATCH)
        .with_seed(seed)
}

/// The HTTP options for a generated sample op (binary wire format both
/// ways).
pub fn sample_options(op: &SampleOp, inputs: &Inputs) -> SampleOptions {
    let priority = if op.bulk {
        Priority::Bulk
    } else {
        Priority::Interactive
    };
    SampleOptions::new()
        .samples(op.n_samples)
        .gibbs_steps(op.gibbs_steps)
        .seed(op.seed)
        .clamp(
            inputs.clamps[op.clamp]
                .iter()
                .copied()
                .collect::<Vec<f64>>(),
        )
        .binary_clamp(true)
        .priority(priority)
}

/// Keeps at most this many model versions alive for checking, so the
/// check does not inflate peak memory.
const MAX_CHECKED_VERSIONS: usize = 16;

/// Chooses which responses to keep for the check and holds the model
/// versions they need.
struct Checker {
    seed: u64,
    every: u64,
    versions: BTreeMap<u64, Arc<Rbm>>,
    checks: Vec<Check>,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Checker {
        Checker {
            seed,
            every: check_every(workload),
            versions: BTreeMap::new(),
            checks: Vec::new(),
        }
    }

    fn wants(&self, index: u64) -> bool {
        checked(self.seed, index, self.every)
    }

    /// Keeps `samples` for `op`, served from `version`, if the version is
    /// still retained (or already held) and the version budget allows.
    fn keep(&mut self, registry: &ModelRegistry, op: SampleOp, version: u64, samples: Array2<f64>) {
        let rbm = match self.versions.get(&version) {
            Some(rbm) => Arc::clone(rbm),
            None => {
                // Spread the version budget over the run: a new version
                // is taken only every few publishes.
                let spaced = self
                    .versions
                    .keys()
                    .next_back()
                    .is_none_or(|&last| version >= last + 6);
                if self.versions.len() >= MAX_CHECKED_VERSIONS || !spaced {
                    return;
                }
                let Some(rbm) = registry.get_version(MODEL, version) else {
                    return;
                };
                self.versions.insert(version, Arc::clone(&rbm));
                rbm
            }
        };
        self.checks.push(Check { op, rbm, samples });
    }
}

/// Runs `workload`'s traffic for `window` and returns what the client
/// saw. With a tracer, every request is wrapped in spans.
pub fn drive(
    env: &Env,
    inputs: &Inputs,
    stream: &mut Stream,
    seed: u64,
    window: Duration,
    tracer: Option<&mut Tracer>,
) -> Outcome {
    let (cpu0, steal0) = (crate::report::cpu_ms(), crate::report::steal_ms());
    let mut out = match env.workload {
        Workload::LoneHttp => drive_lone(env, inputs, stream, seed, window, tracer),
        Workload::Wave => drive_wave(env, inputs, stream, seed, window, tracer),
        Workload::Mixed => drive_mixed(env, inputs, stream, seed, window, tracer),
    };
    out.cpu_ms = crate::report::cpu_ms() - cpu0;
    out.steal_ms = crate::report::steal_ms() - steal0;
    out
}

/// Closed loop over HTTP: after each answer, the client thinks for the
/// seeded gap, then sends the next request.
fn drive_lone(
    env: &Env,
    inputs: &Inputs,
    stream: &mut Stream,
    seed: u64,
    window: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let Target::Http { client, .. } = &env.target else {
        panic!("lone-http runs over HTTP");
    };
    let mut out = Outcome::default();
    let mut checker = Checker::new(env.workload, seed);
    let start = Instant::now();
    let mut prev_done = start;
    let mut index = 0u64;
    while prev_done < start + window {
        let (op, think) = stream.next_op();
        let op = *op.sample().expect("closed loops only sample");
        let options = sample_options(&op, inputs);
        let due = prev_done + think;
        sleep_until(due);
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("request", None, index));
        let sent = Instant::now();
        let result = client.sample_binary(MODEL, &options);
        let done = Instant::now();
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.record("http.call", Some(root), index, sent, done);
            t.close(root);
        }
        out.late_ns
            .push(sent.saturating_duration_since(due).as_nanos() as u64);
        out.attempted += 1;
        out.latency_attempted += 1;
        match result {
            Ok(reply) => {
                out.answered += 1;
                out.latency_ns.push((done - sent).as_nanos() as u64);
                if checker.wants(index) {
                    checker.keep(&env.registry, op, reply.model_version(), reply.to_dense());
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("request {index} failed: {e}");
            }
        }
        prev_done = done;
        index += 1;
    }
    out.elapsed = prev_done - start;
    out.checks = checker.checks;
    out
}

/// Closed loop in-process: submit a wave, wait for all of it, repeat.
/// A wave's latency runs from its first submit to its last answer.
fn drive_wave(
    env: &Env,
    inputs: &Inputs,
    stream: &mut Stream,
    seed: u64,
    window: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let service = env.service();
    let mut out = Outcome::default();
    let mut checker = Checker::new(env.workload, seed);
    let start = Instant::now();
    let mut prev_done = start;
    let mut index = 0u64;
    let mut wave_index = 0u64;
    while prev_done < start + window {
        let ops: Vec<SampleOp> = (0..WAVE)
            .map(|_| {
                *stream
                    .next_op()
                    .0
                    .sample()
                    .expect("closed loops only sample")
            })
            .collect();
        let requests: Vec<SampleRequest> =
            ops.iter().map(|op| sample_request(op, inputs)).collect();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("wave", None, wave_index));
        let sent = Instant::now();
        out.late_ns.push((sent - prev_done).as_nanos() as u64);
        let mut handles: Vec<_> = requests.into_iter().map(|r| service.submit(r)).collect();
        let waits_from = Instant::now();
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.record("serve.submit", Some(root), wave_index, sent, waits_from);
        }
        // Block once per wave, on the last request: groups form and answer
        // in submission order, so when it is answered every earlier one
        // is too. Waiting on each in turn would wake the client 64 times
        // per wave, and those wake-ups cost the shard time whenever the
        // scheduler puts both threads on one core.
        let last = handles.pop().map(|h| h.and_then(ResponseHandle::wait));
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.and_then(ResponseHandle::wait))
            .chain(last)
            .collect();
        let mut whole = true;
        for (op, result) in ops.into_iter().zip(results) {
            out.attempted += 1;
            match result {
                Ok(response) => {
                    out.answered += 1;
                    if checker.wants(index) {
                        checker.keep(&env.registry, op, response.model_version, response.samples);
                    }
                }
                Err(e) => {
                    whole = false;
                    out.failed += 1;
                    eprintln!("request {index} failed: {e}");
                }
            }
            index += 1;
        }
        prev_done = Instant::now();
        out.latency_attempted += 1;
        if whole {
            out.latency_ns.push((prev_done - sent).as_nanos() as u64);
        }
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.record("serve.wait", Some(root), wave_index, waits_from, prev_done);
            t.close(root);
        }
        wave_index += 1;
    }
    out.elapsed = prev_done - start;
    out.checks = checker.checks;
    out
}

/// A submitted open-loop operation awaiting its answer.
enum Pending {
    Sample {
        index: u64,
        due: Instant,
        op: SampleOp,
        handle: ResponseHandle<SampleResponse>,
    },
    Train {
        index: u64,
        due: Instant,
        handle: ResponseHandle<TrainResponse>,
    },
}

fn sleep_until(target: Instant) {
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// Open loop: one thread sends on the seeded Poisson schedule, one
/// collects. Training requests come from a single writer, so a train
/// arrival whose predecessor is still running is held until it
/// publishes (two concurrent trainings would race the same version);
/// its latency still counts from its scheduled time.
fn drive_mixed(
    env: &Env,
    inputs: &Inputs,
    stream: &mut Stream,
    seed: u64,
    window: Duration,
    tracer: Option<&mut Tracer>,
) -> Outcome {
    let service = env.service();
    let mut plan: Vec<(Op, Duration)> = Vec::new();
    let mut at = Duration::ZERO;
    loop {
        let (op, gap) = stream.next_op();
        at += gap;
        if at >= window {
            break;
        }
        plan.push((op, at));
    }
    let traced = tracer.is_some();
    let epoch = tracer.as_ref().map_or_else(Instant::now, |t| t.epoch());
    let train_busy = &AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now() + Duration::from_millis(1);

    let (mut out, collected, submit_tracer) = std::thread::scope(|s| {
        let registry = &env.registry;
        let collector = s.spawn(move || {
            collect(
                registry,
                seed,
                rx,
                train_busy,
                traced.then(|| Tracer::new(epoch)),
            )
        });
        let mut out = Outcome::default();
        let mut submit_tracer = traced.then(|| Tracer::new(epoch));
        let mut held: VecDeque<HeldTrain> = VecDeque::new();
        // Submits held trainings in order while no training is running
        // (or, with `wait`, until all are submitted).
        let release = |out: &mut Outcome, held: &mut VecDeque<HeldTrain>, wait: bool| {
            while let Some(train) = held.front() {
                if train_busy.load(Ordering::SeqCst) {
                    if !wait {
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(POLL_US));
                    continue;
                }
                out.attempted += 1;
                train_busy.store(true, Ordering::SeqCst);
                match service.submit_train(train_request(MODEL, train.set, train.seed, inputs)) {
                    Ok(handle) => {
                        let _ = tx.send(Pending::Train {
                            index: train.index,
                            due: train.due,
                            handle,
                        });
                    }
                    Err(e) => {
                        train_busy.store(false, Ordering::SeqCst);
                        out.failed += 1;
                        eprintln!("train {} refused: {e}", train.index);
                    }
                }
                held.pop_front();
            }
        };
        for (i, (op, offset)) in plan.iter().enumerate() {
            let index = i as u64;
            let due = start + *offset;
            release(&mut out, &mut held, false);
            match op {
                Op::Sample(op) => {
                    let request = sample_request(op, inputs);
                    sleep_until(due);
                    let sent = Instant::now();
                    out.late_ns.push((sent - due).as_nanos() as u64);
                    out.attempted += 1;
                    out.latency_attempted += 1;
                    match service.submit(request) {
                        Ok(handle) => {
                            let _ = tx.send(Pending::Sample {
                                index,
                                due,
                                op: *op,
                                handle,
                            });
                        }
                        Err(e) => {
                            out.failed += 1;
                            eprintln!("request {index} refused: {e}");
                        }
                    }
                    if let Some(t) = submit_tracer.as_mut() {
                        t.record("serve.submit", None, index, sent, Instant::now());
                    }
                }
                &Op::Train { set, seed } => {
                    sleep_until(due);
                    out.late_ns.push((Instant::now() - due).as_nanos() as u64);
                    held.push_back(HeldTrain {
                        index,
                        due,
                        set,
                        seed,
                    });
                    release(&mut out, &mut held, false);
                }
            }
        }
        release(&mut out, &mut held, true);
        drop(tx);
        let collected = collector.join().expect("collector thread");
        (out, collected, submit_tracer)
    });
    if let Some(t) = tracer {
        for other in [collected.tracer, submit_tracer].into_iter().flatten() {
            t.absorb(other);
        }
    }
    out.latency_ns = collected.out.latency_ns;
    out.train_ns = collected.out.train_ns;
    out.answered = collected.out.answered;
    out.failed += collected.out.failed;
    out.checks = collected.out.checks;
    out.elapsed = collected.last_done.saturating_duration_since(start);
    out
}

/// A training arrival waiting for the previous training to publish.
struct HeldTrain {
    index: u64,
    due: Instant,
    set: usize,
    seed: u64,
}

/// How often the collector polls outstanding handles when none has
/// answered: the resolution of the open loop's completion stamps.
const POLL_US: u64 = 200;

struct Collected {
    out: Outcome,
    last_done: Instant,
    tracer: Option<Tracer>,
}

/// The collecting thread: polls every outstanding handle and stamps each
/// answer when it is seen (within about [`POLL_US`]).
fn collect(
    registry: &ModelRegistry,
    seed: u64,
    rx: mpsc::Receiver<Pending>,
    train_busy: &AtomicBool,
    mut tracer: Option<Tracer>,
) -> Collected {
    let mut out = Outcome::default();
    let mut checker = Checker::new(Workload::Mixed, seed);
    let mut pending: Vec<Pending> = Vec::new();
    let mut last_done = Instant::now();
    let mut open = true;
    loop {
        if pending.is_empty() {
            if !open {
                break;
            }
            match rx.recv() {
                Ok(p) => pending.push(p),
                Err(_) => break,
            }
        }
        while let Ok(p) = rx.try_recv() {
            pending.push(p);
        }
        let before = pending.len();
        let now = Instant::now();
        pending.retain(|p| {
            match p {
                Pending::Sample {
                    index,
                    due,
                    op,
                    handle,
                } => match handle.try_wait() {
                    None => return true,
                    Some(Ok(response)) => {
                        out.answered += 1;
                        out.latency_ns.push((now - *due).as_nanos() as u64);
                        if checker.wants(*index) {
                            checker.keep(registry, *op, response.model_version, response.samples);
                        }
                    }
                    Some(Err(e)) => {
                        out.failed += 1;
                        eprintln!("request {index} failed: {e}");
                    }
                },
                Pending::Train { index, due, handle } => match handle.try_wait() {
                    None => return true,
                    Some(result) => {
                        train_busy.store(false, Ordering::SeqCst);
                        match result {
                            Ok(_) => {
                                out.answered += 1;
                                out.train_ns.push((now - *due).as_nanos() as u64);
                            }
                            Err(e) => {
                                out.failed += 1;
                                eprintln!("train {index} failed: {e}");
                            }
                        }
                    }
                },
            }
            let (index, due) = match p {
                Pending::Sample { index, due, .. } | Pending::Train { index, due, .. } => {
                    (*index, *due)
                }
            };
            if let Some(t) = tracer.as_mut() {
                t.record("request", None, index, due, now);
            }
            last_done = now;
            false
        });
        if pending.len() == before {
            match rx.recv_timeout(Duration::from_micros(POLL_US)) {
                Ok(p) => pending.push(p),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    open = false;
                    if !pending.is_empty() {
                        std::thread::sleep(Duration::from_micros(POLL_US));
                    }
                }
            }
        }
    }
    out.checks = checker.checks;
    Collected {
        out,
        last_done,
        tracer,
    }
}

/// Training latency through the workload's own entry point, for the
/// closed-loop workloads whose traffic has no training: `count` training
/// requests of the mixed workload's shape on [`TRAINED`], one at a time,
/// while the loop is paused (over HTTP on `lone-http-784x200`).
pub fn train_probe(env: &Env, inputs: &Inputs, seed: u64, count: usize, out: &mut Outcome) {
    for i in 0..count {
        let set = i % inputs.train_sets.len();
        let train_seed = seed.wrapping_add(i as u64);
        let started = Instant::now();
        let result = match &env.target {
            Target::Http { server, .. } => {
                http_train(server.addr(), &inputs.train_sets[set], train_seed)
            }
            Target::InProc(service) => service
                .train(train_request(TRAINED, set, train_seed, inputs))
                .map(|_| ())
                .map_err(|e| e.to_string()),
        };
        out.attempted += 1;
        match result {
            Ok(()) => {
                out.answered += 1;
                out.train_ns.push(started.elapsed().as_nanos() as u64);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("train probe {i} failed: {e}");
            }
        }
    }
}

/// `POST /v1/models/t/train` with the JSON body the edge accepts, at the
/// mixed workload's batch size (the stock client sends no batch size).
fn http_train(addr: SocketAddr, data: &Array2<f64>, seed: u64) -> Result<(), String> {
    use serde::Value;
    let rows = data
        .rows()
        .map(|row| Value::Seq(row.iter().map(|&x| Value::Float(x)).collect()))
        .collect();
    let body = serde_json::to_string(&Value::Map(vec![
        ("data".into(), Value::Seq(rows)),
        ("batch_size".into(), Value::UInt(TRAIN_BATCH as u64)),
        ("epochs".into(), Value::UInt(1)),
        ("seed".into(), Value::UInt(seed)),
    ]))
    .map_err(|e| e.to_string())?;
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let head = format!(
        "POST /v1/models/{TRAINED}/train HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| e.to_string())?;
    let response = proto::read_response(&mut BufReader::new(stream)).map_err(|e| e.to_string())?;
    if response.status == 200 {
        Ok(())
    } else {
        Err(format!(
            "status {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ))
    }
}

/// Recomputes every kept response on a fresh replica of the registered
/// prototype programmed with the serving version, and returns
/// `(checked, mismatches)`.
pub fn verify(env: &Env, inputs: &Inputs, checks: &[Check]) -> (u64, u64) {
    let mut mismatches = 0u64;
    let mut by_version: BTreeMap<*const Rbm, Vec<&Check>> = BTreeMap::new();
    for check in checks {
        by_version
            .entry(Arc::as_ptr(&check.rbm))
            .or_default()
            .push(check);
    }
    for group in by_version.values() {
        let rbm = &group[0].rbm;
        let mut replica = env.proto.clone_boxed();
        replica.program(
            &rbm.weights().view(),
            &rbm.visible_bias().view(),
            &rbm.hidden_bias().view(),
        );
        for check in group {
            let request = sample_request(&check.op, inputs);
            let rows = batch::expand_request(&request, check.op.seed);
            let expected = batch::sample_rows(&mut *replica, &rows, check.op.gibbs_steps);
            if expected != check.samples {
                mismatches += 1;
            }
        }
    }
    (checks.len() as u64, mismatches)
}
