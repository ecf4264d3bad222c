//! Per-layer measurements: each layer's public entry point timed from
//! the benchmark on the workload's own requests (inside spans), plus an
//! exact count pass.

use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ndarray::Array2;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use ember_core::kernels::{binary_gemm, BitMatrix};
use ember_core::{SoftwareGibbs, Substrate};
use ember_http::{proto, wire, Client};
use ember_rbm::Rbm;
use ember_serve::batch::{self, ChainRequest};
use ember_serve::{ModelRegistry, ResponseHandle, ServiceStats};
use ember_substrate::HardwareCounters;

use crate::drive::{sample_options, sample_request, train_request};
use crate::env::{
    fabricate, fabricate_software, service_builder, Env, Target, HTTP_WORKERS, MODEL,
};
use crate::gen::{Inputs, Op, SampleOp, Stream, Workload, TRAIN_BATCH, WAVE};
use crate::report::{median, quantile};
use crate::trace::Tracer;

/// Sample requests replayed by the layer probes (lone and mixed; the
/// wave replays one whole wave).
const PROBE_OPS: usize = 32;
/// Every timing probe runs at least this many rounds, and at most this
/// many more once its time budget is spent.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 40;

/// Whether a probe that has run `rounds` rounds since `started` goes on.
fn another_round(rounds: usize, started: Instant, budget: Duration) -> bool {
    rounds < MIN_ROUNDS || (rounds < MAX_ROUNDS && started.elapsed() < budget)
}

/// The counter totals over every shard.
pub fn total_counters(stats: &ServiceStats) -> HardwareCounters {
    let mut total = HardwareCounters::new();
    for shard in &stats.shards {
        total.merge(&shard.counters);
    }
    total
}

/// Exact per-operation counts from the count pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Heap allocations per operation, all threads.
    pub allocs: f64,
    /// Heap bytes requested per operation.
    pub alloc_bytes: f64,
    /// Host words programmed per operation.
    pub program_words: f64,
    /// Substrate phase points per operation.
    pub phase_points: f64,
}

/// The count pass: the workload's first operations, one at a time (one
/// wave at a time on the wave), on a fresh copy of its service with one
/// shard (and one HTTP worker), after a fixed warm-up, so that no count
/// depends on which thread picks up which request.
///
/// Each counted wave is submitted while the shard is busy with a
/// `blocker` request of another step count, so the shard gathers the
/// whole wave in one pass into one 64-row group; the blocker's own cost,
/// counted in a pass of blockers alone, is subtracted.
pub fn count_pass(workload: Workload, seed: u64, inputs: &Inputs) -> Counts {
    let builder = service_builder(workload).shards(1);
    let http = (workload == Workload::LoneHttp).then_some(1);
    let env = Env::setup_with(workload, seed, builder, http);
    let (warm, counted) = match workload {
        Workload::Wave => (WAVE, 2 * WAVE),
        Workload::LoneHttp | Workload::Mixed => (16, PROBE_OPS),
    };
    let ops: Vec<Op> = Stream::take(workload, seed, warm + counted)
        .into_iter()
        .map(|(op, _)| op)
        .collect();
    run_ops(&env, inputs, &ops[..warm]);
    let measure = |work: &dyn Fn()| -> (u64, u64, HardwareCounters) {
        let stats0 = env.stats();
        let (a0, b0) = crate::alloc::snapshot();
        work();
        let (a1, b1) = crate::alloc::snapshot();
        let stats1 = env.stats();
        let delta = total_counters(&stats1).delta_since(&total_counters(&stats0));
        (a1 - a0, b1 - b0, delta)
    };
    let (mut allocs, mut bytes, mut delta) = measure(&|| run_ops(&env, inputs, &ops[warm..]));
    if workload == Workload::Wave {
        let (a, b, d) = measure(&|| {
            for _ in 0..counted / WAVE {
                behind_blocker(env.service(), inputs, Vec::new);
            }
        });
        allocs -= a;
        bytes -= b;
        delta = delta.delta_since(&d);
    }
    env.shutdown();
    let per = counted as f64;
    Counts {
        allocs: allocs as f64 / per,
        alloc_bytes: bytes as f64 / per,
        program_words: delta.host_words_transferred as f64 / per,
        phase_points: delta.phase_points as f64 / per,
    }
}

/// Submits a 64-row, 10-step blocker, gives the shard time to take it,
/// runs `submit` while the shard is busy with it, then waits for
/// everything.
fn behind_blocker(
    service: &ember_serve::SamplingService,
    inputs: &Inputs,
    submit: impl FnOnce() -> Vec<ResponseHandle<ember_serve::SampleResponse>>,
) {
    let blocker = ember_serve::SampleRequest::new(MODEL)
        .with_samples(WAVE)
        .with_gibbs_steps(10)
        .with_clamp(inputs.clamps[0].clone())
        .with_seed(0);
    let blocker = service.submit(blocker).expect("blocker accepted");
    std::thread::sleep(Duration::from_millis(2));
    let mut handles = submit();
    blocker.wait().expect("blocker served");
    // As in the measured loop, block only on the last request (answered
    // last), so no other wait ever blocks and registers a waker.
    if let Some(last) = handles.pop() {
        last.wait().expect("count-pass request served");
    }
    for handle in handles {
        handle.wait().expect("count-pass request served");
    }
}

/// Runs `ops` one at a time (a wave at a time, behind a blocker, on the
/// wave workload).
fn run_ops(env: &Env, inputs: &Inputs, ops: &[Op]) {
    match &env.target {
        Target::Http { client, .. } => {
            for op in ops {
                let op = op.sample().expect("the HTTP workload only samples");
                client
                    .sample_binary(MODEL, &sample_options(op, inputs))
                    .expect("count-pass request served");
            }
        }
        Target::InProc(service) if env.workload == Workload::Wave => {
            for wave in ops.chunks(WAVE) {
                behind_blocker(service, inputs, || {
                    wave.iter()
                        .map(|op| {
                            let op = op.sample().expect("the wave only samples");
                            service
                                .submit(sample_request(op, inputs))
                                .expect("count-pass request accepted")
                        })
                        .collect()
                });
            }
        }
        Target::InProc(service) => {
            for op in ops {
                match *op {
                    Op::Sample(s) => {
                        service
                            .sample(sample_request(&s, inputs))
                            .expect("count-pass request served");
                    }
                    Op::Train { set, seed } => {
                        service
                            .train(train_request(MODEL, set, seed, inputs))
                            .expect("count-pass training served");
                    }
                }
            }
        }
    }
}

/// The sample requests the layer probes replay, in groups of
/// `group_rows` requests (the wave's first wave) or each alone (the
/// first requests of the other workloads).
fn probe_groups(workload: Workload, seed: u64, group_rows: usize) -> Vec<Vec<SampleOp>> {
    let count = if workload == Workload::Wave {
        WAVE
    } else {
        PROBE_OPS
    };
    let mut stream = Stream::new(workload, seed);
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        if let Op::Sample(op) = stream.next_op().0 {
            ops.push(op);
        }
    }
    if workload == Workload::Wave {
        ops.chunks(group_rows.clamp(1, WAVE))
            .map(<[SampleOp]>::to_vec)
            .collect()
    } else {
        ops.into_iter().map(|op| vec![op]).collect()
    }
}

/// HTTP-edge layer figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpLayer {
    /// Median HTTP latency minus median in-process latency, same
    /// requests, ms.
    pub overhead_ms: f64,
    /// Request parse per request, µs.
    pub parse_us: f64,
    /// Response encode per request, µs.
    pub encode_us: f64,
    /// Clamp plus response decode per request, µs.
    pub decode_us: f64,
    /// Bytes both ways per request.
    pub bytes_per_req: f64,
    /// TCP connections per request.
    pub conns_per_req: f64,
}

/// The workload's probe requests sent one at a time over loopback HTTP
/// to a fresh edge with the workload's service configuration: bytes and
/// connections counted by a relay, latency against the same requests
/// in-process, and the codec calls timed on the captured bytes.
pub fn http_probe(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    tracer: &mut Tracer,
    budget: Duration,
) -> HttpLayer {
    let ops: Vec<SampleOp> = probe_groups(workload, seed, 1)
        .into_iter()
        .flatten()
        .collect();
    // The probe's requests go one at a time, so on the wave a coalescing
    // window would only add its own length to each.
    let builder = || match workload {
        Workload::Wave => service_builder(workload).coalesce_window(Duration::ZERO),
        Workload::LoneHttp | Workload::Mixed => service_builder(workload),
    };
    let edge = Env::setup_with(workload, seed, builder(), Some(HTTP_WORKERS));
    let local = Env::setup_with(workload, seed, builder(), None);
    let Target::Http { server, client } = &edge.target else {
        unreachable!("set up behind the edge");
    };

    let relay = Relay::start(server.addr()).expect("start the counting relay");
    let relayed = Client::new(relay.addr);
    for op in &ops {
        relayed
            .sample_binary(MODEL, &sample_options(op, inputs))
            .expect("relayed request served");
    }
    let log = relay.finish();
    let n = ops.len() as f64;
    let bytes: usize = log
        .exchanges
        .iter()
        .map(|(up, down)| up.len() + down.len())
        .sum();

    let started = Instant::now();
    let (mut over_http, mut in_process) = (Vec::new(), Vec::new());
    let mut rounds = 0;
    while another_round(rounds, started, budget / 2) {
        for op in &ops {
            let t = Instant::now();
            client
                .sample_binary(MODEL, &sample_options(op, inputs))
                .expect("probe request served");
            over_http.push(t.elapsed().as_nanos() as u64);
            let request = sample_request(op, inputs);
            let t = Instant::now();
            local
                .service()
                .sample(request)
                .expect("probe request served");
            in_process.push(t.elapsed().as_nanos() as u64);
        }
        rounds += 1;
    }
    edge.shutdown();
    local.shutdown();

    let mut replays = 0u64;
    let codec_from = Instant::now();
    let mut rounds = 0;
    while another_round(rounds, codec_from, budget / 2) {
        rounds += 1;
        for (up, down) in &log.exchanges {
            let id = replays;
            let root = tracer.open("http.replay", None, id);
            let parsed = tracer.time("http.parse", Some(root), id, || {
                proto::read_request_limited(&mut Cursor::new(up), proto::MAX_BODY)
            });
            let Ok(proto::ReadOutcome::Request(request)) = parsed else {
                panic!("captured request does not parse");
            };
            let response = proto::read_response(&mut Cursor::new(down)).expect("captured response");
            let clamp = tracer.time("http.decode", Some(root), id, || {
                wire::decode(&request.body)
            });
            std::hint::black_box(clamp.expect("captured clamp decodes"));
            let samples = tracer
                .time("http.decode", Some(root), id, || {
                    wire::decode(&response.body)
                })
                .expect("captured response decodes");
            let encoded = tracer.time("http.encode", Some(root), id, || {
                wire::encode_bits(
                    &samples.bits,
                    samples.header.model_version,
                    samples.header.flags,
                )
            });
            assert_eq!(
                encoded, response.body,
                "re-encoding reproduces the served body"
            );
            tracer.close(root);
            replays += 1;
        }
    }
    let per = Some(replays as f64);
    HttpLayer {
        overhead_ms: (quantile(&over_http, 0.5) as f64 - quantile(&in_process, 0.5) as f64) / 1e6,
        parse_us: tracer.self_us("http.parse", per),
        encode_us: tracer.self_us("http.encode", per),
        decode_us: tracer.self_us("http.decode", per),
        bytes_per_req: bytes as f64 / n,
        conns_per_req: log.conns as f64 / n,
    }
}

/// What a [`Relay`] saw.
#[derive(Debug, Default)]
struct RelayLog {
    conns: u64,
    /// Per connection: client-to-server bytes, server-to-client bytes.
    exchanges: Vec<(Vec<u8>, Vec<u8>)>,
}

/// A loopback TCP relay in front of the edge that counts connections and
/// captures the bytes of each, one connection at a time.
struct Relay {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<RelayLog>,
}

impl Relay {
    fn start(upstream: SocketAddr) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut log = RelayLog::default();
            for conn in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = conn else { continue };
                log.conns += 1;
                match relay_one(client, upstream) {
                    Ok(exchange) => log.exchanges.push(exchange),
                    Err(e) => eprintln!("relay: {e}"),
                }
            }
            log
        });
        Ok(Relay { addr, stop, handle })
    }

    fn finish(self) -> RelayLog {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so the thread sees the flag.
        drop(TcpStream::connect(self.addr));
        self.handle.join().expect("relay thread")
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream) -> Vec<u8> {
    let mut seen = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match from.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                seen.extend_from_slice(&chunk[..n]);
                if to.write_all(&chunk[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    seen
}

fn relay_one(client: TcpStream, upstream: SocketAddr) -> std::io::Result<(Vec<u8>, Vec<u8>)> {
    let server = TcpStream::connect(upstream)?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let (client_in, server_out) = (client.try_clone()?, server.try_clone()?);
    let up = std::thread::spawn(move || pump(client_in, server_out));
    let down = pump(server, client);
    let up = up.join().expect("relay pump thread");
    Ok((up, down))
}

/// Substrate and kernel layer figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubstrateLayer {
    /// `Substrate::program` per call, µs.
    pub program_us: f64,
    /// `batch::sample_rows` per request, µs.
    pub sample_rows_us: f64,
    /// `BitMatrix::from_batch` over the chain's half-steps, per request, µs.
    pub pack_us: f64,
    /// `binary_gemm` over the chain's half-steps, per request, µs.
    pub gemm_us: f64,
    /// Half-step time not spent packing or in the field product, per
    /// request, µs.
    pub latch_us: f64,
    /// Set input bits × output width over the chain, per request.
    pub macs_per_req: f64,
}

/// Times `Substrate::program` and `batch::sample_rows` on the
/// workload's fabricated software substrate at its group shapes (on the
/// wave, groups of `group_rows`, the mean the service formed), and
/// re-runs each chain half-step by half-step on the same substrate,
/// timing the pack and the field product of each half-step's input
/// beside the whole half-step. The manual chain must reproduce
/// `sample_rows` bit for bit.
pub fn substrate_probe(
    workload: Workload,
    seed: u64,
    group_rows: usize,
    inputs: &Inputs,
    tracer: &mut Tracer,
    budget: Duration,
) -> SubstrateLayer {
    let groups = probe_groups(workload, seed, group_rows);
    let requests: usize = groups.iter().map(Vec::len).sum();
    let (rbm, mut twin) = fabricate_software(workload, seed);
    let w = twin.programmed_weights().clone();
    let wt = w.t().to_owned();
    let mut macs = 0u64;
    let mut rounds = 0usize;
    let started = Instant::now();
    while another_round(rounds, started, budget) {
        for (g, group) in groups.iter().enumerate() {
            let id = (rounds * groups.len() + g) as u64;
            let rows: Vec<ChainRequest> = group
                .iter()
                .flat_map(|op| batch::expand_request(&sample_request(op, inputs), op.seed))
                .collect();
            let steps = group[0].gibbs_steps;
            let root = tracer.open("substrate.replay", None, id);
            tracer.time("substrate.program", Some(root), id, || {
                twin.program(
                    &rbm.weights().view(),
                    &rbm.visible_bias().view(),
                    &rbm.hidden_bias().view(),
                );
            });
            let served = tracer.time("substrate.sample_rows", Some(root), id, || {
                batch::sample_rows(&mut twin, &rows, steps)
            });
            tracer.close(root);

            let root = tracer.open("kernels.replay", None, id);
            let (chained, chain_macs) =
                kernel_chain(&mut twin, &w, &wt, &rows, steps, tracer, root, id);
            tracer.close(root);
            assert_eq!(
                chained, served,
                "the half-step chain reproduces sample_rows"
            );
            if rounds == 0 {
                macs += chain_macs;
            }
        }
        rounds += 1;
    }
    let calls = (rounds * groups.len()) as f64;
    let per_req = Some((rounds * requests) as f64);
    let half_steps = tracer.self_us("kernels.half_step", per_req);
    let pack = tracer.self_us("kernels.pack", per_req);
    let gemm = tracer.self_us("kernels.gemm", per_req);
    SubstrateLayer {
        program_us: tracer.self_us("substrate.program", Some(calls)),
        sample_rows_us: tracer.self_us("substrate.sample_rows", per_req),
        pack_us: pack,
        gemm_us: gemm,
        latch_us: half_steps - pack - gemm,
        macs_per_req: macs as f64 / requests as f64,
    }
}

/// `batch::sample_rows` unrolled into its half-steps (same RNG streams,
/// same order), each timed whole; then every half-step's input packed
/// and multiplied on its own, in the same order. The half-steps run
/// right after `sample_rows` warmed the substrate's weights, so the
/// pack-and-multiply pass is run once untimed to warm the copies it
/// reads. Returns the final visible states and the MAC count.
#[allow(clippy::too_many_arguments)]
fn kernel_chain(
    sub: &mut SoftwareGibbs,
    w: &Array2<f64>,
    wt: &Array2<f64>,
    rows: &[ChainRequest],
    steps: usize,
    tracer: &mut Tracer,
    root: usize,
    id: u64,
) -> (Array2<f64>, u64) {
    let mut rngs: Vec<StdRng> = rows.iter().map(|r| StdRng::seed_from_u64(r.seed)).collect();
    let mut v = Array2::zeros((rows.len(), sub.visible_len()));
    for (mut out, row) in v.axis_iter_mut(ndarray::Axis(0)).zip(rows) {
        out.assign(row.init.as_ref().expect("benchmark requests are clamped"));
    }
    let mut inputs: Vec<(Array2<f64>, bool)> = Vec::with_capacity(2 * steps);
    let mut half = |input: &Array2<f64>, rev: bool, tracer: &mut Tracer| {
        inputs.push((input.clone(), rev));
        let mut lanes: Vec<&mut dyn RngCore> =
            rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        tracer.time("kernels.half_step", Some(root), id, || {
            if rev {
                sub.sample_visible_batch_rows(input, &mut lanes)
            } else {
                sub.sample_hidden_batch_rows(input, &mut lanes)
            }
        })
    };
    let mut h = half(&v, false, tracer);
    for step in 0..steps {
        v = half(&h, true, tracer);
        if step + 1 < steps {
            h = half(&v, false, tracer);
        }
    }
    for (input, rev) in &inputs {
        let bits = BitMatrix::from_batch(input).expect("binary chain states");
        std::hint::black_box(binary_gemm(&bits, if *rev { wt } else { w }, None));
    }
    let mut macs = 0u64;
    for (input, rev) in &inputs {
        let weights = if *rev { wt } else { w };
        let bits = tracer
            .time("kernels.pack", Some(root), id, || {
                BitMatrix::from_batch(input)
            })
            .expect("binary chain states");
        macs += (bits.count_ones() * weights.ncols()) as u64;
        let fields = tracer.time("kernels.gemm", Some(root), id, || {
            binary_gemm(&bits, weights, None)
        });
        std::hint::black_box(fields);
    }
    (v, macs)
}

/// Training-layer figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainLayer {
    /// `ModelRegistry::publish` per call, µs.
    pub publish_us: f64,
    /// `CdTrainer::train_epoch_with` per training request, ms.
    pub train_ms: f64,
    /// Host MACs counted per training request.
    pub host_macs: f64,
}

/// Times `CdTrainer::train_epoch_with` on the mixed workload's training
/// shape (64 rows, batch 16, CD-1) on a fresh replica, and
/// `ModelRegistry::publish` of the trained model into a scratch
/// registry.
pub fn train_probe(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    tracer: &mut Tracer,
    budget: Duration,
) -> TrainLayer {
    let (rbm, proto) = fabricate(workload, seed);
    let registry = ModelRegistry::new();
    registry
        .register(MODEL, rbm.clone())
        .expect("scratch registry");
    let trainer = train_request(MODEL, 0, seed, inputs).trainer;
    let mut host_macs = Vec::new();
    let mut rounds = 0usize;
    let started = Instant::now();
    while another_round(rounds, started, budget) {
        let id = rounds as u64;
        let set = rounds % inputs.train_sets.len();
        let mut model: Rbm = rbm.clone();
        let mut replica = proto.clone_boxed();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(id));
        let before = *replica.counters();
        let root = tracer.open("train.replay", None, id);
        tracer.time("rbm.train", Some(root), id, || {
            trainer.train_epoch_with(
                &mut model,
                &inputs.train_sets[set],
                TRAIN_BATCH,
                &mut *replica,
                &mut rng,
            )
        });
        tracer
            .time("serve.publish", Some(root), id, || {
                registry.publish(MODEL, model)
            })
            .expect("publish to the scratch registry");
        tracer.close(root);
        if rounds < inputs.train_sets.len() {
            host_macs.push(replica.counters().delta_since(&before).host_mac_ops as f64);
        }
        rounds += 1;
    }
    TrainLayer {
        publish_us: tracer.self_us("serve.publish", None),
        train_ms: tracer.self_us("rbm.train", None) / 1e3,
        host_macs: median(&host_macs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The count pass is the benchmark's exact-count layer: for a seed the
    /// work counts repeat exactly, and the allocation counts to within a
    /// few allocations per pass (whether a reply channel's receiver has to
    /// block, and so registers a waker, is up to the scheduler).
    #[test]
    fn count_pass_repeats_for_a_seed() {
        for workload in Workload::ALL {
            let inputs = Inputs::generate(workload, 5);
            let first = count_pass(workload, 5, &inputs);
            let second = count_pass(workload, 5, &inputs);
            assert_eq!(first.program_words, second.program_words, "{workload:?}");
            assert_eq!(first.phase_points, second.phase_points, "{workload:?}");
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-2 * a.max(b);
            assert!(
                close(first.allocs, second.allocs) && close(first.alloc_bytes, second.alloc_bytes),
                "{workload:?}: {first:?} vs {second:?}"
            );
            assert!(
                first.allocs > 0.0 && first.program_words > 0.0,
                "{workload:?}"
            );
        }
    }
}
