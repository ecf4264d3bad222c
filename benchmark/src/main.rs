//! The repository benchmark.
//!
//! ```text
//! ember-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer metrics (spans around each layer's
//! public entry point, written to `.bench_trace/`). The last line of
//! standard output is the JSON result; progress goes to standard error.
//! See `README.md` beside this crate for what each metric means.

mod alloc;
mod drive;
mod env;
mod gen;
mod probe;
mod report;
mod trace;

use std::time::{Duration, Instant};

use drive::{drive, Outcome};
use env::Env;
use gen::{Inputs, Stream, Workload};
use report::{best_eighth, median, ms, quantile, Report, END_TO_END, PER_LAYER};
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups before the first request; with one more after each segment,
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 21;
/// Traffic before any measurement, to let lazy set-up and caches settle.
const WARMUP: Duration = Duration::from_millis(500);
/// Segments of the end-to-end window.
const SEGMENTS: usize = 30;
/// Training requests timed between segments on the closed loops.
const TRAIN_PROBES: usize = 60;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ember-bench: {e}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.to_json(table));
}

/// Warm-up traffic from a stream of its own.
fn warm_up(env: &Env, inputs: &Inputs, seed: u64) {
    let mut stream = Stream::new(env.workload, seed ^ 0xA11C_E000_0000_0004);
    drive(env, inputs, &mut stream, seed, WARMUP, None);
}

fn run_end_to_end(args: &Args) -> Report {
    let (workload, seed) = (args.workload, args.seed);
    let inputs = Inputs::generate(workload, seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut env: Option<Env> = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let fresh = Env::setup(workload, seed);
        setups.push(started.elapsed().as_secs_f64());
        if let Some(old) = env.replace(fresh) {
            old.shutdown();
        }
    }
    let env = env.expect("at least one set-up");
    warm_up(&env, &inputs, seed);

    // The window runs as SEGMENTS back-to-back segments over one stream;
    // each timing is the median of its best eighth of per-segment values
    // (`best_eighth`). The shared host runs the same work up to 2x slower
    // for seconds at a time, and how much of a run that covers varies
    // from run to run; the best eighth stays in the quiet spells.
    // The closed loops time their training requests between segments, and
    // every workload times one more set-up there, so that the set-up
    // median, too, spans the host's spells over the whole run.
    let mut stream = Stream::new(workload, seed);
    let segment = Duration::from_secs(args.seconds) / SEGMENTS as u32;
    let mut segments: Vec<Outcome> = Vec::with_capacity(SEGMENTS);
    let mut trains: Vec<Outcome> = Vec::with_capacity(SEGMENTS);
    for k in 0..SEGMENTS {
        segments.push(drive(&env, &inputs, &mut stream, seed, segment, None));
        if workload != Workload::Mixed {
            let seed = seed.wrapping_add((k * TRAIN_PROBES) as u64);
            let mut gap = Outcome::default();
            drive::train_probe(&env, &inputs, seed, TRAIN_PROBES / SEGMENTS, &mut gap);
            trains.push(gap);
        }
        let started = Instant::now();
        let spare = Env::setup(workload, seed);
        setups.push(started.elapsed().as_secs_f64());
        spare.shutdown();
    }
    let checks: Vec<drive::Check> = segments
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.checks))
        .collect();
    let (checked, mismatches) = drive::verify(&env, &inputs, &checks);
    env.shutdown();

    let all = || segments.iter().chain(&trains);
    let mut report = Report {
        correct: checked > 0 && mismatches == 0,
        attempted: all().map(|s| s.attempted).sum(),
        failed: all().map(|s| s.failed).sum::<u64>() + mismatches,
        ..Report::default()
    };
    let values = |f: &dyn Fn(&Outcome) -> f64| segments.iter().map(f).collect::<Vec<_>>();
    let p50s = values(&|s| ms(quantile(&s.latency_ns, 0.50)));
    // Training medians per segment (mixed) or per pause between segments
    // (closed loops).
    let train_p50s: Vec<f64> = if workload == Workload::Mixed {
        &segments
    } else {
        &trains
    }
    .iter()
    .filter(|s| !s.train_ns.is_empty())
    .map(|s| ms(quantile(&s.train_ns, 0.50)))
    .collect();
    report.set("setup_s", median(&setups));
    report.set("latency_p50_ms", best_eighth(&p50s, false));
    // The open loop's throughput follows its arrival schedule, so its best
    // segments would only be the schedule's busiest; it is taken over the
    // whole window.
    let throughput = if workload == Workload::Mixed {
        let answered: u64 = segments.iter().map(|s| s.answered).sum();
        let elapsed: f64 = segments.iter().map(|s| s.elapsed.as_secs_f64()).sum();
        answered as f64 / elapsed
    } else {
        best_eighth(
            &values(&|s| s.answered as f64 / s.elapsed.as_secs_f64()),
            true,
        )
    };
    report.set("throughput_rps", throughput);
    report.set(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set(
        "slo_ok_ratio",
        best_eighth(&values(&|s| s.slo_ok_ratio(workload.slo_ms())), true),
    );
    report.set("train_p50_ms", best_eighth(&train_p50s, false));
    report.set(
        "cpu_ms_per_req",
        best_eighth(&values(&|s| s.cpu_ms / s.answered.max(1) as f64), false),
    );
    report.set("peak_rss_mb", report::peak_rss_mb());
    let listed = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("latency p50 per segment (ms): {}", listed(&p50s));
    eprintln!("training p50 per segment (ms): {}", listed(&train_p50s));
    let train_ns: usize = all().map(|s| s.train_ns.len()).sum();
    let samples: Vec<usize> = segments.iter().map(|s| s.latency_ns.len()).collect();
    let stolen: f64 = segments.iter().map(|s| s.steal_ms).sum();
    eprintln!(
        "{}: latency samples per segment {samples:?}, {stolen} ms of CPU stolen by the host, {} trainings, {} checked, {} mismatched, {} failed of {}",
        workload.name(),
        train_ns,
        checked,
        mismatches,
        report.failed,
        report.attempted,
    );
    report
}

/// End-to-end time per request as the layers should add up to it: mean
/// client latency, except on the wave, whose requests share one wait and
/// so are charged wall time per answer.
fn per_request_ms(workload: Workload, out: &Outcome) -> f64 {
    match workload {
        Workload::LoneHttp | Workload::Mixed => {
            out.latency_ns.iter().sum::<u64>() as f64 / 1e6 / out.latency_ns.len().max(1) as f64
        }
        Workload::Wave => out.elapsed.as_secs_f64() * 1e3 / out.answered.max(1) as f64,
    }
}

fn run_traced(args: &Args) -> Report {
    let (workload, seed) = (args.workload, args.seed);
    let inputs = Inputs::generate(workload, seed);
    let total = Duration::from_secs(args.seconds);
    let window = total.mul_f64(0.3);
    let probe_budget = total.mul_f64(0.1);

    let env = Env::setup(workload, seed);
    warm_up(&env, &inputs, seed);

    // Untraced and traced windows over the same seeded stream.
    let stats0 = env.stats();
    let mut plain = drive(
        &env,
        &inputs,
        &mut Stream::new(workload, seed),
        seed,
        window,
        None,
    );
    let stats1 = env.stats();
    let mut tracer = Tracer::new(Instant::now());
    let mut traced = drive(
        &env,
        &inputs,
        &mut Stream::new(workload, seed),
        seed,
        window,
        Some(&mut tracer),
    );
    let mut checks = std::mem::take(&mut plain.checks);
    checks.append(&mut traced.checks);
    let (checked, mismatches) = drive::verify(&env, &inputs, &checks);
    let shards = stats1.shards.len() as f64;
    env.shutdown();

    let counts = probe::count_pass(workload, seed, &inputs);
    let http = probe::http_probe(workload, seed, &inputs, &mut tracer, probe_budget);
    let train = probe::train_probe(workload, seed, &inputs, &mut tracer, probe_budget);

    // Service-side deltas over the untraced window.
    let delta = |f: fn(&ember_serve::ShardStats) -> u64| -> f64 {
        let sum = |s: &ember_serve::ServiceStats| s.shards.iter().map(f).sum::<u64>();
        (sum(&stats1) - sum(&stats0)) as f64
    };
    let rows = delta(|s| s.rows);
    let batches = delta(|s| s.batches);
    let served = delta(|s| s.sample_requests);
    let busy_ns = delta(|s| s.busy_nanos);
    let shed_in_shards = delta(|s| s.shed_requests);
    let shed_at_queue = (stats1.rejected + stats1.admission_rejected + stats1.shed_bulk)
        - (stats0.rejected + stats0.admission_rejected + stats0.shed_bulk);
    let kernels = probe::total_counters(&stats1).delta_since(&probe::total_counters(&stats0));
    let group_ms = busy_ns / batches.max(1.0) / 1e6;
    let group_rows = (rows / batches.max(1.0)).round() as usize;
    let sub = probe::substrate_probe(
        workload,
        seed,
        group_rows,
        &inputs,
        &mut tracer,
        probe_budget,
    );
    let groups_per_req = batches / served.max(1.0);
    let queue_wait = |q: f64| ms(quantile(&plain.latency_ns, q)) - group_ms;

    // The layers on each workload's blocking path, per request.
    let train_share = plain.train_ns.len() as f64 / plain.answered.max(1) as f64;
    let on_path_us = match workload {
        Workload::LoneHttp => {
            http.parse_us + http.decode_us + sub.program_us + sub.sample_rows_us + http.encode_us
        }
        Workload::Wave => sub.program_us * groups_per_req + sub.sample_rows_us,
        Workload::Mixed => {
            sub.program_us * groups_per_req
                + sub.sample_rows_us
                + train.train_ms * 1e3 * train_share
        }
    };
    let traced_ms = per_request_ms(workload, &traced);
    let plain_ms = per_request_ms(workload, &plain);

    let mut report = Report {
        correct: checked > 0 && mismatches == 0,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed + mismatches,
        ..Report::default()
    };
    report.set("http.overhead_ms", http.overhead_ms);
    report.set("http.parse_us", http.parse_us);
    report.set("http.encode_us", http.encode_us);
    report.set("http.decode_us", http.decode_us);
    report.set("http.bytes_per_req", http.bytes_per_req);
    report.set("http.conns_per_req", http.conns_per_req);
    report.set("serve.queue_wait_p50_ms", queue_wait(0.50));
    report.set("serve.queue_wait_p99_ms", queue_wait(0.99));
    report.set("serve.batch_rows_mean", rows / batches.max(1.0));
    report.set("serve.groups_per_req", groups_per_req);
    report.set("serve.group_ms", group_ms);
    report.set(
        "serve.shard_busy_ratio",
        busy_ns / 1e9 / (plain.elapsed.as_secs_f64() * shards),
    );
    report.set(
        "serve.shed_ratio",
        (shed_in_shards + shed_at_queue as f64) / plain.attempted.max(1) as f64,
    );
    report.set("serve.publish_us", train.publish_us);
    report.set("substrate.program_us", sub.program_us);
    report.set("substrate.program_words_per_req", counts.program_words);
    report.set("substrate.sample_rows_us", sub.sample_rows_us);
    report.set("substrate.phase_points_per_req", counts.phase_points);
    report.set("kernels.pack_us", sub.pack_us);
    report.set("kernels.gemm_us", sub.gemm_us);
    report.set("kernels.latch_us", sub.latch_us);
    report.set("kernels.macs_per_req", sub.macs_per_req);
    report.set(
        "kernels.packed_ratio",
        kernels.packed_kernel_calls as f64
            / (kernels.packed_kernel_calls + kernels.dense_kernel_calls).max(1) as f64,
    );
    report.set("rbm.train_ms", train.train_ms);
    report.set("rbm.host_macs_per_train", train.host_macs);
    report.set("proc.allocs_per_req", counts.allocs);
    report.set("proc.alloc_bytes_per_req", counts.alloc_bytes);
    report.set("loadgen.late_p99_ms", ms(quantile(&plain.late_ns, 0.99)));
    report.set("loadgen.late_max_ms", ms(quantile(&plain.late_ns, 1.0)));
    report.set("e2e.latency_p99_ms", ms(quantile(&plain.latency_ns, 0.99)));
    report.set("e2e.latency_samples", plain.latency_ns.len() as f64);
    report.set("trace.reconcile", on_path_us / 1e3 / traced_ms);
    report.set("trace.overhead_ratio", traced_ms / plain_ms);
    report.set("trace.spans", tracer.spans().len() as f64);
    report.set(
        "host.steal_ratio",
        plain.steal_ms / 1e3 / plain.elapsed.as_secs_f64(),
    );

    let dir = std::path::Path::new(".bench_trace");
    let file = dir.join(format!("{}-seed{}.json", workload.name(), seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, tracer.to_json())) {
        Ok(()) => eprintln!("spans written to {}", file.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", file.display()),
    }
    eprintln!(
        "{}: reconcile {:.3} (layers {:.3} ms of {:.3} ms per request), tracing overhead x{:.3}, {} checked, {} mismatched",
        workload.name(),
        on_path_us / 1e3 / traced_ms,
        on_path_us / 1e3,
        traced_ms,
        traced_ms / plain_ms,
        checked,
        mismatches
    );
    report
}
