//! Overload robustness: the bounded coalescing window, priority lanes,
//! admission control, and the sustained-overload shedder — and the
//! invariant underneath all of them: scheduling may decide *when* and
//! *whether* a request runs, but never *what bits* it returns.

use std::time::{Duration, Instant};

use ember_core::{GsConfig, SubstrateSpec};
use ember_rbm::Rbm;
use ember_serve::{Priority, SampleRequest, SamplingService, ServeError};
use ndarray::Array2;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MODEL: &str = "m";

fn fixture(m: usize, n: usize) -> (Rbm, Box<dyn ember_substrate::ReplicableSubstrate>) {
    let mut rng = StdRng::seed_from_u64(7);
    let rbm = Rbm::random(m, n, 0.3, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate(m, n, &mut rng);
    (rbm, proto)
}

/// The unloaded ground truth: what `seeds` sample to on an idle,
/// windowless single-shard service. Accepted requests on any loaded /
/// windowed / sharded configuration must reproduce these bits exactly.
fn reference_bits(m: usize, n: usize, gibbs_steps: usize, seeds: &[u64]) -> Vec<Array2<f64>> {
    let (rbm, proto) = fixture(m, n);
    let service = SamplingService::builder().shards(1).build();
    service.register_model(MODEL, rbm, proto).unwrap();
    seeds
        .iter()
        .map(|&seed| {
            service
                .sample(
                    SampleRequest::new(MODEL)
                        .with_gibbs_steps(gibbs_steps)
                        .with_seed(seed),
                )
                .unwrap()
                .samples
        })
        .collect()
}

#[test]
fn lone_interactive_request_is_bounded_by_the_window() {
    let (rbm, proto) = fixture(48, 24);
    let window = Duration::from_millis(250);
    let service = SamplingService::builder()
        .shards(1)
        .coalesce_window(window)
        .build();
    service.register_model(MODEL, rbm, proto).unwrap();

    // A lone request has no batch-mates: the shard must hold it for the
    // full window (lower bound) and then dispatch immediately (upper
    // bound: window + service time, with generous CI slack).
    let started = Instant::now();
    let resp = service
        .sample(SampleRequest::new(MODEL).with_gibbs_steps(3).with_seed(42))
        .unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed >= window - Duration::from_millis(5),
        "a lone request dispatches no earlier than the window ({elapsed:?})"
    );
    assert!(
        elapsed < window + Duration::from_secs(5),
        "a lone request's latency is bounded by window + service_time ({elapsed:?})"
    );

    // The window shapes scheduling only — the bits are the unloaded
    // service's bits.
    let reference = reference_bits(48, 24, 3, &[42]);
    assert_eq!(resp.samples, reference[0]);

    // The shard-side histogram saw the windowed latency.
    let latency = service.stats().latency();
    assert_eq!(latency.count(), 1);
    assert!(latency.p99() >= window - Duration::from_millis(5));
}

#[test]
fn full_group_dispatches_without_waiting_out_the_window() {
    let (rbm, proto) = fixture(48, 24);
    // A window so long that any test finishing promptly proves the
    // dispatch-when-full path.
    let service = SamplingService::builder()
        .shards(1)
        .max_coalesce_rows(4)
        .coalesce_window(Duration::from_secs(60))
        .build();
    service.register_model(MODEL, rbm, proto).unwrap();

    let started = Instant::now();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            service
                .submit(SampleRequest::new(MODEL).with_gibbs_steps(3).with_seed(i))
                .unwrap()
        })
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "a full group must dispatch immediately, not wait out the window"
    );
}

#[test]
fn bulk_flood_does_not_starve_interactive_past_the_window() {
    let (rbm, proto) = fixture(64, 32);
    let service = SamplingService::builder()
        .shards(1)
        .coalesce_window(Duration::from_millis(25))
        .build();
    service.register_model(MODEL, rbm, proto).unwrap();

    // 30 slow Bulk requests (120 rows ≥ two coalesced groups), then one
    // Interactive request behind them all.
    let bulk: Vec<_> = (0..30)
        .map(|i| {
            service
                .submit(
                    SampleRequest::new(MODEL)
                        .with_samples(4)
                        .with_gibbs_steps(600)
                        .with_seed(100 + i)
                        .with_priority(Priority::Bulk),
                )
                .unwrap()
        })
        .collect();
    let resp = service
        .sample(
            SampleRequest::new(MODEL)
                .with_gibbs_steps(3)
                .with_seed(42)
                .with_priority(Priority::Interactive),
        )
        .unwrap();

    // Lane order: the interactive request overtook queued Bulk work, so
    // part of the flood is still unanswered the moment it completes.
    // A polled reply is handed over, so keep it rather than waiting on
    // that handle again.
    let polled: Vec<_> = bulk.into_iter().map(|h| (h.try_wait(), h)).collect();
    let pending = polled.iter().filter(|(reply, _)| reply.is_none()).count();
    assert!(
        pending > 0,
        "interactive must complete while bulk work is still queued"
    );

    // Overtaking is scheduling only: the bits are the unloaded bits.
    let reference = reference_bits(64, 32, 3, &[42]);
    assert_eq!(resp.samples, reference[0]);

    for (reply, handle) in polled {
        let reply = reply.unwrap_or_else(|| handle.wait());
        assert!(reply.is_ok(), "bulk work still completes");
    }
}

#[test]
fn admission_control_rejects_provably_late_deadlines_at_enqueue() {
    let (rbm, proto) = fixture(48, 24);
    let service = SamplingService::builder().shards(1).build();
    service.register_model(MODEL, rbm, proto).unwrap();

    // Before any row is served the admission estimate is 1 ms/row: 64
    // rows project 64 ms, so a 5 ms deadline is provably unreachable —
    // refused at enqueue, typed, with a usable retry hint.
    let err = service
        .submit(
            SampleRequest::new(MODEL)
                .with_samples(64)
                .with_gibbs_steps(1)
                .with_seed(1)
                .with_deadline_in(Duration::from_millis(5)),
        )
        .unwrap_err();
    match err {
        ServeError::Overloaded { retry_after } => {
            assert!(retry_after >= Duration::from_micros(100));
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    assert_eq!(service.stats().admission_rejected, 1);

    // A reachable deadline sails through.
    let resp = service
        .sample(
            SampleRequest::new(MODEL)
                .with_samples(64)
                .with_gibbs_steps(1)
                .with_seed(1)
                .with_deadline_in(Duration::from_secs(30)),
        )
        .unwrap();
    assert_eq!(resp.samples.nrows(), 64);

    // An *already-expired* deadline is not an admission case: it keeps
    // the established shed path and typed answer.
    let doomed = service
        .submit(
            SampleRequest::new(MODEL)
                .with_seed(2)
                .with_deadline(Instant::now() - Duration::from_millis(1)),
        )
        .unwrap();
    assert!(matches!(doomed.wait(), Err(ServeError::DeadlineExceeded)));
}

/// The tentpole invariant, per shard count: a deterministic overload
/// flood against a plugged service sheds **exactly** the Bulk lane —
/// newest first, typed `Overloaded` — admits every Interactive request,
/// and the admitted requests return bit-identical samples to the
/// unloaded service.
#[test]
fn overload_flood_sheds_bulk_first_with_exact_accounting_and_identical_bits() {
    let interactive_seeds: Vec<u64> = (0..8).map(|i| 3000 + i).collect();
    let reference = reference_bits(48, 24, 1, &interactive_seeds);

    for shards in [1usize, 2, 8] {
        let (rbm, proto) = fixture(48, 24);
        let window = Duration::from_millis(1200);
        let service = SamplingService::builder()
            .shards(shards)
            .queue_rows(8)
            .coalesce_window(window)
            .build();
        service.register_model(MODEL, rbm, proto).unwrap();

        // Plug every shard: one Interactive request per shard, each with
        // a distinct gibbs_steps key so no two coalesce. Each shard pops
        // its plug and (group not full) holds it open for the window —
        // leaving the queue state fully under this test's control.
        let plugs: Vec<_> = (0..shards)
            .map(|j| {
                service
                    .submit(
                        SampleRequest::new(MODEL)
                            .with_gibbs_steps(100 + j)
                            .with_seed(1000 + j as u64),
                    )
                    .unwrap()
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));

        // Fill the 8-row queue: 6 Bulk, then 2 Interactive.
        let bulk: Vec<_> = (0..6)
            .map(|i| {
                service
                    .submit(
                        SampleRequest::new(MODEL)
                            .with_gibbs_steps(1)
                            .with_seed(2000 + i)
                            .with_priority(Priority::Bulk),
                    )
                    .unwrap()
            })
            .collect();
        // 8 Interactive arrivals: the first two fill the queue; each of
        // the remaining six must evict exactly one queued Bulk request
        // (newest first) instead of being turned away.
        let interactive: Vec<_> = interactive_seeds
            .iter()
            .map(|&seed| {
                service
                    .submit(
                        SampleRequest::new(MODEL)
                            .with_gibbs_steps(1)
                            .with_seed(seed),
                    )
                    .unwrap()
            })
            .collect();

        // Exact shed accounting: all six Bulk requests were evicted with
        // the typed error and a usable hint; nothing was rejected, no
        // Interactive request was shed.
        let mut shed = 0;
        for handle in bulk {
            match handle.wait() {
                Err(ServeError::Overloaded { retry_after }) => {
                    assert!(retry_after >= Duration::from_micros(100));
                    shed += 1;
                }
                other => panic!("bulk under overload must shed with Overloaded, got {other:?}"),
            }
        }
        assert_eq!(shed, 6, "exactly the Bulk lane is shed ({shards} shards)");

        // Every admitted request completes with the unloaded bits.
        for plug in plugs {
            plug.wait()
                .unwrap_or_else(|e| panic!("plug must be served ({shards} shards): {e}"));
        }
        for (handle, expected) in interactive.into_iter().zip(&reference) {
            let resp = handle
                .wait()
                .unwrap_or_else(|e| panic!("interactive must be admitted ({shards} shards): {e}"));
            assert_eq!(
                resp.samples, *expected,
                "accepted bits must match the unloaded service ({shards} shards)"
            );
        }

        let stats = service.stats();
        assert_eq!(stats.shed_bulk, 6, "{shards} shards");
        assert_eq!(stats.rejected, 0, "{shards} shards");
        assert_eq!(stats.admission_rejected, 0, "{shards} shards");
        assert_eq!(stats.total(|s| s.shed_requests), 0, "{shards} shards");
        let accepted: u64 = stats.shards.iter().map(|s| s.sample_requests).sum();
        assert_eq!(accepted, shards as u64 + 8, "{shards} shards");
        // The histograms saw exactly the accepted requests.
        assert_eq!(stats.latency().count(), shards as u64 + 8);
        assert!(stats.latency().p99() >= stats.latency().p50());
    }
}
