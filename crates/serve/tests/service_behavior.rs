//! Service-level behavior: bounded-queue backpressure (reject, never
//! deadlock), coalescing under load, training-through-the-service with
//! version publication, and validation errors.

use std::sync::{Arc, Condvar, Mutex};

use ember_core::{GsConfig, SubstrateSpec};
use ember_rbm::{CdTrainer, Rbm};
use ember_serve::{SampleRequest, SamplingService, ServeError, TrainRequest};
use ember_substrate::{HardwareCounters, ReplicableSubstrate, Side, Substrate};
use ndarray::{Array2, ArrayView1, ArrayView2};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn fixture(m: usize, n: usize) -> (Rbm, Box<dyn ReplicableSubstrate>) {
    let mut rng = StdRng::seed_from_u64(4);
    let rbm = Rbm::random(m, n, 0.3, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate(m, n, &mut rng);
    (rbm, proto)
}

/// A gate that a test opens once: until then, every [`Gated`] sampling
/// call blocks.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn open(&self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }

    fn pass(&self) {
        let (open, cv) = &*self.0;
        let _open = cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap();
    }
}

/// A substrate whose sampling waits on a [`Gate`]: it pins a shard on
/// its first sampling call for as long as the test needs. Its per-row
/// reads are the trait's default, one gated `sample_batch` per row.
#[derive(Clone)]
struct Gated {
    inner: Box<dyn ReplicableSubstrate>,
    gate: Gate,
}

impl Substrate for Gated {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn visible_len(&self) -> usize {
        self.inner.visible_len()
    }
    fn hidden_len(&self) -> usize {
        self.inner.hidden_len()
    }
    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        self.inner.program(weights, visible_bias, hidden_bias);
    }
    fn sample_batch(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rng: &mut dyn RngCore,
    ) -> Array2<f64> {
        self.gate.pass();
        self.inner.sample_batch(side, clamp, rng)
    }
    fn counters(&self) -> &HardwareCounters {
        self.inner.counters()
    }
    fn counters_mut(&mut self) -> &mut HardwareCounters {
        self.inner.counters_mut()
    }
}

/// A request slow enough (many steps on a mid-size model) to pin a shard
/// while the test manipulates the queue behind it.
fn slow_request(seed: u64) -> SampleRequest {
    SampleRequest::new("m")
        .with_gibbs_steps(400)
        .with_seed(seed)
}

#[test]
fn bounded_queue_rejects_rather_than_deadlocks_when_full() {
    let (rbm, proto) = fixture(64, 32);
    let service = SamplingService::builder().shards(1).queue_rows(2).build();
    service.register_model("m", rbm, proto).unwrap();

    // Occupy the single shard, then keep submitting until the two-row
    // queue is at capacity: the next submission must be REJECTED with
    // QueueFull — not block, not deadlock.
    let mut handles = vec![service.submit(slow_request(0)).unwrap()];
    let mut saw_full = false;
    for i in 1..200 {
        match service.submit(slow_request(i)) {
            Ok(handle) => handles.push(handle),
            Err(ServeError::QueueFull { retry_after }) => {
                assert!(
                    retry_after >= std::time::Duration::from_micros(100),
                    "retry_after hint must be a usable, non-zero pause"
                );
                saw_full = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(saw_full, "a 2-row queue must fill under a pinned shard");
    assert!(service.stats().rejected >= 1);

    // No deadlock: every accepted request still completes.
    for handle in handles {
        let resp = handle.wait().unwrap();
        assert_eq!(resp.samples.nrows(), 1);
    }
}

#[test]
fn pending_same_key_requests_coalesce_into_one_batch() {
    let (rbm, proto) = fixture(64, 32);
    let gate = Gate::default();
    let gated = Gated {
        inner: proto,
        gate: gate.clone(),
    };
    let service = SamplingService::builder().shards(1).queue_rows(256).build();
    service.register_model("m", rbm, Box::new(gated)).unwrap();

    // Pin the shard behind the closed gate, then queue 16 fast
    // same-key requests: when the shard frees up it must take them as
    // one coalesced batch. The slow request is the queue head, and its
    // key differs, so whenever the shard pops it, it runs alone.
    let slow = service.submit(slow_request(1)).unwrap();
    let fast: Vec<_> = (0..16)
        .map(|i| {
            service
                .submit(
                    SampleRequest::new("m")
                        .with_gibbs_steps(1)
                        .with_seed(100 + i),
                )
                .unwrap()
        })
        .collect();
    gate.open();
    slow.wait().unwrap();
    for handle in fast {
        let resp = handle.wait().unwrap();
        assert_eq!(resp.coalesced_rows, 16, "all 16 should ride one batch");
    }
    let stats = service.stats();
    assert_eq!(stats.shards[0].largest_batch, 16);
    assert_eq!(stats.total(|s| s.batches), 2); // the slow one + the coalesced one
    assert!(stats.total(|s| s.rows) > 8 * stats.total(|s| s.batches));
}

#[test]
fn disabling_coalescing_serves_request_at_a_time() {
    let (rbm, proto) = fixture(32, 16);
    let service = SamplingService::builder()
        .shards(1)
        .max_coalesce_rows(1)
        .build();
    service.register_model("m", rbm, proto).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            service
                .submit(SampleRequest::new("m").with_seed(i))
                .unwrap()
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().unwrap().coalesced_rows, 1);
    }
    assert_eq!(service.stats().total(|s| s.batches), 8);
}

#[test]
fn train_through_service_publishes_a_version_and_matches_direct_training() {
    let (rbm, proto) = fixture(8, 4);
    let data = Array2::from_shape_fn((24, 8), |(i, _)| f64::from(i % 2 == 0));
    let trainer = CdTrainer::new(1, 0.05);

    // Direct reference: same snapshot, replica, seed, entry point.
    let mut expected = rbm.clone();
    let mut replica = proto.clone_boxed();
    let mut rng = StdRng::seed_from_u64(77);
    let expected_stats = trainer.train_with(&mut expected, &data, 6, &mut *replica, 2, &mut rng);

    let service = SamplingService::builder().shards(2).build();
    service.register_model("m", rbm, proto).unwrap();
    let resp = service
        .train(
            TrainRequest::new("m", data)
                .with_trainer(trainer)
                .with_batch_size(6)
                .with_epochs(2)
                .with_seed(77),
        )
        .unwrap();
    assert_eq!(resp.new_version, 2);
    assert_eq!(resp.stats, expected_stats);
    assert!(resp.counters.phase_points > 0);

    let snapshot = service.registry().get("m").unwrap();
    assert_eq!(snapshot.version, 2);
    assert_eq!(*snapshot.rbm, expected, "published parameters must match");

    // Sampling continues against the new version.
    let sampled = service
        .sample(SampleRequest::new("m").with_seed(5))
        .unwrap();
    assert_eq!(sampled.model_version, 2);
    assert_eq!(service.stats().models["m"].train_requests, 1);
}

#[test]
fn submit_validates_against_the_registry() {
    let (rbm, proto) = fixture(6, 3);
    let service = SamplingService::builder().shards(1).build();
    service.register_model("m", rbm, proto).unwrap();

    assert!(matches!(
        service.sample(SampleRequest::new("ghost")),
        Err(ServeError::ModelNotFound(_))
    ));
    assert!(matches!(
        service.sample(SampleRequest::new("m").with_samples(0)),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        service.sample(SampleRequest::new("m").with_gibbs_steps(0)),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        service.sample(SampleRequest::new("m").with_clamp(ndarray::Array1::zeros(5))),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        service.sample(SampleRequest::new("m").with_clamp(ndarray::Array1::from_elem(6, 1.5))),
        Err(ServeError::InvalidRequest(_))
    ));
    assert!(matches!(
        service.train(TrainRequest::new("m", Array2::zeros((4, 5)))),
        Err(ServeError::InvalidRequest(_))
    ));

    let (other, wrong_proto) = fixture(9, 3);
    assert!(matches!(
        service.register_model("n", other, {
            let (_, p) = fixture(6, 3);
            p
        }),
        Err(ServeError::InvalidRequest(_))
    ));
    drop(wrong_proto);
}

#[test]
fn training_data_outside_the_unit_interval_is_refused_and_publishes_nothing() {
    let (rbm, proto) = fixture(8, 4);
    let service = SamplingService::builder().shards(1).build();
    service.register_model("m", rbm, proto).unwrap();
    let data = |bad: f64| {
        let mut data = Array2::from_shape_fn((4, 8), |(i, j)| f64::from((i + j) % 2 == 0));
        data[[2, 5]] = bad;
        TrainRequest::new("m", data).with_seed(3)
    };
    for bad in [f64::INFINITY, f64::NAN, 1.5, -0.5] {
        assert!(
            matches!(service.train(data(bad)), Err(ServeError::InvalidRequest(_))),
            "{bad} accepted"
        );
        assert_eq!(service.registry().get("m").unwrap().version, 1, "{bad}");
    }
    // 0/1 data and gray data still train.
    assert_eq!(service.train(data(1.0)).unwrap().new_version, 2);
    assert_eq!(service.train(data(0.5)).unwrap().new_version, 3);
    assert_eq!(service.stats().models["m"].train_requests, 2);
}

#[test]
fn oversized_requests_are_invalid_not_backpressure() {
    // Heavier than the whole queue can ever hold: retrying would never
    // help, so this must be a validation error, not QueueFull.
    let (rbm, proto) = fixture(6, 3);
    let service = SamplingService::builder().shards(1).queue_rows(8).build();
    service.register_model("m", rbm, proto).unwrap();
    assert!(matches!(
        service.submit(SampleRequest::new("m").with_samples(9)),
        Err(ServeError::InvalidRequest(_))
    ));
    // At exactly the capacity it is accepted.
    let resp = service
        .sample(SampleRequest::new("m").with_samples(8).with_seed(1))
        .unwrap();
    assert_eq!(resp.samples.nrows(), 8);
    assert_eq!(service.stats().rejected, 0);
}

#[test]
fn shared_registry_models_are_served_after_provisioning() {
    // Service A registers; service B shares the registry and provisions
    // its own replicas for the pre-existing model.
    let (rbm, proto) = fixture(6, 3);
    let a = SamplingService::builder().shards(1).build();
    a.register_model("m", rbm, proto.clone_boxed()).unwrap();

    let b = SamplingService::builder()
        .shards(2)
        .registry(a.registry().clone())
        .build();
    // Visible in the registry but not yet provisioned on B's shards:
    // the executing shard reports the model as unservable.
    assert!(matches!(
        b.sample(SampleRequest::new("m").with_seed(3)),
        Err(ServeError::ModelNotFound(_))
    ));
    b.provision_model("m", proto.clone_boxed()).unwrap();
    let via_b = b.sample(SampleRequest::new("m").with_seed(3)).unwrap();
    let via_a = a.sample(SampleRequest::new("m").with_seed(3)).unwrap();
    assert_eq!(via_b.samples, via_a.samples, "same model, same seed");

    // provision_model validates like register_model.
    assert!(matches!(
        b.provision_model("ghost", proto.clone_boxed()),
        Err(ServeError::ModelNotFound(_))
    ));
    let (_, wrong) = fixture(9, 3);
    assert!(matches!(
        b.provision_model("m", wrong),
        Err(ServeError::InvalidRequest(_))
    ));
}

#[test]
fn concurrent_training_loses_no_updates() {
    // Two clients train the same model concurrently on a 2-shard
    // service: either both land (serialized on one shard) or the loser
    // gets TrainConflict — never a silent lost update.
    let (rbm, proto) = fixture(8, 4);
    let service = SamplingService::builder().shards(2).build();
    service.register_model("m", rbm, proto).unwrap();
    let data = Array2::from_shape_fn((16, 8), |(i, _)| f64::from(i % 2 == 0));
    let h1 = service
        .submit_train(TrainRequest::new("m", data.clone()).with_seed(1))
        .unwrap();
    let h2 = service
        .submit_train(TrainRequest::new("m", data).with_seed(2))
        .unwrap();
    let results = [h1.wait(), h2.wait()];
    let won = results.iter().filter(|r| r.is_ok()).count();
    let conflicted = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::TrainConflict { .. })))
        .count();
    assert_eq!(won + conflicted, 2, "unexpected failure: {results:?}");
    assert!(won >= 1, "at least one trainer must land");
    // The registry version reflects exactly the publishes that landed.
    assert_eq!(service.registry().get("m").unwrap().version, 1 + won as u64);
}

#[test]
fn seedless_requests_are_served_from_the_shard_lane() {
    let (rbm, proto) = fixture(6, 3);
    let service = SamplingService::builder().shards(1).build();
    service.register_model("m", rbm, proto).unwrap();
    let a = service
        .sample(SampleRequest::new("m").with_samples(3))
        .unwrap();
    let b = service
        .sample(SampleRequest::new("m").with_samples(3))
        .unwrap();
    assert_eq!(a.samples.dim(), (3, 6));
    // Successive lane seeds differ, so the two draws are (almost surely)
    // different — the service is not replaying one stream.
    assert_ne!(a.samples, b.samples);
}

#[test]
fn mixed_model_traffic_keeps_per_model_accounting() {
    let (rbm_a, proto_a) = fixture(6, 3);
    let (rbm_b, proto_b) = fixture(10, 5);
    let service = SamplingService::builder().shards(2).build();
    service.register_model("a", rbm_a, proto_a).unwrap();
    service.register_model("b", rbm_b, proto_b).unwrap();
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let name = if i % 2 == 0 { "a" } else { "b" };
            service
                .submit(SampleRequest::new(name).with_seed(i))
                .unwrap()
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let resp = handle.wait().unwrap();
        assert_eq!(resp.samples.ncols(), if i % 2 == 0 { 6 } else { 10 });
    }
    let stats = service.stats();
    assert_eq!(stats.models["a"].sample_requests, 6);
    assert_eq!(stats.models["b"].sample_requests, 6);
    assert_eq!(stats.total(|s| s.rows), 12);
}

#[test]
fn serving_binary_traffic_runs_on_the_packed_kernel() {
    // A served Gibbs chain is binary end to end (random binary inits,
    // exact {0, 1} feedback), so every sampling call of every shard
    // must be served by the bit-packed kernel — and the service stats
    // must say so.
    let (rbm, proto) = fixture(32, 16);
    let service = SamplingService::builder().shards(2).build();
    service.register_model("m", rbm, proto).unwrap();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            service
                .submit(SampleRequest::new("m").with_samples(2).with_seed(i))
                .unwrap()
        })
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    let stats = service.stats();
    assert!(stats.counters().packed_kernel_calls > 0);
    assert_eq!(stats.counters().dense_kernel_calls, 0);
    // The per-response counter delta carries the same attribution.
    let resp = service
        .sample(SampleRequest::new("m").with_seed(99))
        .unwrap();
    assert!(resp.counters.packed_kernel_calls > 0);
    assert_eq!(resp.counters.dense_kernel_calls, 0);
}

#[test]
fn panicking_request_does_not_hang_its_neighbors() {
    // Regression: a panic mid-request used to kill the worker thread and
    // leave every queued caller blocked forever on a dropped reply
    // channel. Now the panicking request gets a typed ShardRestarted,
    // the shard re-provisions, and the queue keeps draining.
    let (rbm, proto) = fixture(8, 4);
    let chaotic = Box::new(ember_substrate::ChaosSubstrate::new(
        proto,
        ember_substrate::ChaosConfig::new(7).with_panic_on_sample_call(1),
    ));
    let service = SamplingService::builder()
        .shards(1)
        .max_coalesce_rows(1)
        .build();
    service.register_model("m", rbm, chaotic).unwrap();

    // First request trips the injected panic; its neighbors are queued
    // behind it on the same (single) shard.
    let doomed = service
        .submit(SampleRequest::new("m").with_seed(0))
        .unwrap();
    let neighbors: Vec<_> = (1..5)
        .map(|i| {
            service
                .submit(SampleRequest::new("m").with_seed(i))
                .unwrap()
        })
        .collect();

    assert!(matches!(
        doomed.wait(),
        Err(ServeError::ShardRestarted { shard: 0 })
    ));
    for neighbor in neighbors {
        let resp = neighbor.wait().expect("neighbors must still be served");
        assert_eq!(resp.samples.nrows(), 1);
    }
    let stats = service.stats();
    assert_eq!(stats.total(|s| s.restarts), 1, "exactly one recovery");
    // The restarted shard serves resubmissions immediately.
    let resubmitted = service
        .sample(SampleRequest::new("m").with_seed(0))
        .unwrap();
    assert_eq!(resubmitted.samples.nrows(), 1);
}

#[test]
fn concurrent_flood_accounts_for_every_request_exactly() {
    // 16 client threads flood a tiny queue; backpressure may reject any
    // number of submissions, but accepted + rejected must equal
    // submitted, every accepted request must complete, and the service's
    // own `rejected` counter must agree with the clients' tally.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const THREADS: usize = 16;
    const PER_THREAD: u64 = 50;

    let (rbm, proto) = fixture(16, 8);
    let service = Arc::new(SamplingService::builder().shards(2).queue_rows(8).build());
    service.register_model("m", rbm, proto).unwrap();

    let accepted = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let accepted = Arc::clone(&accepted);
            let rejected = Arc::clone(&rejected);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let seed = t as u64 * PER_THREAD + i;
                    match service
                        .submit(SampleRequest::new("m").with_gibbs_steps(3).with_seed(seed))
                    {
                        Ok(handle) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            let resp = handle.wait().expect("accepted requests must complete");
                            assert_eq!(resp.samples.nrows(), 1);
                        }
                        Err(ServeError::QueueFull { retry_after }) => {
                            rejected.fetch_add(1, Ordering::SeqCst);
                            assert!(retry_after > std::time::Duration::ZERO);
                        }
                        Err(other) => panic!("unexpected error under flood: {other}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let accepted = accepted.load(Ordering::SeqCst);
    let rejected = rejected.load(Ordering::SeqCst);
    assert_eq!(
        accepted + rejected,
        (THREADS as u64) * PER_THREAD,
        "every submission must be either accepted or rejected"
    );
    assert!(accepted > 0, "a live service must accept some of the flood");
    let stats = service.stats();
    assert_eq!(stats.rejected, rejected, "service and clients must agree");
    let served: u64 = stats.shards.iter().map(|s| s.sample_requests).sum();
    assert_eq!(served, accepted, "every accepted request must be served");
}
