//! Re-programming an unchanged model snapshot is charged, not redone.
//!
//! Analog couplings are volatile (paper §3.2), so every coalesced group
//! is charged a full programming event: `programming_cost()` words on
//! `host_words_transferred`. A shard whose infallible replica already
//! holds the group's snapshot skips the host-side rebuild and only adds
//! those words. These tests pin both halves: the host `program` calls
//! actually skipped, and the counters and bits exactly as if every
//! group had re-programmed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ember_brim::BrimConfig;
use ember_core::substrate::SoftwareGibbs;
use ember_core::{GsConfig, RetryPolicy, SubstrateSpec};
use ember_rbm::{Rbm, RngStreams};
use ember_serve::batch;
use ember_serve::{SampleRequest, SamplingService, ServeError, TrainRequest};
use ember_substrate::{
    ChaosConfig, ChaosSubstrate, HardwareCounters, ReplicableSubstrate, Substrate,
};
use ndarray::{Array1, Array2, ArrayView1, ArrayView2};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const MODEL: &str = "m";

/// `SoftwareGibbs` that counts host `program` calls across all of its
/// clones (the service replicates the prototype into every shard).
#[derive(Clone)]
struct CountingGibbs {
    inner: SoftwareGibbs,
    programs: Arc<AtomicUsize>,
}

impl CountingGibbs {
    fn new(m: usize, n: usize, seed: u64) -> (Self, Arc<AtomicUsize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let programs = Arc::new(AtomicUsize::new(0));
        let sub = CountingGibbs {
            inner: SoftwareGibbs::new(m, n, &GsConfig::default(), &mut rng),
            programs: Arc::clone(&programs),
        };
        (sub, programs)
    }
}

impl Substrate for CountingGibbs {
    fn name(&self) -> &'static str {
        "counting-gibbs"
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
        self.programs.fetch_add(1, Ordering::SeqCst);
        self.inner.program(weights, visible_bias, hidden_bias);
    }
    fn quantize_batch(&self, levels: &Array2<f64>) -> Array2<f64> {
        self.inner.quantize_batch(levels)
    }
    fn sample_hidden_batch(&mut self, visible: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        self.inner.sample_hidden_batch(visible, rng)
    }
    fn sample_visible_batch(&mut self, hidden: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        self.inner.sample_visible_batch(hidden, rng)
    }
    fn sample_hidden_batch_rows(
        &mut self,
        visible: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.inner.sample_hidden_batch_rows(visible, rngs)
    }
    fn sample_visible_batch_rows(
        &mut self,
        hidden: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.inner.sample_visible_batch_rows(hidden, rngs)
    }
    fn counters(&self) -> &HardwareCounters {
        self.inner.counters()
    }
    fn counters_mut(&mut self) -> &mut HardwareCounters {
        self.inner.counters_mut()
    }
}

fn request(seed: u64) -> SampleRequest {
    SampleRequest::new(MODEL)
        .with_gibbs_steps(2)
        .with_seed(seed)
}

fn programs(count: &AtomicUsize) -> usize {
    count.load(Ordering::SeqCst)
}

#[test]
fn unchanged_snapshot_is_programmed_on_the_host_once() {
    let (m, n) = (12, 6);
    let mut rng = StdRng::seed_from_u64(11);
    let rbm = Rbm::random(m, n, 0.5, &mut rng);
    let (proto, count) = CountingGibbs::new(m, n, 12);
    let service = SamplingService::builder().shards(1).build();
    service.register_model(MODEL, rbm, Box::new(proto)).unwrap();

    // Eight sequential requests on one version: eight groups, each
    // charged a programming event, one host `program`.
    let first: Vec<_> = (0..8)
        .map(|i| service.sample(request(i)).unwrap())
        .collect();
    assert_eq!(programs(&count), 1);
    assert!(first.iter().all(|r| r.counters == first[0].counters));
    let cost = (m * n + m + n) as u64;
    assert!(first[0].counters.host_words_transferred > cost);

    // A new version is a new snapshot.
    let mut rng = StdRng::seed_from_u64(13);
    service
        .registry()
        .publish(MODEL, Rbm::random(m, n, 0.5, &mut rng))
        .unwrap();
    let v2 = service.sample(request(100)).unwrap();
    assert_eq!(v2.model_version, 2);
    assert_eq!(programs(&count), 2);
    assert_eq!(v2.counters, first[0].counters);

    // Rolling back to the version the replica holds republishes the
    // same snapshot under a new number: still no host work.
    assert_eq!(service.registry().rollback(MODEL, 2).unwrap(), 3);
    assert_eq!(service.sample(request(100)).unwrap().samples, v2.samples);
    assert_eq!(programs(&count), 2);

    // Training re-programs the replica with intermediate weights. Roll
    // back to the pre-training snapshot: the replica must re-program it
    // rather than trust its stale key, and reproduce the v2 bits.
    let data = Array2::from_shape_fn((8, m), |(i, j)| f64::from((i + j) % 3 == 0));
    let trained = service
        .train(
            TrainRequest::new(MODEL, data)
                .with_batch_size(4)
                .with_seed(5),
        )
        .unwrap();
    assert_eq!(trained.new_version, 4);
    let after_train = programs(&count);
    assert!(after_train > 2, "training programs every minibatch");
    service.registry().rollback(MODEL, 3).unwrap();
    let again = service.sample(request(100)).unwrap();
    assert_eq!(programs(&count), after_train + 1);
    assert_eq!(again.samples, v2.samples);
    assert_eq!(again.counters, v2.counters);
}

#[test]
fn fallible_backends_program_every_group() {
    let (m, n) = (10, 5);
    let mut rng = StdRng::seed_from_u64(21);
    let rbm = Rbm::random(m, n, 0.5, &mut rng);
    let (inner, count) = CountingGibbs::new(m, n, 22);
    // Default chaos config: no faults injected, but the backend
    // declares itself fallible, so every group must really re-program
    // (the fault schedule is rolled per programming event).
    let chaotic = ChaosSubstrate::new(Box::new(inner), ChaosConfig::default());
    let service = SamplingService::builder().shards(1).build();
    service
        .register_model(MODEL, rbm, Box::new(chaotic))
        .unwrap();
    for i in 0..6 {
        service.sample(request(i)).unwrap();
        assert_eq!(programs(&count), i as usize + 1);
    }
}

#[test]
fn degraded_groups_keep_their_accounting_and_follow_publishes() {
    let (m, n) = (10, 5);
    let mut rng = StdRng::seed_from_u64(31);
    let v1 = Rbm::random(m, n, 0.5, &mut rng);
    let v2 = Rbm::random(m, n, 0.5, &mut rng);

    // Hard-faulting hardware, one exhausted group trips the breaker.
    let degraded_service = |rbm: Rbm| {
        let mut rng = StdRng::seed_from_u64(32);
        let proto = SubstrateSpec::software(GsConfig::default()).fabricate(m, n, &mut rng);
        let chaotic = ChaosSubstrate::new(proto, ChaosConfig::new(9).with_hard_fault_rate(1.0));
        let service = SamplingService::builder()
            .shards(1)
            .retry_policy(RetryPolicy::none())
            .breaker_threshold(1)
            .build();
        service
            .register_model(MODEL, rbm, Box::new(chaotic))
            .unwrap();
        assert!(matches!(
            service.sample(request(0)),
            Err(ServeError::SubstrateFault { .. })
        ));
        service
    };

    // N degraded groups on one snapshot: the first programs the
    // fallback, the rest reuse it, and every group reports the same
    // counters. (A degraded group reports its sampling work only: the
    // fallback's programming words were never part of the reply.)
    let service = degraded_service(v1);
    let replies: Vec<_> = (1..=5)
        .map(|i| service.sample(request(i)).unwrap())
        .collect();
    assert!(replies.iter().all(|r| r.degraded));
    assert!(replies.iter().all(|r| r.counters == replies[0].counters));

    // A publish while degraded re-programs the fallback: its bits match
    // a service that degraded on the new snapshot from the start.
    service.registry().publish(MODEL, v2.clone()).unwrap();
    let after = service.sample(request(50)).unwrap();
    let fresh = degraded_service(v2).sample(request(50)).unwrap();
    assert!(after.degraded && fresh.degraded);
    assert_eq!(after.samples, fresh.samples);
    assert_eq!(after.counters, fresh.counters);
}

/// Seeded sequential traffic with clamped and free chains, several
/// batch sizes and step counts, and one publish part-way through.
fn traffic(m: usize) -> Vec<SampleRequest> {
    let streams = RngStreams::new(0x5E0);
    let clamp = Array1::from_shape_fn(m, |j| f64::from(j % 3 == 0));
    (0..12)
        .map(|i| {
            let req = SampleRequest::new(MODEL)
                .with_samples(1 + i % 3)
                .with_gibbs_steps(1 + i % 2)
                .with_seed(streams.seed(i as u64));
            if i % 4 == 0 {
                req.with_clamp(clamp.clone())
            } else {
                req
            }
        })
        .collect()
}

/// The service's counters (per response and in total) and bits equal a
/// direct replay that programs a clone of the prototype before every
/// request.
fn check_counter_identity(backend: &str, spec: SubstrateSpec) {
    let (m, n) = (9, 4);
    let mut rng = StdRng::seed_from_u64(41);
    let v1 = Rbm::random(m, n, 0.6, &mut rng);
    let v2 = Rbm::random(m, n, 0.6, &mut rng);
    let proto = spec.fabricate(m, n, &mut rng);
    let reqs = traffic(m);
    let publish_at = reqs.len() / 2;

    let service = SamplingService::builder().shards(2).build();
    service
        .register_model(MODEL, v1.clone(), proto.clone_boxed())
        .unwrap();
    let mut replay = proto.clone_boxed();
    let start = *replay.counters();
    for (i, req) in reqs.iter().enumerate() {
        if i == publish_at {
            service.registry().publish(MODEL, v2.clone()).unwrap();
        }
        let rbm = if i < publish_at { &v1 } else { &v2 };
        let before = *replay.counters();
        replay.program(
            &rbm.weights().view(),
            &rbm.visible_bias().view(),
            &rbm.hidden_bias().view(),
        );
        let rows = batch::expand_request(req, req.seed.unwrap());
        let expected = batch::sample_rows(&mut *replay, &rows, req.gibbs_steps);
        let resp = service.sample(req.clone()).unwrap();
        assert_eq!(resp.samples, expected, "{backend} request {i}");
        assert_eq!(
            resp.counters,
            replay.counters().delta_since(&before),
            "{backend} request {i}"
        );
    }
    let served = service.stats().models[MODEL].counters;
    assert_eq!(served, replay.counters().delta_since(&start), "{backend}");
}

#[test]
fn served_counters_equal_a_program_every_request_replay_on_software() {
    check_counter_identity("software", SubstrateSpec::software(GsConfig::default()));
}

#[test]
fn served_counters_equal_a_program_every_request_replay_on_brim() {
    check_counter_identity("brim", SubstrateSpec::brim(BrimConfig::default()));
}

#[test]
fn served_counters_equal_a_program_every_request_replay_on_annealer() {
    check_counter_identity("annealer", SubstrateSpec::annealer());
}

/// What the service's counter-only shortcut adds is exactly what every
/// backend's `program` counts: `programming_cost()` words on
/// `host_words_transferred`, and nothing else — on a changed and on an
/// unchanged image alike.
#[test]
fn program_counts_exactly_its_programming_cost() {
    let (m, n) = (7, 3);
    let mut rng = StdRng::seed_from_u64(51);
    let a = Rbm::random(m, n, 0.5, &mut rng);
    let b = Rbm::random(m, n, 0.5, &mut rng);
    for (backend, spec) in [
        ("software", SubstrateSpec::software(GsConfig::default())),
        ("brim", SubstrateSpec::brim(BrimConfig::default())),
        ("annealer", SubstrateSpec::annealer()),
    ] {
        let mut sub = spec.fabricate(m, n, &mut rng);
        let expected = HardwareCounters {
            host_words_transferred: sub.programming_cost(),
            ..HardwareCounters::new()
        };
        assert_eq!(sub.programming_cost(), (m * n + m + n) as u64);
        for rbm in [&a, &a, &b] {
            let before = *sub.counters();
            sub.program(
                &rbm.weights().view(),
                &rbm.visible_bias().view(),
                &rbm.hidden_bias().view(),
            );
            assert_eq!(sub.counters().delta_since(&before), expected, "{backend}");
        }
    }
}
