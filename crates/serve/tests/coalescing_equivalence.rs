//! The serving layer's central correctness claim: for fixed request
//! seeds, N concurrent single-row requests through the
//! [`SamplingService`] return rows **bit-identical** to one direct
//! batched [`batch::sample_rows`] call, at 1, 2, and 8 worker shards,
//! for every substrate backend — coalescing, sharding, and scheduling
//! are invisible in the sampled bits.

use ember_brim::BrimConfig;
use ember_core::{GsConfig, SubstrateSpec};
use ember_rbm::{Rbm, RngStreams};
use ember_serve::batch::{self, ChainRequest};
use ember_serve::{SampleRequest, SamplingService};
use ndarray::{Array1, Array2};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Requests with a mix of clamped and free-running chains, all seeded
/// from one stream family.
fn requests(model: &str, n: usize, gibbs_steps: usize, clamp: &Array1<f64>) -> Vec<SampleRequest> {
    let streams = RngStreams::new(0xC0A1E5CE);
    (0..n)
        .map(|i| {
            let req = SampleRequest::new(model)
                .with_gibbs_steps(gibbs_steps)
                .with_seed(streams.seed(i as u64));
            if i % 3 == 0 {
                req.with_clamp(clamp.clone())
            } else {
                req
            }
        })
        .collect()
}

/// The direct batched path the service must reproduce: every request's
/// single chain in one `sample_rows` call on one replica.
fn direct_rows(
    proto: &dyn ember_substrate::ReplicableSubstrate,
    rbm: &Rbm,
    reqs: &[SampleRequest],
) -> Array2<f64> {
    let mut substrate = proto.clone_boxed();
    substrate.program(
        &rbm.weights().view(),
        &rbm.visible_bias().view(),
        &rbm.hidden_bias().view(),
    );
    let rows: Vec<ChainRequest> = reqs
        .iter()
        .flat_map(|r| batch::expand_request(r, r.seed.expect("test requests are seeded")))
        .collect();
    batch::sample_rows(&mut *substrate, &rows, reqs[0].gibbs_steps)
}

fn check_backend(spec: SubstrateSpec, shard_counts: &[usize]) {
    let mut rng = StdRng::seed_from_u64(99);
    let (m, n) = (7, 4);
    let rbm = Rbm::random(m, n, 0.7, &mut rng);
    let proto = spec.fabricate(m, n, &mut rng);
    let clamp = Array1::from_vec((0..m).map(|i| f64::from(i % 2 == 0)).collect());
    let n_requests = 24;
    let gibbs_steps = 2;
    let reqs = requests("m", n_requests, gibbs_steps, &clamp);
    let expected = direct_rows(&*proto, &rbm, &reqs);

    for &shards in shard_counts {
        let service = SamplingService::builder()
            .shards(shards)
            .queue_rows(256)
            .build();
        service
            .register_model("m", rbm.clone(), proto.clone_boxed())
            .unwrap();
        // Submit everything up front so shards race over a full queue —
        // the adversarial schedule for coalescing.
        let handles: Vec<_> = reqs
            .iter()
            .map(|r| service.submit(r.clone()).unwrap())
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let resp = handle.wait().unwrap();
            assert_eq!(resp.samples.nrows(), 1);
            assert_eq!(resp.model_version, 1);
            assert!(resp.shard < shards);
            assert_eq!(
                resp.samples.row(0),
                expected.row(i),
                "backend {} request {i} at {shards} shard(s)",
                spec.backend_name()
            );
        }
        let stats = service.stats();
        assert_eq!(stats.total(|s| s.rows), n_requests as u64);
        assert_eq!(stats.models["m"].sample_requests, n_requests as u64);
    }
}

#[test]
fn software_gibbs_service_matches_direct_batched_path_at_1_2_8_shards() {
    check_backend(SubstrateSpec::software(GsConfig::default()), &[1, 2, 8]);
}

#[test]
fn software_gibbs_with_noise_still_matches() {
    use ember_analog::NoiseModel;
    let config = GsConfig::default().with_noise(NoiseModel::new(0.1, 0.05).unwrap());
    check_backend(SubstrateSpec::software(config), &[1, 8]);
}

#[test]
fn brim_service_matches_direct_batched_path_at_1_2_8_shards() {
    // Short anneals keep the dynamical simulation cheap; determinism is
    // what is under test, not mixing quality.
    let spec = SubstrateSpec::Brim {
        config: BrimConfig::default(),
        flip_probability: 0.05,
        anneal_steps: 15,
    };
    check_backend(spec, &[1, 2, 8]);
}

#[test]
fn annealer_service_matches_direct_batched_path_at_1_2_8_shards() {
    check_backend(SubstrateSpec::annealer(), &[1, 2, 8]);
}

#[test]
fn multi_row_requests_coalesce_identically() {
    // Same property with n_samples > 1 rows per request: the response
    // matrix equals the direct expansion of the same request.
    let mut rng = StdRng::seed_from_u64(7);
    let rbm = Rbm::random(5, 3, 0.5, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate(5, 3, &mut rng);
    let reqs: Vec<SampleRequest> = (0..6)
        .map(|i| {
            SampleRequest::new("m")
                .with_samples(4)
                .with_gibbs_steps(3)
                .with_seed(500 + i)
        })
        .collect();
    let expected = direct_rows(&*proto, &rbm, &reqs);
    let service = SamplingService::builder().shards(2).build();
    service
        .register_model("m", rbm.clone(), proto.clone_boxed())
        .unwrap();
    let handles: Vec<_> = reqs
        .iter()
        .map(|r| service.submit(r.clone()).unwrap())
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let resp = handle.wait().unwrap();
        assert_eq!(resp.samples.nrows(), 4);
        for j in 0..4 {
            assert_eq!(
                resp.samples.row(j),
                expected.row(4 * i + j),
                "req {i} row {j}"
            );
        }
    }
}
