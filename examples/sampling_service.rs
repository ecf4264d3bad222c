//! Sampling as a service: one [`SamplingService`] serving two RBMs over
//! all three substrate backends to a crowd of concurrent clients, with
//! a training job republishing one model mid-traffic.
//!
//! The serving economics mirror the paper's §3.2 accelerator economics:
//! substrate programming (`m·n + m + n` words) and host round trips are
//! amortized over whole *batches* — here not a trainer's minibatch but a
//! coalesced group of unrelated client requests for the same model.
//! Because every chain runs on its own RNG stream, the coalescing is
//! bit-invisible: a seeded request returns the same samples at any shard
//! count, under any traffic.
//!
//! ```sh
//! cargo run --release --example sampling_service
//! ```

use ember::brim::BrimConfig;
use ember::core::{GsConfig, SubstrateSpec};
use ember::rbm::{CdTrainer, Rbm};
use ember::serve::{SampleRequest, SamplingService, TrainRequest};
use ndarray::Array2;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2023);

    // Two models: a "digits" RBM and a smaller "fraud" RBM.
    let digits = Rbm::random(16, 8, 0.4, &mut rng);
    let fraud = Rbm::random(12, 6, 0.4, &mut rng);

    // One service, four shards. Each registered model binds to its own
    // backend prototype — heterogeneous physics behind one API.
    let service = SamplingService::builder()
        .shards(4)
        .queue_rows(512)
        .master_seed(7)
        .build();
    let entries: [(&str, &Rbm, SubstrateSpec); 3] = [
        (
            "digits@software",
            &digits,
            SubstrateSpec::software(GsConfig::default()),
        ),
        (
            "digits@brim",
            &digits,
            SubstrateSpec::Brim {
                config: BrimConfig::default(),
                flip_probability: 0.02,
                anneal_steps: 60,
            },
        ),
        ("fraud@annealer", &fraud, SubstrateSpec::annealer()),
    ];
    for (name, rbm, spec) in &entries {
        let proto = spec.fabricate_for(rbm, &mut rng);
        service
            .register_model(*name, (*rbm).clone(), proto)
            .unwrap();
        println!(
            "registered {name:<16} ({}x{})",
            rbm.visible_len(),
            rbm.hidden_len()
        );
    }

    // Mixed traffic: 8 client threads × 12 requests, round-robin over
    // the three served models, plus one training job on the digits model
    // racing the samplers.
    let names = [entries[0].0, entries[1].0, entries[2].0];
    let trained = std::thread::scope(|scope| {
        for client in 0..8u64 {
            let service = &service;
            scope.spawn(move || {
                for r in 0..12u64 {
                    let name = names[((client + r) % 3) as usize];
                    let resp = service
                        .sample(
                            SampleRequest::new(name)
                                .with_samples(2)
                                .with_gibbs_steps(2)
                                .with_seed(client * 1000 + r),
                        )
                        .unwrap();
                    assert!(resp.samples.iter().all(|&x| x == 0.0 || x == 1.0));
                }
            });
        }
        let data = Array2::from_shape_fn((40, 16), |(i, j)| f64::from((i + j) % 2 == 0));
        service
            .train(
                TrainRequest::new("digits@software", data)
                    .with_trainer(CdTrainer::new(1, 0.05))
                    .with_batch_size(8)
                    .with_epochs(2)
                    .with_seed(99),
            )
            .unwrap()
    });
    println!(
        "\ntraining republished digits@software as v{} (recon err {:.3})",
        trained.new_version, trained.stats.reconstruction_error
    );

    // A fixed-seed request reproduces bit-identically after the storm —
    // versioned models make "which parameters answered me" explicit.
    let a = service
        .sample(
            SampleRequest::new("fraud@annealer")
                .with_samples(3)
                .with_seed(5),
        )
        .unwrap();
    let b = service
        .sample(
            SampleRequest::new("fraud@annealer")
                .with_samples(3)
                .with_seed(5),
        )
        .unwrap();
    assert_eq!(a.samples, b.samples);
    println!("fixed-seed replay is bit-identical (v{})", b.model_version);

    let stats = service.stats();
    println!("\nper-shard:");
    for (i, s) in stats.shards.iter().enumerate() {
        println!(
            "  shard {i}: {:>3} requests  {:>3} rows  {:>3} batches  largest {:>2}  {:>9} phase points",
            s.sample_requests, s.rows, s.batches, s.largest_batch, s.counters.phase_points
        );
    }
    println!("per-model:");
    for (name, m) in &stats.models {
        println!(
            "  {name:<16} {:>3} sample reqs  {:>2} train reqs  {:>9} phase points  {:>9} host words",
            m.sample_requests, m.train_requests, m.counters.phase_points,
            m.counters.host_words_transferred
        );
    }
    let batches = stats.total(|s| s.batches);
    println!(
        "\ncoalescing factor: {:.2} rows/batch over {batches} batches ({} rejected)",
        stats.total(|s| s.rows) as f64 / batches.max(1) as f64,
        stats.rejected
    );
    let counters = stats.counters();
    let kernel_calls = (counters.packed_kernel_calls + counters.dense_kernel_calls).max(1) as f64;
    println!(
        "kernel mix: {:.0}% of sampling calls bit-packed ({} packed / {} dense)",
        100.0 * counters.packed_kernel_calls as f64 / kernel_calls,
        counters.packed_kernel_calls,
        counters.dense_kernel_calls
    );
    println!(
        "kernel tier: {} ({:.0}% of sampling calls on a vector SIMD tier)",
        ember::kernels::active_tier().name(),
        100.0 * counters.simd_kernel_calls as f64 / kernel_calls,
    );
}
