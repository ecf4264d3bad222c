//! Serving through a fault storm: the [`SamplingService`] riding out an
//! injected-chaos substrate — programming corruption, read faults,
//! latency spikes, and a mid-request panic — while a second model's
//! hard-failing hardware trips its circuit breaker into degraded
//! software service.
//!
//! The punchline is the robustness contract: **every request is
//! answered** (a response or a typed error, never a hang), and every
//! request whose faults were absorbed by the reprogram-and-retry loop
//! returns **exactly the fault-free bits** — chains recreate their RNG
//! streams from their seeds on every attempt, so recovery is invisible
//! in the samples.
//!
//! ```sh
//! cargo run --release --example chaos_service
//! ```

use std::time::{Duration, Instant};

use ember::brim::BrimConfig;
use ember::core::{RetryPolicy, SubstrateSpec};
use ember::rbm::Rbm;
use ember::serve::{SampleRequest, SamplingService, ServeError};
use ember::substrate::{ChaosConfig, ChaosSubstrate};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2023);

    // One BRIM machine, fabricated once: the clean reference service and
    // the chaotic service serve clones of the same physical identity, so
    // recovered responses can be checked bit-for-bit.
    let digits = Rbm::random(16, 8, 0.4, &mut rng);
    let digits_proto = SubstrateSpec::brim(BrimConfig::default()).fabricate_for(&digits, &mut rng);

    let clean = SamplingService::builder().shards(1).build();
    clean
        .register_model("digits@brim", digits.clone(), digits_proto.clone_boxed())
        .unwrap();

    // The same machine behind a chaos wrapper: 2% of programmings and
    // reads fault or corrupt, occasional 1 ms latency spikes, and one
    // injected panic on the 40th sampling call.
    let chaotic = Box::new(ChaosSubstrate::new(
        digits_proto.clone_boxed(),
        ChaosConfig::new(0xC4A05)
            .with_fault_rate(0.02)
            .with_latency_spikes(0.01, Duration::from_millis(1))
            .with_panic_on_sample_call(40),
    ));

    // A second model whose "hardware" hard-fails every operation: its
    // retries can never succeed, so its circuit breaker must trip.
    let fraud = Rbm::random(12, 6, 0.4, &mut rng);
    let fraud_proto = SubstrateSpec::annealer().fabricate_for(&fraud, &mut rng);
    let broken = Box::new(ChaosSubstrate::new(
        fraud_proto,
        ChaosConfig::new(9).with_hard_fault_rate(1.0),
    ));

    let service = SamplingService::builder()
        .shards(2)
        .retry_policy(RetryPolicy::default().with_max_retries(8))
        .breaker_threshold(2)
        .build();
    service
        .register_model("digits@brim", digits, chaotic)
        .unwrap();
    service
        .register_model("fraud@annealer", fraud, broken)
        .unwrap();

    println!("== phase 1: 48 mixed digits requests through a 2% fault storm ==");
    let mut recovered = 0u32;
    for i in 0..48u64 {
        let request = SampleRequest::new("digits@brim")
            .with_samples(1 + (i % 3) as usize)
            .with_gibbs_steps(2)
            .with_seed(i);
        match service.sample(request.clone()) {
            Ok(response) => {
                let golden = clean.sample(request).unwrap();
                assert_eq!(
                    response.samples, golden.samples,
                    "recovered responses must be bit-identical to the fault-free run"
                );
                recovered += 1;
            }
            Err(ServeError::ShardRestarted { shard }) => {
                println!("  request {i}: shard {shard} panicked mid-request; resubmitting");
                let response = service.sample(request.clone()).unwrap();
                let golden = clean.sample(request).unwrap();
                assert_eq!(response.samples, golden.samples);
                recovered += 1;
            }
            Err(other) => println!("  request {i}: {other}"),
        }
    }
    println!("  {recovered}/48 requests served with fault-free bits\n");

    println!("== phase 2: hard-failing fraud model trips its breaker ==");
    for i in 0..4u64 {
        match service.sample(SampleRequest::new("fraud@annealer").with_seed(i)) {
            Ok(response) if response.degraded => {
                println!("  request {i}: served DEGRADED (software fallback)");
            }
            Ok(_) => println!("  request {i}: served by the registered substrate"),
            Err(e) => println!("  request {i}: {e}"),
        }
    }
    println!();

    println!("== phase 3: deadline shedding ==");
    let expired = service
        .submit(
            SampleRequest::new("digits@brim")
                .with_seed(999)
                .with_deadline(Instant::now() - Duration::from_millis(1)),
        )
        .unwrap();
    println!("  past-due request: {}\n", expired.wait().unwrap_err());

    let stats = service.stats();
    println!("== fault & recovery accounting ==");
    let counters = stats.counters();
    println!(
        "  substrate fault events   {}",
        counters.total_fault_events()
    );
    println!("  recovery retries         {}", counters.recovery_retries);
    println!("  shard restarts           {}", stats.total(|s| s.restarts));
    println!(
        "  shed (past deadline)     {}",
        stats.total(|s| s.shed_requests)
    );
    println!("  rejected (backpressure)  {}", stats.rejected);
    println!("  degraded models          {:?}", stats.degraded);
    println!(
        "  kernel tier              {} ({} simd / {} packed / {} dense calls)",
        ember::kernels::active_tier().name(),
        counters.simd_kernel_calls,
        counters.packed_kernel_calls,
        counters.dense_kernel_calls
    );
    for (name, model) in &stats.models {
        println!(
            "  {name:<16} served {:>3}  degraded {:>3}  failed {:>3}",
            model.sample_requests, model.degraded_requests, model.failed_requests
        );
    }
    println!(
        "  accepted-request latency {}",
        stats.latency() // queue-to-answer, merged across shards
    );

    let report = service.shutdown(Duration::from_secs(5));
    println!(
        "\n== drained: {} (aborted {}) ==",
        report.drained, report.aborted_requests
    );
}
