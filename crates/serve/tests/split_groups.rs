//! A shard splits a large coalesced group across its share of the
//! host's cores and keeps every bit. A one-shard service gathers 64
//! single-row, 5-step requests at 108×1024 into one 64-row group, and
//! each answer is its row of one serial `batch::sample_rows` call,
//! whatever the host's core count: one core runs the group on the
//! shard's thread, more split it.

use std::time::Duration;

use ember_core::{GsConfig, SubstrateSpec};
use ember_rbm::{Rbm, RngStreams};
use ember_serve::batch::{self, ChainRequest};
use ember_serve::{SampleRequest, SamplingService};
use ember_substrate::{ReplicableSubstrate, Substrate};
use ndarray::Array1;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 64;
const STEPS: usize = 5;

#[test]
fn a_coalesced_wave_keeps_the_serial_bits_on_any_core_count() {
    let (m, n) = (108, 1024);
    let mut rng = StdRng::seed_from_u64(0x5B117);
    let rbm = Rbm::random(m, n, 0.05, &mut rng);
    let proto = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
    let clamp = Array1::from_shape_fn(m, |i| f64::from(i.is_multiple_of(3)));
    let streams = RngStreams::new(0x3A5E);
    let requests: Vec<SampleRequest> = (0..ROWS)
        .map(|i| {
            let request = SampleRequest::new("m")
                .with_gibbs_steps(STEPS)
                .with_seed(streams.seed(i as u64));
            if i.is_multiple_of(4) {
                request.with_clamp(clamp.clone())
            } else {
                request
            }
        })
        .collect();

    // The serial reference: every chain in one call on a fresh replica.
    let mut replica = proto.clone_boxed();
    replica.program(
        &rbm.weights().view(),
        &rbm.visible_bias().view(),
        &rbm.hidden_bias().view(),
    );
    let before = *replica.counters();
    let rows: Vec<ChainRequest> = requests
        .iter()
        .flat_map(|r| batch::expand_request(r, r.seed.expect("seeded")))
        .collect();
    let expected = batch::sample_rows(&mut *replica, &rows, STEPS);
    let serial = replica.counters().delta_since(&before);

    // The window outlasts the submits, so the shard waits for the
    // whole wave and runs it as one group.
    let service = SamplingService::builder()
        .shards(1)
        .max_coalesce_rows(ROWS)
        .coalesce_window(Duration::from_secs(60))
        .build();
    service
        .register_model("m", rbm, proto.clone_boxed())
        .unwrap();
    let handles: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).unwrap())
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // 64 · 5 · 108 · 1024 units over a 2²²-unit floor: up to 8 workers.
    let workers = cores.min(8) as u64;
    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle.wait().unwrap();
        assert_eq!(
            response.coalesced_rows, ROWS,
            "request {i} ran in a smaller group"
        );
        let bits = |row: ndarray::ArrayView1<'_, f64>| -> Vec<u64> {
            row.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(
            bits(response.samples.row(0)),
            bits(expected.row(i)),
            "request {i}, {cores} cores"
        );
        // Every member carries the group's counters: one programming,
        // the serial run's additive counts, and one call per worker per
        // half-step.
        let spent = response.counters;
        assert_eq!(
            spent.host_words_transferred,
            serial.host_words_transferred + proto.programming_cost()
        );
        assert_eq!(spent.phase_points, serial.phase_points);
        assert_eq!(
            spent.packed_kernel_calls + spent.dense_kernel_calls,
            workers * 2 * STEPS as u64,
            "{cores} cores"
        );
    }
}
