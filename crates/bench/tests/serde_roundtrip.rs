//! Persistence round-trips: every model/config type a user would save to
//! disk must survive serde JSON serialization bit-exactly.

use ember_analog::NoiseModel;
use ember_core::{BgfConfig, GsConfig};
use ember_ising::{BipartiteProblem, IsingProblem, SpinVec};
use ember_rbm::{Dbn, Mlp, Rbm};
use ember_substrate::HardwareCounters;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

/// JSON text round-trips f64 to within one ULP; model equality checks use
/// this tolerance rather than bit equality.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

fn rbm_close(a: &Rbm, b: &Rbm) -> bool {
    a.weights()
        .iter()
        .zip(b.weights().iter())
        .all(|(x, y)| close(*x, *y))
        && a.visible_bias()
            .iter()
            .zip(b.visible_bias().iter())
            .all(|(x, y)| close(*x, *y))
        && a.hidden_bias()
            .iter()
            .zip(b.hidden_bias().iter())
            .all(|(x, y)| close(*x, *y))
}

#[test]
fn rbm_roundtrip_is_exact() {
    let mut rng = StdRng::seed_from_u64(1);
    let rbm = Rbm::random(12, 7, 0.3, &mut rng);
    let back: Rbm = roundtrip(&rbm);
    assert!(rbm_close(&rbm, &back));
}

#[test]
fn dbn_roundtrip_is_exact() {
    let mut rng = StdRng::seed_from_u64(2);
    let dbn = Dbn::random(&[8, 5, 3], 0.2, &mut rng);
    let back: Dbn = roundtrip(&dbn);
    for l in 0..dbn.depth() {
        assert!(rbm_close(dbn.layer(l), back.layer(l)), "layer {l} drifted");
    }
}

#[test]
fn mlp_roundtrip_preserves_predictions() {
    let mut rng = StdRng::seed_from_u64(3);
    let mlp = Mlp::new(6, &[4], 3, 0.5, &mut rng);
    let back: Mlp = roundtrip(&mlp);
    let batch = ndarray::Array2::from_shape_fn((5, 6), |(i, j)| ((i * j) % 2) as f64);
    let a = mlp.predict_proba(&batch);
    let b = back.predict_proba(&batch);
    assert!(a.iter().zip(b.iter()).all(|(x, y)| close(*x, *y)));
}

#[test]
fn ising_problem_roundtrip_preserves_energy() {
    let mut rng = StdRng::seed_from_u64(4);
    let p = ember_ising::generate::random_gaussian(9, 1.0, 0.4, &mut rng);
    let back: IsingProblem = roundtrip(&p);
    let s = SpinVec::random(9, &mut rng);
    assert!(close(p.energy(&s), back.energy(&s)));
}

#[test]
fn bipartite_problem_roundtrip() {
    let p = BipartiteProblem::new(
        ndarray::arr2(&[[1.0, -2.0], [0.5, 0.25]]),
        ndarray::arr1(&[0.1, -0.1]),
        ndarray::arr1(&[0.2, 0.3]),
    )
    .unwrap();
    let back: BipartiteProblem = roundtrip(&p);
    assert_eq!(p, back);
}

#[test]
fn configs_roundtrip() {
    let gs = GsConfig::default()
        .with_k(7)
        .with_learning_rate(0.03)
        .with_noise(NoiseModel::new(0.1, 0.2).unwrap());
    assert_eq!(gs, roundtrip(&gs));

    let bgf = BgfConfig::default()
        .with_pump_ratio(1.0 / 256.0)
        .with_particles(13)
        .with_adc_bits(10);
    assert_eq!(bgf, roundtrip(&bgf));

    let counters = HardwareCounters {
        positive_samples: 1,
        negative_samples: 2,
        phase_points: 3,
        weight_update_events: 4,
        host_words_transferred: 5,
        host_mac_ops: 6,
        packed_kernel_calls: 7,
        dense_kernel_calls: 8,
        simd_kernel_calls: 13,
        substrate_faults: 9,
        corrupted_programmings: 10,
        corrupted_reads: 11,
        recovery_retries: 12,
    };
    assert_eq!(counters, roundtrip(&counters));
}

#[test]
fn trained_model_json_is_loadable_by_fresh_process_shape() {
    // Simulate the "save after training, load for inference" flow.
    let mut rng = StdRng::seed_from_u64(5);
    let mut rbm = Rbm::random(10, 4, 0.05, &mut rng);
    let data = ndarray::Array2::from_shape_fn((20, 10), |(i, _)| (i % 2) as f64);
    ember_rbm::CdTrainer::new(1, 0.1).train(&mut rbm, &data, 5, 10, &mut rng);

    let json = serde_json::to_string_pretty(&rbm).expect("serialize");
    let loaded: Rbm = serde_json::from_str(&json).expect("deserialize");
    let v = ndarray::arr1(&[1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    let a = rbm.hidden_probs(&v.view());
    let b = loaded.hidden_probs(&v.view());
    assert!(a.iter().zip(b.iter()).all(|(x, y)| close(*x, *y)));
}
