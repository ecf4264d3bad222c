//! Shared conformance suite for every [`Substrate`] backend.
//!
//! Two contracts are pinned here:
//!
//! 1. **Distribution conformance** — driving an alternating-clamp Gibbs
//!    chain through the trait (`sample_hidden_batch` /
//!    `sample_visible_batch`) must produce an empirical visible
//!    distribution within a total-variation tolerance of the exact
//!    enumeration (`exact::visible_distribution`). The calibrated
//!    backends (software node path, Metropolis annealer at `T = 1`) are
//!    held to a tight tolerance; the BRIM's dynamics-driven bath is an
//!    *approximate* sampler and gets a looser one.
//! 2. **Bit-identity of `SoftwareGibbs`** — the default
//!    `GibbsSampler` path must reproduce the pre-refactor batched
//!    engine bit for bit, at 1, 2, and 8 rayon threads. The expected
//!    values below were captured by running the pre-refactor
//!    implementation (commit c9e891c) with the identical seed/workload.

use ember_analog::NoiseModel;
use ember_brim::BrimConfig;
use ember_core::substrate::{AnnealerSubstrate, BrimSubstrate, SoftwareGibbs, Substrate};
use ember_core::{GibbsSampler, GsConfig};
use ember_rbm::{exact, Rbm};
use ndarray::{Array1, Array2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tiny RBM every backend samples: 4 visible × 3 hidden, 16
/// enumerable visible states.
fn tiny_rbm() -> Rbm {
    let mut rng = StdRng::seed_from_u64(31);
    Rbm::random(4, 3, 0.8, &mut rng)
}

fn total_variation(p: &Array1<f64>, q: &Array1<f64>) -> f64 {
    0.5 * p
        .iter()
        .zip(q.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

/// Runs an alternating-clamp Gibbs chain through the trait and returns
/// the total variation between the empirical visible histogram and the
/// exact distribution.
fn substrate_visible_tv(substrate: &mut dyn Substrate, rbm: &Rbm, draws: usize, seed: u64) -> f64 {
    let m = rbm.visible_len();
    let exact_dist = exact::visible_distribution(rbm);
    substrate.program(
        &rbm.weights().view(),
        &rbm.visible_bias().view(),
        &rbm.hidden_bias().view(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let chains = 32;
    let mut v = Array2::from_shape_fn((chains, m), |_| f64::from(rng.random_bool(0.5)));
    for _ in 0..20 {
        let h = substrate.sample_hidden_batch(&v, &mut rng);
        v = substrate.sample_visible_batch(&h, &mut rng);
    }
    let mut hist = Array1::<f64>::zeros(1 << m);
    let per_chain = draws / chains;
    for _ in 0..per_chain {
        let h = substrate.sample_hidden_batch(&v, &mut rng);
        v = substrate.sample_visible_batch(&h, &mut rng);
        for row in v.rows() {
            let code = row
                .iter()
                .enumerate()
                .fold(0usize, |acc, (i, &x)| acc | (usize::from(x >= 0.5) << i));
            hist[code] += 1.0;
        }
    }
    hist /= (per_chain * chains) as f64;
    total_variation(&hist, &exact_dist)
}

#[test]
fn software_gibbs_matches_exact_distribution() {
    // The chain is binary after the random init, so every half-step
    // runs on the bit-packed kernel (see `ember_core::kernels`).
    let rbm = tiny_rbm();
    let mut rng = StdRng::seed_from_u64(100);
    let mut sub = SoftwareGibbs::new(4, 3, &GsConfig::default(), &mut rng);
    let tv = substrate_visible_tv(&mut sub, &rbm, 6400, 1);
    assert!(tv < 0.05, "software Gibbs TV {tv}");
    assert_eq!(sub.counters().dense_kernel_calls, 0);
}

#[test]
fn annealer_matches_exact_distribution() {
    let rbm = tiny_rbm();
    let mut sub = AnnealerSubstrate::for_rbm(&rbm);
    let tv = substrate_visible_tv(&mut sub, &rbm, 6400, 2);
    assert!(tv < 0.05, "annealer TV {tv}");
}

#[test]
fn brim_tracks_exact_distribution() {
    // The BRIM's flip-injection bath is an uncalibrated approximation of
    // the Boltzmann conditionals (its effective temperature is set by the
    // flip rate, not by β = 1), so the tolerance is looser — but it must
    // clearly track the target distribution: a uniform sampler sits at
    // TV ≈ 0.45 on this RBM.
    let rbm = tiny_rbm();
    let mut sub = BrimSubstrate::for_rbm(&rbm, BrimConfig::default()).with_thermal_bath(0.005, 120);
    let tv = substrate_visible_tv(&mut sub, &rbm, 3200, 3);
    assert!(tv < 0.15, "BRIM TV {tv}");
}

#[test]
fn substrates_report_conditional_sampling_work() {
    // Every backend must account its sampling work: phase points and
    // read-out words strictly grow with each conditional sample.
    let rbm = tiny_rbm();
    let mut rng = StdRng::seed_from_u64(7);
    let soft = SoftwareGibbs::new(4, 3, &GsConfig::default(), &mut rng);
    let subs: Vec<Box<dyn Substrate>> = vec![
        Box::new(soft),
        Box::new(BrimSubstrate::for_rbm(&rbm, BrimConfig::default())),
        Box::new(AnnealerSubstrate::for_rbm(&rbm)),
    ];
    for mut sub in subs {
        sub.program(
            &rbm.weights().view(),
            &rbm.visible_bias().view(),
            &rbm.hidden_bias().view(),
        );
        assert_eq!(
            sub.counters().host_words_transferred,
            sub.programming_cost(),
            "{} programming words",
            sub.name()
        );
        let v = Array2::zeros((5, 4));
        let h = sub.sample_hidden_batch(&v, &mut rng);
        assert_eq!(h.dim(), (5, 3), "{} shape", sub.name());
        assert!(
            h.iter().all(|&x| x == 0.0 || x == 1.0),
            "{} binary",
            sub.name()
        );
        assert!(
            sub.counters().phase_points > 0,
            "{} phase points",
            sub.name()
        );
        assert_eq!(
            sub.counters().host_words_transferred,
            sub.programming_cost() + 5 * 3,
            "{} read-out words",
            sub.name()
        );
    }
}

// --- Bit-identity of the default (SoftwareGibbs) GibbsSampler path ----

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Final weight bits of the pre-refactor `GibbsSampler` batched engine:
/// seed 42, 6×4 RBM (std 0.1), k = 2, noise (0.05, 0.05), 3 epochs of
/// batch-4 training over the 12-row parity dataset below.
const GOLDEN_WEIGHT_BITS: [u64; 24] = [
    0x3faad14cee4d4743,
    0xbf9c817e6d324492,
    0x3fa7c4109956af73,
    0x3fc94bc63430ca3e,
    0x3fd00ccfe7499df7,
    0x3fb3e5879ddb019b,
    0x3fb64adc0d66ca22,
    0x3fae7f023fefdf51,
    0x3fc9fe850def9fce,
    0xbfc0338c88b2dc94,
    0xbfd17ef0f1887d6c,
    0x3f6f4624161802c0,
    0x3fbd32b1d4cfb1b6,
    0xbfc01931b500170a,
    0x3fb30cb999153849,
    0x3f966b8eb20061ec,
    0x3fbbf1e88a25c986,
    0x3f990b442eb7004c,
    0x3fbac7c90c5f28e1,
    0x3faa1574d3a8626b,
    0x3fc9266f6712ac29,
    0xbfc19d021675e0df,
    0xbfc31072bfdb0259,
    0x3fb6312047751f98,
];

/// Bias bits (visible then hidden) of the same golden run.
const GOLDEN_BIAS_BITS: [u64; 10] = [
    0x3f9999999999999c,
    0x3fb999999999999a,
    0xbf9999999999999a,
    0x0000000000000000,
    0xbf9999999999999c,
    0xbc60000000000000,
    0x3fcccccccccccccd,
    0xbfa999999999999a,
    0xbfb999999999999a,
    0x3fb3333333333334,
];

fn golden_workload() -> (Rbm, GsConfig, Array2<f64>) {
    let mut rng = StdRng::seed_from_u64(42);
    let rbm = Rbm::random(6, 4, 0.1, &mut rng);
    let config = GsConfig::default()
        .with_k(2)
        .with_noise(NoiseModel::new(0.05, 0.05).unwrap());
    let data = Array2::from_shape_fn((12, 6), |(i, j)| f64::from((i + j) % 2 == 0));
    (rbm, config, data)
}

fn run_golden_workload() -> GibbsSampler {
    let mut rng = StdRng::seed_from_u64(42);
    let rbm = Rbm::random(6, 4, 0.1, &mut rng);
    let (_, config, data) = golden_workload();
    let mut gs = GibbsSampler::new(rbm, config, &mut rng);
    for _ in 0..3 {
        gs.train_epoch(&data, 4, &mut rng);
    }
    gs
}

#[test]
fn software_gibbs_bit_identical_to_pre_refactor_batched_path() {
    // Every thread count must land on the same pre-refactor bits: the
    // rayon row blocks and the bit-packed kernel both preserve
    // per-element accumulation order exactly.
    for threads in THREAD_COUNTS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let gs = run_golden_workload();
            let weight_bits: Vec<u64> = gs.rbm().weights().iter().map(|w| w.to_bits()).collect();
            assert_eq!(
                weight_bits,
                GOLDEN_WEIGHT_BITS.to_vec(),
                "weights diverged from pre-refactor output at {threads} threads"
            );
            let bias_bits: Vec<u64> = gs
                .rbm()
                .visible_bias()
                .iter()
                .chain(gs.rbm().hidden_bias().iter())
                .map(|b| b.to_bits())
                .collect();
            assert_eq!(
                bias_bits,
                GOLDEN_BIAS_BITS.to_vec(),
                "biases diverged from pre-refactor output at {threads} threads"
            );
            // Counter totals of the pre-refactor run, same capture.
            let c = gs.counters();
            assert_eq!(c.positive_samples, 36);
            assert_eq!(c.negative_samples, 36);
            assert_eq!(c.phase_points, 9000);
            assert_eq!(c.host_words_transferred, 1204);
            assert_eq!(c.host_mac_ops, 2034);
        });
    }
}
