//! Absolute bits and counters of every trainer entry point.
//!
//! The other trainer suites pin *relations*: a trainer learns. Only the
//! Gibbs-sampler accelerator has golden bits (`substrate_conformance`).
//! This file pins the bits of CD, PCD and `GibbsSampler` themselves. For
//! each entry point (`train_epoch`, `train`, `train_epoch_with`,
//! `train_with`, `GibbsSampler::train_epoch`), on the host and on every
//! backend, it trains a 13×6 model on 23 rows in minibatches of 5 (so
//! every epoch ends on a partial batch), on binary and on gray data, and
//! folds FNV-1a over the weight and bias bits, every `EpochStats` field,
//! the PCD particles and every `HardwareCounters` field. One more case
//! runs the service's trainer as a training request does: CD-1 with no
//! momentum, in minibatches of 16.
//!
//! Any change to a sampled bit, to the order in which a trainer draws
//! from its RNG, to the minibatch slicing, to the gradient
//! arithmetic or to what a minibatch counts moves a digest. The
//! constants hold on the SIMD and on the scalar tier
//! (`EMBER_FORCE_SCALAR=1`): `simd_kernel_calls` is the one counter that
//! depends on the tier, so it is checked against its tier identity
//! instead of hashed.

use ember_analog::NoiseModel;
use ember_brim::BrimConfig;
use ember_core::substrate::{AnnealerSubstrate, BrimSubstrate, SoftwareGibbs};
use ember_core::{GibbsSampler, GsConfig};
use ember_rbm::{CdTrainer, EpochStats, PcdTrainer, Rbm};
use ember_substrate::{HardwareCounters, Substrate};
use ndarray::{Array1, Array2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Visible width.
const M: usize = 13;
/// Hidden width.
const N: usize = 6;
/// Data rows: four full minibatches and a partial one of 3.
const ROWS: usize = 23;
/// Minibatch size.
const BATCH: usize = 5;
/// Gibbs steps for CD and PCD.
const K: usize = 2;
/// PCD's persistent particles.
const PARTICLES: usize = 7;

/// FNV-1a, 64-bit, over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn vector(&mut self, a: &Array1<f64>) {
        self.word(a.len() as u64);
        for x in a.iter() {
            self.word(x.to_bits());
        }
    }

    fn matrix(&mut self, a: &Array2<f64>) {
        self.word(a.nrows() as u64);
        self.word(a.ncols() as u64);
        for x in a.iter() {
            self.word(x.to_bits());
        }
    }

    fn rbm(&mut self, rbm: &Rbm) {
        self.matrix(rbm.weights());
        self.vector(rbm.visible_bias());
        self.vector(rbm.hidden_bias());
    }

    fn stats(&mut self, s: EpochStats) {
        let EpochStats {
            batches,
            reconstruction_error,
            gradient_norm,
        } = s;
        self.word(batches as u64);
        self.word(reconstruction_error.to_bits());
        self.word(gradient_norm.to_bits());
    }

    /// Every counter field. `simd_kernel_calls` is the tier-dependent
    /// one: it must equal `packed + dense` on a vector tier and `0` on
    /// the scalar tier, which pins it exactly without hashing it.
    fn counters(&mut self, c: &HardwareCounters) {
        let HardwareCounters {
            positive_samples,
            negative_samples,
            phase_points,
            weight_update_events,
            host_words_transferred,
            host_mac_ops,
            packed_kernel_calls,
            dense_kernel_calls,
            simd_kernel_calls,
            substrate_faults,
            corrupted_programmings,
            corrupted_reads,
            recovery_retries,
        } = *c;
        let tier = if ndarray::simd::simd_active() {
            packed_kernel_calls + dense_kernel_calls
        } else {
            0
        };
        assert_eq!(simd_kernel_calls, tier, "simd_kernel_calls off its tier");
        for x in [
            positive_samples,
            negative_samples,
            phase_points,
            weight_update_events,
            host_words_transferred,
            host_mac_ops,
            packed_kernel_calls,
            dense_kernel_calls,
            substrate_faults,
            corrupted_programmings,
            corrupted_reads,
            recovery_retries,
        ] {
            self.word(x);
        }
    }
}

fn model() -> Rbm {
    Rbm::random(M, N, 0.4, &mut StdRng::seed_from_u64(0x7EA1))
}

/// The two data sets every case trains on: binary rows (the packed
/// kernels) and gray levels in `[0, 1)` (DTC quantization and the dense
/// kernels).
fn datasets() -> [Array2<f64>; 2] {
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    let binary = Array2::from_shape_fn((ROWS, M), |_| f64::from(rng.random_bool(0.5)));
    let gray = Array2::from_shape_fn((ROWS, M), |_| rng.random_range(0.0..1.0));
    [binary, gray]
}

fn cd() -> CdTrainer {
    CdTrainer::new(K, 0.05)
        .with_momentum(0.5)
        .with_weight_decay(1e-3)
}

fn pcd(rbm: &Rbm) -> PcdTrainer {
    PcdTrainer::new(K, 0.05, PARTICLES, rbm, &mut StdRng::seed_from_u64(0x9A27))
}

fn noisy() -> GsConfig {
    GsConfig::default().with_noise(NoiseModel::new(0.05, 0.1).unwrap())
}

fn software(config: &GsConfig) -> SoftwareGibbs {
    SoftwareGibbs::new(M, N, config, &mut StdRng::seed_from_u64(0xFAB))
}

fn brim(rbm: &Rbm) -> BrimSubstrate {
    BrimSubstrate::for_rbm(rbm, BrimConfig::default()).with_thermal_bath(0.02, 40)
}

/// Runs `case` once per data set and folds both runs into one digest.
fn digest(case: impl Fn(&mut Digest, &Array2<f64>)) -> u64 {
    let mut d = Digest::new();
    for data in datasets() {
        case(&mut d, &data);
    }
    d.0
}

/// CD on the host: one `train_epoch`, then two epochs of `train` on the
/// same RNG.
fn cd_host() -> u64 {
    digest(|d, data| {
        let mut rbm = model();
        let mut rng = StdRng::seed_from_u64(1);
        d.stats(cd().train_epoch(&mut rbm, data, BATCH, &mut rng));
        d.rbm(&rbm);
        d.stats(cd().train(&mut rbm, data, BATCH, 2, &mut rng));
        d.rbm(&rbm);
    })
}

/// CD offloaded to `sub`: one `train_epoch_with`, then two epochs of
/// `train_with` on the same RNG.
fn cd_with<S: Substrate>(make: impl Fn(&Rbm) -> S) -> u64 {
    cd_on(cd(), BATCH, make)
}

/// [`cd_with`] for any trainer and minibatch size.
fn cd_on<S: Substrate>(trainer: CdTrainer, batch: usize, make: impl Fn(&Rbm) -> S) -> u64 {
    digest(|d, data| {
        let mut rbm = model();
        let mut sub = make(&rbm);
        let mut rng = StdRng::seed_from_u64(3);
        d.stats(trainer.train_epoch_with(&mut rbm, data, batch, &mut sub, &mut rng));
        d.rbm(&rbm);
        d.counters(sub.counters());
        d.stats(trainer.train_with(&mut rbm, data, batch, &mut sub, 2, &mut rng));
        d.rbm(&rbm);
        d.counters(sub.counters());
    })
}

/// PCD on the host: one `train_epoch`, then two epochs of `train` on the
/// same RNG.
fn pcd_host() -> u64 {
    digest(|d, data| {
        let mut rbm = model();
        let mut trainer = pcd(&rbm);
        let mut rng = StdRng::seed_from_u64(5);
        d.stats(trainer.train_epoch(&mut rbm, data, BATCH, &mut rng));
        d.rbm(&rbm);
        d.matrix(trainer.particles());
        d.stats(trainer.train(&mut rbm, data, BATCH, 2, &mut rng));
        d.rbm(&rbm);
        d.matrix(trainer.particles());
    })
}

/// PCD offloaded to `sub`: three epochs of `train_epoch_with`.
fn pcd_with<S: Substrate>(make: impl Fn(&Rbm) -> S) -> u64 {
    digest(|d, data| {
        let mut rbm = model();
        let mut sub = make(&rbm);
        let mut trainer = pcd(&rbm);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3 {
            d.stats(trainer.train_epoch_with(&mut rbm, data, BATCH, &mut sub, &mut rng));
            d.rbm(&rbm);
            d.matrix(trainer.particles());
            d.counters(sub.counters());
        }
    })
}

/// Two epochs of the Gibbs-sampler accelerator.
fn gs<S: Substrate>(make: impl Fn(Rbm, GsConfig, &mut StdRng) -> GibbsSampler<S>) -> u64 {
    digest(|d, data| {
        let mut rng = StdRng::seed_from_u64(9);
        let mut gs = make(model(), noisy().with_k(K), &mut rng);
        for _ in 0..2 {
            d.stats(gs.train_epoch(data, BATCH, &mut rng));
            d.rbm(gs.rbm());
            d.counters(gs.counters());
        }
    })
}

#[test]
fn every_trainer_keeps_its_bits_and_counters() {
    let digests = [
        ("cd host", cd_host()),
        (
            "cd software packed",
            cd_with(|_| software(&GsConfig::default())),
        ),
        ("cd software noisy", cd_with(|_| software(&noisy()))),
        ("cd brim", cd_with(brim)),
        ("cd annealer", cd_with(AnnealerSubstrate::for_rbm)),
        ("pcd host", pcd_host()),
        (
            "pcd software packed",
            pcd_with(|_| software(&GsConfig::default())),
        ),
        ("pcd software noisy", pcd_with(|_| software(&noisy()))),
        ("pcd brim", pcd_with(brim)),
        ("pcd annealer", pcd_with(AnnealerSubstrate::for_rbm)),
        ("gs noisy", gs(GibbsSampler::new)),
        (
            "gs brim",
            gs(|rbm, config, _| {
                let sub = brim(&rbm);
                GibbsSampler::with_substrate(rbm, config, sub)
            }),
        ),
        // The service's trainer (`TrainRequest::new`): CD-1 with no
        // momentum or weight decay, in minibatches of 16 (one full and
        // a partial of 7), on the packed software substrate.
        (
            "cd service",
            cd_on(CdTrainer::new(1, 0.05), 16, |_| {
                software(&GsConfig::default())
            }),
        ),
    ];
    let expected: [u64; 13] = [
        0x7454_4c0f_254f_cc00,
        0x03d2_a908_de7a_653e,
        0x30e8_a876_bb53_3c5c,
        0x0cc0_e1b6_0d2c_dc83,
        0xffae_225f_9083_a970,
        0x8698_d02a_7502_b1a3,
        0xf650_65cc_2534_5305,
        0xf6f3_4f61_2ae0_3907,
        0x7ef7_ff61_b082_b81a,
        0x02c4_06fa_bb38_451f,
        0x5049_6c1b_d5ea_61f3,
        0x680b_0bba_9041_67b0,
        0x426d_f78d_739a_8287,
    ];
    let actual: Vec<u64> = digests.iter().map(|&(_, x)| x).collect();
    for ((name, got), want) in digests.iter().zip(expected) {
        println!("{name:>20}: {got:#018x} (expected {want:#018x})");
    }
    assert_eq!(actual, expected);
}
