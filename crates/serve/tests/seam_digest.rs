//! Absolute bits and counters of every `Substrate` sampling entry point.
//!
//! The other suites pin *relations*: packed equals dense, coalesced
//! equals solo, chaos-retried equals fault-free. This one pins the
//! bits themselves. For each backend configuration it drives
//! `quantize_batch`, `sample_{hidden,visible}_batch` (one RNG) and
//! `sample_{hidden,visible}_batch_rows` (one RNG per row) on binary and
//! gray clamps, and folds FNV-1a over every output bit and every
//! `HardwareCounters` field after every call. A seeded `ChaosSubstrate`
//! at 30% faults adds the fallible serving path: programming, readback
//! verification and `batch::try_sample_rows`, with the outcome kind of
//! each round in the digest.
//!
//! Any change to a sampled bit, to the order in which a backend draws
//! from its RNG streams, or to what a call counts moves a digest. The
//! constants hold on the SIMD and on the scalar tier
//! (`EMBER_FORCE_SCALAR=1`): `simd_kernel_calls` is the one counter
//! that depends on the tier, so it is checked against its tier identity
//! instead of hashed.

use ember_analog::NoiseModel;
use ember_brim::BrimConfig;
use ember_core::{verify_programming, AnnealerSubstrate, GsConfig, SubstrateSpec};
use ember_rbm::Rbm;
use ember_serve::batch::{self, ChainRequest};
use ember_substrate::{ChaosConfig, ChaosSubstrate, HardwareCounters, Substrate, SubstrateFault};
use ndarray::Array2;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Visible width: spans two packed words with a ragged tail.
const M: usize = 70;
/// Hidden width.
const N: usize = 9;
/// Clamped rows per call.
const ROWS: usize = 5;

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

    fn matrix(&mut self, a: &Array2<f64>) {
        self.word(a.nrows() as u64);
        self.word(a.ncols() as u64);
        for x in a.iter() {
            self.word(x.to_bits());
        }
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
    Rbm::random(M, N, 0.6, &mut StdRng::seed_from_u64(0x5EA4))
}

fn program(sub: &mut dyn Substrate, rbm: &Rbm) {
    sub.program(
        &rbm.weights().view(),
        &rbm.visible_bias().view(),
        &rbm.hidden_bias().view(),
    );
}

fn binary(rows: usize, cols: usize, rng: &mut StdRng) -> Array2<f64> {
    Array2::from_shape_fn((rows, cols), |_| f64::from(rng.random_bool(0.5)))
}

fn gray(rows: usize, cols: usize, rng: &mut StdRng) -> Array2<f64> {
    Array2::from_shape_fn((rows, cols), |_| rng.random_range(0.0..1.0))
}

/// Runs `f` with one fresh, seeded RNG stream per row.
fn with_streams<T>(base: u64, f: impl FnOnce(&mut [&mut dyn RngCore]) -> T) -> T {
    let mut rngs: Vec<StdRng> = (0..ROWS as u64)
        .map(|i| StdRng::seed_from_u64(base + i))
        .collect();
    let mut lanes: Vec<&mut dyn RngCore> = rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
    f(&mut lanes)
}

/// Drives every infallible entry point of a programmed substrate and
/// returns the digest of all outputs and counters.
fn seam_digest(sub: &mut dyn Substrate) -> u64 {
    let mut d = Digest::new();
    let mut data = StdRng::seed_from_u64(0xDA7A);
    let v_bin = binary(ROWS, M, &mut data);
    let v_gray = sub.quantize_batch(&gray(ROWS, M, &mut data));
    let h_gray = sub.quantize_batch(&gray(ROWS, N, &mut data));
    d.matrix(&v_gray);
    d.matrix(&h_gray);
    d.counters(sub.counters());

    // One RNG for the whole batch: the trainers' half-steps.
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let h = sub.sample_hidden_batch(&v_bin, &mut rng);
    d.matrix(&h);
    d.counters(sub.counters());
    let v = sub.sample_visible_batch(&h, &mut rng);
    d.matrix(&v);
    d.counters(sub.counters());
    let h = sub.sample_hidden_batch(&v_gray, &mut rng);
    d.matrix(&h);
    d.counters(sub.counters());
    let v = sub.sample_visible_batch(&h_gray, &mut rng);
    d.matrix(&v);
    d.counters(sub.counters());

    // One RNG per row: the serving half-steps.
    let h = with_streams(100, |rngs| sub.sample_hidden_batch_rows(&v_bin, rngs));
    d.matrix(&h);
    d.counters(sub.counters());
    let v = with_streams(200, |rngs| sub.sample_visible_batch_rows(&h, rngs));
    d.matrix(&v);
    d.counters(sub.counters());
    let h = with_streams(300, |rngs| sub.sample_hidden_batch_rows(&v_gray, rngs));
    d.matrix(&h);
    d.counters(sub.counters());
    let v = with_streams(400, |rngs| sub.sample_visible_batch_rows(&h_gray, rngs));
    d.matrix(&v);
    d.counters(sub.counters());
    d.0
}

fn fabricated(spec: SubstrateSpec) -> u64 {
    let rbm = model();
    let mut sub = spec.fabricate(M, N, &mut StdRng::seed_from_u64(0xFAB));
    program(&mut *sub, &rbm);
    seam_digest(&mut *sub)
}

fn noisy() -> GsConfig {
    GsConfig::default().with_noise(NoiseModel::new(0.05, 0.1).unwrap())
}

fn annealer() -> u64 {
    let rbm = model();
    let mut sub = AnnealerSubstrate::for_rbm(&rbm);
    program(&mut sub, &rbm);
    seam_digest(&mut sub)
}

/// 40 rounds of the served path under a 30% fault schedule: fallible
/// programming, readback verification, then the fallible chains.
fn chaos_digest() -> u64 {
    let rbm = model();
    let (w, bv, bh) = (rbm.weights(), rbm.visible_bias(), rbm.hidden_bias());
    let inner = SubstrateSpec::software(noisy()).fabricate(M, N, &mut StdRng::seed_from_u64(0xFAB));
    let mut sub = ChaosSubstrate::new(inner, ChaosConfig::new(0xC4A05).with_fault_rate(0.3));
    let mut data = StdRng::seed_from_u64(0xDA7A);
    let mut d = Digest::new();
    for round in 0..40u64 {
        let rows = vec![
            ChainRequest {
                init: None,
                seed: 1000 + round,
            },
            ChainRequest {
                init: Some(binary(1, M, &mut data).row(0).to_owned()),
                seed: 2000 + round,
            },
            ChainRequest {
                init: Some(gray(1, M, &mut data).row(0).to_owned()),
                seed: 3000 + round,
            },
        ];
        let steps = 1 + (round % 3) as usize;
        let outcome = sub
            .try_program(&w.view(), &bv.view(), &bh.view())
            .and_then(|()| verify_programming(&sub, &w.view(), &bv.view(), &bh.view()))
            .and_then(|()| batch::try_sample_rows(&mut sub, &rows, steps));
        match outcome {
            Ok(samples) => {
                d.word(0);
                d.matrix(&samples);
            }
            Err(SubstrateFault::Programming(_)) => d.word(1),
            Err(SubstrateFault::Readback { .. }) => d.word(2),
            Err(SubstrateFault::Read(_)) => d.word(3),
            Err(SubstrateFault::CorruptSamples(_)) => d.word(4),
            Err(other) => panic!("unexpected fault {other:?}"),
        }
        d.counters(sub.counters());
    }
    d.0
}

#[test]
fn every_entry_point_keeps_its_bits_and_counters() {
    let digests = [
        (
            "software",
            fabricated(SubstrateSpec::software(GsConfig::default())),
        ),
        (
            "software noisy",
            fabricated(SubstrateSpec::software(noisy())),
        ),
        (
            "brim",
            fabricated(SubstrateSpec::brim(BrimConfig::default())),
        ),
        ("annealer", annealer()),
        ("chaos 30%", chaos_digest()),
    ];
    let expected: [u64; 5] = [
        0x1562_638a_d2ae_1149,
        0x1ed3_04a3_437d_bbc0,
        0x975b_b6a0_f3f7_1180,
        0xab6d_400b_e9d0_1ca3,
        0x1753_06d7_3c40_8eb6,
    ];
    let actual: Vec<u64> = digests.iter().map(|&(_, x)| x).collect();
    for ((name, got), want) in digests.iter().zip(expected) {
        println!("{name:>22}: {got:#018x} (expected {want:#018x})");
    }
    assert_eq!(actual, expected);
}
