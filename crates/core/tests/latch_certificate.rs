//! The certified latch (`AnalogSampler::latch`) decides every comparator
//! as the exact sigmoid and comparator do.
//!
//! * Crafted reference words put the reference within a few steps of the
//!   comparator's threshold `transfer(x) + offset`, on both sides, for
//!   fields across the curve of an ideal unit and of a steep, saturated
//!   unit with a large comparator offset. The certificate must leave
//!   every one of them to the exact path, and every latched bit must be
//!   the exact comparator's.
//! * A proptest runs the latch against a copy of the loop it replaced
//!   (the exact `transfer` and one comparator draw per element) over
//!   random units, special fields, both RNG disciplines and a noisy
//!   front end: the same bits, and every stream left in the same state.
//!
//! Both hold on every SIMD tier; CI runs this file optimized normally
//! and with `EMBER_FORCE_SCALAR=1`.

use ember_analog::{Comparator, NoiseModel, SigmoidUnit, ThermalRng};
use ember_core::AnalogSampler;
use ndarray::simd::{latch_certified, LatchBound};
use ndarray::{Array1, Array2};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Hands out a fixed list of words, in order, as the stream.
struct Words<'a>(std::slice::Iter<'a, u64>);

impl<'a> Words<'a> {
    fn new(words: &'a [u64]) -> Self {
        Words(words.iter())
    }
}

impl RngCore for Words<'_> {
    fn next_u32(&mut self) -> u32 {
        unreachable!("a uniform reference draws 64-bit words")
    }
    fn next_u64(&mut self) -> u64 {
        *self.0.next().expect("a word per reference")
    }
    fn fill_bytes(&mut self, _: &mut [u8]) {
        unreachable!("a uniform reference draws 64-bit words")
    }
}

/// The word whose reference is `m · 2⁻⁵³` (at the default full swing).
fn word(m: u64) -> u64 {
    m << 11
}

/// The exact comparator's decision for `field` against `word`.
fn exact(sigmoid: SigmoidUnit, comparator: Comparator, field: f64, word: u64) -> f64 {
    let p = sigmoid.transfer(field);
    f64::from(comparator.sample(p, &ThermalRng::default(), &mut Words::new(&[word])))
}

/// The field at which `sigmoid.transfer` reads `p` (`0 < p < 1`).
fn field_at(sigmoid: SigmoidUnit, saturation: f64, p: f64) -> f64 {
    let ideal = saturation + p * (1.0 - 2.0 * saturation);
    sigmoid.threshold() - (1.0 / ideal - 1.0).ln() / sigmoid.gain()
}

#[test]
fn references_at_the_threshold_take_the_exact_path() {
    let ln2 = std::f64::consts::LN_2;
    // (gain, threshold, saturation, offset)
    let fronts = [
        (1.0, 0.0, 0.0, 0.0),
        (8.0, 0.25, 0.49, 0.5),
        (8.0, 0.25, 0.49, -0.5),
        (8.0, -1.0, 0.0, 0.5),
        (8.0, -1.0, 0.0, -0.5),
    ];
    let mut crafted = 0;
    for (gain, threshold, saturation, offset) in fronts {
        let sigmoid = SigmoidUnit::new(gain, threshold, saturation).unwrap();
        let comparator = Comparator::with_offset(offset).unwrap();
        let sampler = AnalogSampler::new(sigmoid, comparator, NoiseModel::noiseless());
        let bound = LatchBound::new(gain, threshold, saturation, offset, 0.5).unwrap();
        // About ten fields across the curve, plus the fields whose
        // range-reduced exponent sits at ±ln2/2 (k = 0, 1, 3), where the
        // polynomial's truncation error peaks.
        let mut fields: Vec<f64> = [
            0.003, 0.04, 0.2, 0.35, 0.45, 0.5, 0.55, 0.65, 0.8, 0.96, 0.997,
        ]
        .iter()
        .map(|&p| field_at(sigmoid, saturation, p))
        .collect();
        for k in [0.0, 1.0, 3.0] {
            for edge in [0.499, -0.499] {
                fields.push(threshold + (k + edge) * ln2 / gain);
                fields.push(threshold - (k + edge) * ln2 / gain);
            }
        }
        let mut xs = Vec::new();
        let mut ws = Vec::new();
        for &x in &fields {
            let threshold_level = sigmoid.transfer(x) + offset;
            if !(0.0..1.0).contains(&threshold_level) {
                continue;
            }
            let m = (threshold_level * (1u64 << 53) as f64) as i64;
            for step in -2..=3 {
                let m = (m + step).clamp(0, (1 << 53) - 1) as u64;
                xs.push(x);
                ws.push(word(m));
            }
        }
        assert!(xs.len() >= 60, "too few crafted elements: {}", xs.len());
        crafted += xs.len();
        // The certificate decides none of them: each takes the exact path.
        for (chunk, words) in xs.chunks(64).zip(ws.chunks(64)) {
            let mut row = chunk.to_vec();
            let undecided = latch_certified(&mut row, words, &bound);
            let all = if chunk.len() == 64 {
                !0
            } else {
                (1u64 << chunk.len()) - 1
            };
            assert_eq!(
                undecided, all,
                "unit ({gain}, {threshold}, {saturation}), offset {offset}"
            );
            assert_eq!(row, chunk, "an undecided field moved");
        }
        // And the latch's bits are the exact comparator's.
        let mut latched = Array2::from_shape_vec((1, xs.len()), xs.clone()).unwrap();
        let bias = Array1::zeros(xs.len());
        let mut stream = Words::new(&ws);
        sampler.latch(&mut latched, &bias.view(), None, &mut [&mut stream]);
        for (i, (&x, &w)) in xs.iter().zip(&ws).enumerate() {
            assert_eq!(
                latched[[0, i]],
                exact(sigmoid, comparator, x, w),
                "unit ({gain}, {threshold}, {saturation}), offset {offset}, field {x}, word {w:#x}"
            );
        }
        assert!(stream.0.next().is_none(), "one word per element");
    }
    assert!(crafted > 400);
}

/// The latch as it was before the certificate: the exact `transfer` and
/// one comparator draw per element.
fn latch_element_by_element(
    front: (SigmoidUnit, Comparator, NoiseModel),
    fields: &mut Array2<f64>,
    bias: &Array1<f64>,
    var_coupler: Option<&Array2<f64>>,
    rngs: &mut [&mut dyn RngCore],
) {
    let (sigmoid, comparator, noise) = front;
    let thermal = ThermalRng::default();
    let shared = rngs.len() == 1;
    let stream = |i: usize| if shared { 0 } else { i };
    if let Some(var) = var_coupler {
        for (i, (mut row, var)) in fields
            .axis_iter_mut(ndarray::Axis(0))
            .zip(var.rows())
            .enumerate()
        {
            row += &bias.view();
            let rng = &mut *rngs[stream(i)];
            for (f, &v) in row.iter_mut().zip(var.iter()) {
                let sigma = (v + 1.0).sqrt();
                *f = noise.perturb(*f, sigma, rng);
            }
        }
    }
    for (i, mut row) in fields.axis_iter_mut(ndarray::Axis(0)).enumerate() {
        if var_coupler.is_none() {
            row += &bias.view();
        }
        let rng = &mut *rngs[stream(i)];
        for f in row.iter_mut() {
            let p = sigmoid.transfer(*f);
            *f = if comparator.sample(p, &thermal, rng) {
                1.0
            } else {
                0.0
            };
        }
    }
}

/// Fields around the threshold, with ±0, ±inf, NaN and `|z| > 700`
/// mixed in.
fn fields(rows: usize, cols: usize, unit: (f64, f64), seed: u64) -> Array2<f64> {
    let (gain, threshold) = unit;
    let mut rng = StdRng::seed_from_u64(seed);
    let special = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        threshold + 701.0 / gain,
        threshold - 750.0 / gain,
        f64::MAX,
    ];
    Array2::from_shape_fn((rows, cols), |_| {
        if rng.random_bool(0.08) {
            special[rng.random_range(0..special.len())]
        } else {
            threshold + rng.random_range(-12.0..12.0) / gain
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_latch_decides_as_the_exact_loop(
        unit in (0.05f64..12.0, -2.0f64..2.0, 0.0f64..=0.49),
        offset in -0.5f64..=0.5,
        shape in (1usize..5, 1usize..150),
        noise_rms in 0.0f64..0.3,
        switches in (any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
    ) {
        let (gain, threshold, saturation) = unit;
        let (rows, cols) = shape;
        let (noisy, shared) = switches;
        let sigmoid = SigmoidUnit::new(gain, threshold, saturation).unwrap();
        let comparator = Comparator::with_offset(offset).unwrap();
        let noise = NoiseModel::new(0.0, if noisy { noise_rms } else { 0.0 }).unwrap();
        let sampler = AnalogSampler::new(sigmoid, comparator, noise);

        let start = fields(rows, cols, (gain, threshold), seed);
        let mut gen = StdRng::seed_from_u64(seed ^ 0x5eed);
        let bias = Array1::from_shape_fn(cols, |_| gen.random_range(-0.5..0.5));
        let var = noisy.then(|| Array2::from_shape_fn((rows, cols), |_| gen.random_range(0.0..4.0)));
        let streams: Vec<StdRng> = (0..if shared { 1 } else { rows })
            .map(|i| StdRng::seed_from_u64(seed.wrapping_add(i as u64)))
            .collect();

        let mut latched = start.clone();
        let mut ours = streams.clone();
        let mut rngs: Vec<&mut dyn RngCore> = ours.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        sampler.latch(&mut latched, &bias.view(), var.as_ref(), &mut rngs);

        let mut expected = start.clone();
        let mut theirs = streams.clone();
        let mut rngs: Vec<&mut dyn RngCore> = theirs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        latch_element_by_element(
            (sigmoid, comparator, noise),
            &mut expected,
            &bias,
            var.as_ref(),
            &mut rngs,
        );

        let bits = |a: &Array2<f64>| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&latched),
            bits(&expected),
            "unit {:?}, offset {}, shape {:?}, noisy {}, shared {}",
            unit, offset, shape, noisy, shared
        );
        prop_assert_eq!(ours, theirs, "the streams end in different states");
    }
}
