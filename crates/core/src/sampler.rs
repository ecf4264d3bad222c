use ndarray::simd::{latch_certified, LatchBound};
use ndarray::{Array1, Array2, ArrayView1};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use ember_analog::{Comparator, NoiseModel, SigmoidUnit, ThermalRng};

/// The probabilistic node path of the augmented substrate (§3.2, Fig. 12):
/// analog current summation through the coupling mesh → sigmoid unit →
/// comparator against a thermal-noise reference → latched Bernoulli sample.
///
/// Dynamic noise (§4.5) is injected at two places, matching the paper's
/// "dynamic noises at both nodes and coupling units":
///
/// * **coupler noise** — each coupler current `Wᵢⱼ·uᵢ` carries independent
///   relative Gaussian noise; the sum over the fan-in therefore has
///   standard deviation `RMS·√(Σᵢ (Wᵢⱼ uᵢ)²)`, which is applied in closed
///   form (no per-coupler sampling needed);
/// * **node noise** — a unit-scale disturbance on the summed voltage.
///
/// # Example
///
/// ```
/// use ember_core::AnalogSampler;
/// use ember_analog::NoiseModel;
/// use ndarray::{arr1, arr2};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sampler = AnalogSampler::ideal();
/// let w = arr2(&[[8.0], [8.0]]);
/// let bias = arr1(&[-4.0]);
/// let v = arr1(&[1.0, 1.0]);
/// // Field = 12 ≫ 0, so the unit fires essentially always.
/// let h = sampler.sample_layer(&w.view(), &bias.view(), &v.view(), &mut rng);
/// assert_eq!(h[0], 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalogSampler {
    sigmoid: SigmoidUnit,
    comparator: Comparator,
    thermal: ThermalRng,
    noise: NoiseModel,
}

impl AnalogSampler {
    /// An ideal front end: exact logistic, offset-free comparator,
    /// full-swing uniform reference, no noise.
    pub fn ideal() -> Self {
        AnalogSampler {
            sigmoid: SigmoidUnit::ideal(),
            comparator: Comparator::ideal(),
            thermal: ThermalRng::default(),
            noise: NoiseModel::noiseless(),
        }
    }

    /// A front end with explicit component models.
    pub fn new(sigmoid: SigmoidUnit, comparator: Comparator, noise: NoiseModel) -> Self {
        AnalogSampler {
            sigmoid,
            comparator,
            thermal: ThermalRng::default(),
            noise,
        }
    }

    /// The configured noise model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// The configured sigmoid unit.
    pub fn sigmoid(&self) -> SigmoidUnit {
        self.sigmoid
    }

    /// Computes the noisy analog fields of one output layer:
    /// `fieldⱼ = Σᵢ Wᵢⱼ uᵢ + bⱼ + noise`.
    ///
    /// `weights` is `(fan_in × out)`; `input` is the clamped side's levels.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn fields<R: Rng + ?Sized>(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        bias: &ArrayView1<'_, f64>,
        input: &ArrayView1<'_, f64>,
        rng: &mut R,
    ) -> Array1<f64> {
        assert_eq!(weights.nrows(), input.len(), "fan-in mismatch");
        assert_eq!(weights.ncols(), bias.len(), "fan-out mismatch");
        let mut field = weights.t().dot(input) + bias;
        if self.noise.noise_rms() > 0.0 {
            // Closed-form aggregate of independent relative coupler noises.
            let sq_in = input.mapv(|x| x * x);
            let sq_w = weights.mapv(|w| w * w);
            let var_coupler = sq_w.t().dot(&sq_in);
            for (j, f) in field.iter_mut().enumerate() {
                let sigma = (var_coupler[j] + 1.0).sqrt(); // +1: unit-scale node noise
                *f = self.noise.perturb(*f, sigma, rng);
            }
        }
        field
    }

    /// Sigmoid-unit probabilities for the given noisy fields.
    pub fn probabilities(&self, fields: &Array1<f64>) -> Array1<f64> {
        fields.mapv(|x| self.sigmoid.transfer(x))
    }

    /// Full node path: fields → sigmoid → comparator. Returns 0/1 samples.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sample_layer<R: Rng + ?Sized>(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        bias: &ArrayView1<'_, f64>,
        input: &ArrayView1<'_, f64>,
        rng: &mut R,
    ) -> Array1<f64> {
        let fields = self.fields(weights, bias, input, rng);
        let probs = self.probabilities(&fields);
        probs.mapv(|p| {
            if self.comparator.sample(p, &self.thermal, rng) {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Samples the *transpose* direction (output layer clamped, fan-in side
    /// sampled): used when the hidden side drives the visible side.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sample_layer_rev<R: Rng + ?Sized>(
        &self,
        weights: &ndarray::ArrayView2<'_, f64>,
        bias: &ArrayView1<'_, f64>,
        input: &ArrayView1<'_, f64>,
        rng: &mut R,
    ) -> Array1<f64> {
        assert_eq!(weights.ncols(), input.len(), "fan-in mismatch (rev)");
        assert_eq!(weights.nrows(), bias.len(), "fan-out mismatch (rev)");
        let mut field = weights.dot(input) + bias;
        if self.noise.noise_rms() > 0.0 {
            let sq_in = input.mapv(|x| x * x);
            let sq_w = weights.mapv(|w| w * w);
            let var_coupler = sq_w.dot(&sq_in);
            for (j, f) in field.iter_mut().enumerate() {
                let sigma = (var_coupler[j] + 1.0).sqrt();
                *f = self.noise.perturb(*f, sigma, rng);
            }
        }
        let probs = self.probabilities(&field);
        probs.mapv(|p| {
            if self.comparator.sample(p, &self.thermal, rng) {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Stochastic tail of the batched node path over precomputed fields,
    /// in place: bias add, closed-form coupler-noise perturbation (when
    /// `var_coupler` is given), sigmoid transfer and comparator latch.
    ///
    /// Row `i` draws from `rngs[i]`, or every row from `rngs[0]` when
    /// one stream serves the batch. Every perturbation is drawn before
    /// any latch, row by row. So one stream sees all the noise, then all
    /// the latches, in row-major order; with one stream per row, each
    /// stream sees its row's noise, then its row's latches, and row
    /// `i`'s bits depend only on (weights, bias, row `i`, `rngs[i]`):
    /// the same whether the row is sampled alone or coalesced into any
    /// batch.
    ///
    /// # The decision rule
    ///
    /// A latch fires when `transfer(x) + offset > reference`, and only
    /// that sign is needed. With a uniform thermal profile each
    /// reference is one 64-bit word, so a row's words come from one
    /// [`RngCore::fill_u64`] per 64 elements: the words, and their order,
    /// that one draw per element would take. [`latch_certified`] then
    /// decides every element whose level `q + offset`, from a polynomial
    /// `q ≈ transfer(x)`, is more than a margin `M` from the reference;
    /// the rest take the exact `transfer` and comparator, fed the same
    /// word. The margin, derived at [`LatchBound`], is
    ///
    /// `M = (η(1 + 4η)/2 + 16u)/(1 − 2s) + 4u`,
    ///
    /// with `η = 7.4·10⁻⁹` the proven relative error of the polynomial
    /// `exp` (degree-7 Taylor after `ln 2` range reduction), `u = 2⁻⁵³`
    /// and `s` the saturation: the logistic turns a relative error `η`
    /// in `exp` (the polynomial's and, as assumed, the library's) into
    /// at most `η/2` absolute, the saturation stretch multiplies that by
    /// `1/(1 − 2s)`, and the `u` terms cover every rounding on the way
    /// to the comparison. So each decided bit is the exact comparator's,
    /// and about `2M` of the elements fall back: under 10⁻⁸ of them for
    /// an unsaturated unit, `1/(1 − 2s)` times that for a saturated one.
    ///
    /// Every element takes the exact path where no certificate applies:
    /// non-finite fields and `|z| > 700`; unit, comparator or reference
    /// parameters outside the ranges their constructors validate (a
    /// deserialized config skips those checks); and every element on
    /// the scalar and NEON tiers. A Gaussian thermal profile draws a
    /// varying number of words per reference, so it draws each one from
    /// the stream as the comparator asks.
    pub fn latch(
        &self,
        fields: &mut Array2<f64>,
        bias: &ArrayView1<'_, f64>,
        var_coupler: Option<&Array2<f64>>,
        rngs: &mut [&mut dyn RngCore],
    ) {
        let shared = rngs.len() == 1;
        let stream = |i: usize| if shared { 0 } else { i };
        if let Some(var) = var_coupler {
            for (i, (mut row, var)) in fields
                .axis_iter_mut(ndarray::Axis(0))
                .zip(var.rows())
                .enumerate()
            {
                row += bias;
                let rng = &mut *rngs[stream(i)];
                for (f, &v) in row.iter_mut().zip(var.iter()) {
                    let sigma = (v + 1.0).sqrt(); // +1: unit-scale node noise
                    *f = self.noise.perturb(*f, sigma, rng);
                }
            }
        }
        let certificate = self.certificate();
        let mut words = [0u64; 64];
        for (i, mut row) in fields.axis_iter_mut(ndarray::Axis(0)).enumerate() {
            if var_coupler.is_none() {
                row += bias;
            }
            let rng = &mut *rngs[stream(i)];
            let Some(bound) = &certificate else {
                for f in row.iter_mut() {
                    *f = self.exact_latch(*f, rng);
                }
                continue;
            };
            let row = row.into_slice().expect("a row view is contiguous");
            for chunk in row.chunks_mut(words.len()) {
                let words = &mut words[..chunk.len()];
                rng.fill_u64(words);
                let mut undecided = latch_certified(chunk, words, bound);
                while undecided != 0 {
                    let k = undecided.trailing_zeros() as usize;
                    undecided &= undecided - 1;
                    chunk[k] = self.exact_latch(chunk[k], &mut Prefetched(Some(words[k])));
                }
            }
        }
    }

    /// The certificate of this front end's latches, or `None` where a
    /// reference is not exactly one word or a component lies outside
    /// the range the proof covers.
    fn certificate(&self) -> Option<LatchBound> {
        if self.thermal.gaussian_fraction() != 0.0 {
            return None;
        }
        LatchBound::new(
            self.sigmoid.gain(),
            self.sigmoid.threshold(),
            self.sigmoid.saturation(),
            self.comparator.offset(),
            self.thermal.swing(),
        )
    }

    /// The exact node: `transfer`, then the comparator against one
    /// reference drawn from `rng`.
    fn exact_latch<R: RngCore + ?Sized>(&self, field: f64, rng: &mut R) -> f64 {
        let p = self.sigmoid.transfer(field);
        if self.comparator.sample(p, &self.thermal, rng) {
            1.0
        } else {
            0.0
        }
    }
}

/// A reference word already drawn from the stream, handed to the
/// comparator as the one `next_u64` a uniform reference takes.
struct Prefetched(Option<u64>);

impl RngCore for Prefetched {
    fn next_u32(&mut self) -> u32 {
        unreachable!("a uniform reference draws one 64-bit word")
    }
    fn next_u64(&mut self) -> u64 {
        self.0.take().expect("a uniform reference draws one word")
    }
    fn fill_bytes(&mut self, _: &mut [u8]) {
        unreachable!("a uniform reference draws one 64-bit word")
    }
}

impl Default for AnalogSampler {
    fn default() -> Self {
        AnalogSampler::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ember_rbm::math::sigmoid;
    use ndarray::{arr1, arr2};
    use rand::SeedableRng;

    #[test]
    fn ideal_sampler_matches_software_probabilities() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sampler = AnalogSampler::ideal();
        let w = arr2(&[[0.8], [-0.3]]);
        let bias = arr1(&[0.2]);
        let v = arr1(&[1.0, 1.0]);
        let expected = sigmoid(0.8 - 0.3 + 0.2);
        let trials = 20000;
        let ones: f64 = (0..trials)
            .map(|_| sampler.sample_layer(&w.view(), &bias.view(), &v.view(), &mut rng)[0])
            .sum();
        let freq = ones / trials as f64;
        assert!((freq - expected).abs() < 0.01, "freq {freq} vs {expected}");
    }

    #[test]
    fn reverse_direction_matches_forward_semantics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sampler = AnalogSampler::ideal();
        // (2 visible × 1 hidden); drive hidden=1, sample visible.
        let w = arr2(&[[1.5], [-2.0]]);
        let bv = arr1(&[0.1, 0.4]);
        let h = arr1(&[1.0]);
        let trials = 20000;
        let mut sums = [0.0; 2];
        for _ in 0..trials {
            let v = sampler.sample_layer_rev(&w.view(), &bv.view(), &h.view(), &mut rng);
            sums[0] += v[0];
            sums[1] += v[1];
        }
        assert!((sums[0] / trials as f64 - sigmoid(1.5 + 0.1)).abs() < 0.01);
        assert!((sums[1] / trials as f64 - sigmoid(-2.0 + 0.4)).abs() < 0.01);
    }

    #[test]
    fn noise_spreads_fields() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let noisy = AnalogSampler::new(
            SigmoidUnit::ideal(),
            Comparator::ideal(),
            NoiseModel::new(0.0, 0.2).unwrap(),
        );
        let w = arr2(&[[1.0], [1.0]]);
        let bias = arr1(&[0.0]);
        let v = arr1(&[1.0, 1.0]);
        let fields: Vec<f64> = (0..500)
            .map(|_| noisy.fields(&w.view(), &bias.view(), &v.view(), &mut rng)[0])
            .collect();
        let mean = fields.iter().sum::<f64>() / fields.len() as f64;
        let var = fields.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / fields.len() as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        // σ = 0.2·sqrt(1²+1²+1) = 0.2·√3 ≈ 0.346
        assert!((var.sqrt() - 0.346).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn noiseless_fields_are_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sampler = AnalogSampler::ideal();
        let w = arr2(&[[0.5, -1.0], [2.0, 0.25]]);
        let bias = arr1(&[0.1, -0.1]);
        let v = arr1(&[1.0, 0.0]);
        let f = sampler.fields(&w.view(), &bias.view(), &v.view(), &mut rng);
        assert!((f[0] - 0.6).abs() < 1e-12);
        assert!((f[1] - (-1.1)).abs() < 1e-12);
    }

    #[test]
    fn samples_are_binary() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sampler = AnalogSampler::ideal();
        let w = arr2(&[[0.1, 0.2, -0.1], [0.0, 0.5, 0.3]]);
        let bias = arr1(&[0.0, 0.0, 0.0]);
        let v = arr1(&[1.0, 1.0]);
        for _ in 0..50 {
            let h = sampler.sample_layer(&w.view(), &bias.view(), &v.view(), &mut rng);
            assert!(h.iter().all(|&x| x == 0.0 || x == 1.0));
        }
    }
}
