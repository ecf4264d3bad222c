use ndarray::{Array1, Array2, ArrayView1, ArrayView2};
use rand::{Rng, RngCore};

use ember_analog::{Dtc, VariationMap};
use ember_substrate::{HardwareCounters, Substrate};

use crate::kernels::{binary_gemm, BitMatrix};
use crate::{AnalogSampler, GsConfig, GsKernel};

/// The software-modelled analog substrate of §3.2 (Fig. 12): the
/// coupling mesh performs the vector-matrix product, a modified-inverter
/// sigmoid unit shapes the field, and a comparator fed by thermal noise
/// latches the Bernoulli sample.
///
/// Batch sampling runs the analog vector-matrix product through the
/// bit-packed binary-state kernel by default ([`crate::kernels`]):
/// exact-`{0, 1}` batches pack into a [`BitMatrix`] and the field GEMM
/// reduces to summing selected weight rows — bit-identical to the dense
/// GEMM (same index-order accumulation; zero terms are floating-point
/// no-ops), so the samples never depend on the kernel choice.
/// Non-binary batches (multi-bit DTC gray data) and the
/// [`GsKernel::Dense`] reference run the dense
/// [`AnalogSampler::sample_layer_batch`] path. The serving kernels
/// (`sample_hidden_batch_rows` / `sample_visible_batch_rows`) share the
/// same kernel selection but drive each row's stochastic tail from its
/// own RNG stream, so a row's bits are invariant to request coalescing.
/// [`HardwareCounters::packed_kernel_calls`] /
/// [`HardwareCounters::dense_kernel_calls`] record which kernel served
/// each sampling call.
///
/// Static coupler variation is sampled once at construction
/// ("fabrication") and applied at every programming event: the physical
/// array realizes `W ⊙ variation`.
///
/// # Example
///
/// ```
/// use ember_core::substrate::{SoftwareGibbs, Substrate};
/// use ember_core::GsConfig;
/// use ndarray::{Array1, Array2};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut sub = SoftwareGibbs::new(4, 2, &GsConfig::default(), &mut rng);
/// let w = Array2::from_elem((4, 2), 0.5);
/// sub.program(&w.view(), &Array1::zeros(4).view(), &Array1::zeros(2).view());
/// let v = Array2::from_elem((3, 4), 1.0);
/// let h = sub.sample_hidden_batch(&v, &mut rng);
/// assert_eq!(h.dim(), (3, 2));
/// ```
#[derive(Debug, Clone)]
pub struct SoftwareGibbs {
    sampler: AnalogSampler,
    dtc: Dtc,
    variation: VariationMap,
    weights: Array2<f64>,
    /// Materialized transpose of the programmed weights: the packed
    /// reverse kernel accumulates contiguous `Wᵀ` rows (refreshed at
    /// every programming event).
    weights_t: Array2<f64>,
    /// Element-wise squares of the programmed weights (and transpose),
    /// cached only under a noisy front end: the closed-form coupler
    /// noise needs `Σᵢ (Wᵢⱼ uᵢ)²`, which for binary `u` is one more
    /// packed product.
    sq_weights: Option<Array2<f64>>,
    sq_weights_t: Option<Array2<f64>>,
    visible_bias: Array1<f64>,
    hidden_bias: Array1<f64>,
    settle_phase_points: u64,
    kernel: GsKernel,
    counters: HardwareCounters,
}

impl SoftwareGibbs {
    /// Fabricates a substrate of the given size: static coupler
    /// variation is sampled here, once; all analog component models come
    /// from `config`. Weights/biases are zero until the first
    /// [`Substrate::program`].
    pub fn new<R: Rng + ?Sized>(
        visible: usize,
        hidden: usize,
        config: &GsConfig,
        rng: &mut R,
    ) -> Self {
        let variation = config.noise().sample_variation((visible, hidden), rng);
        let sampler = AnalogSampler::new(config.sigmoid(), config.comparator(), config.noise());
        let dtc = Dtc::new(config.dtc_bits(), 0.0).expect("validated bits");
        let noisy = config.noise().noise_rms() > 0.0;
        SoftwareGibbs {
            sampler,
            dtc,
            variation,
            weights: Array2::zeros((visible, hidden)),
            weights_t: Array2::zeros((hidden, visible)),
            sq_weights: noisy.then(|| Array2::zeros((visible, hidden))),
            sq_weights_t: noisy.then(|| Array2::zeros((hidden, visible))),
            visible_bias: Array1::zeros(visible),
            hidden_bias: Array1::zeros(hidden),
            settle_phase_points: config.settle_phase_points(),
            kernel: config.kernel(),
            counters: HardwareCounters::new(),
        }
    }

    /// The frozen fabrication-time coupler variation map.
    pub fn variation(&self) -> &VariationMap {
        &self.variation
    }

    /// The analog node-path model.
    pub fn sampler(&self) -> &AnalogSampler {
        &self.sampler
    }

    /// The physically programmed weights (`W ⊙ variation`).
    pub fn programmed_weights(&self) -> &Array2<f64> {
        &self.weights
    }

    /// The selected sampling GEMM kernel.
    pub fn kernel(&self) -> GsKernel {
        self.kernel
    }

    /// Returns a copy running on the given kernel (samples are
    /// bit-identical either way; see [`GsKernel`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: GsKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The batched analog field product (and, under a noisy front end,
    /// the closed-form coupler-noise variance) through the bit-packed
    /// kernel. `None` when the dense path must run instead: the dense
    /// kernel is selected, or the batch is not exactly binary (multi-bit
    /// DTC gray levels).
    ///
    /// For a binary batch `u`, `u ⊙ u == u` bit for bit, so the
    /// variance product reuses the same packed bits against the cached
    /// squared weights.
    fn packed_fields(
        &self,
        inputs: &Array2<f64>,
        rev: bool,
    ) -> Option<(Array2<f64>, Option<Array2<f64>>)> {
        if self.kernel != GsKernel::Packed {
            return None;
        }
        let bits = BitMatrix::from_batch(inputs)?;
        let w = if rev { &self.weights_t } else { &self.weights };
        let fields = binary_gemm(&bits, w, None);
        let var = if self.sampler.noise().noise_rms() > 0.0 {
            let sq = if rev {
                self.sq_weights_t.as_ref()
            } else {
                self.sq_weights.as_ref()
            };
            Some(binary_gemm(&bits, sq.expect("cached at program"), None))
        } else {
            None
        };
        Some((fields, var))
    }

    /// Shared kernel dispatch of the whole-batch sampling entry points:
    /// the packed product when selected and packable, the dense
    /// [`AnalogSampler`] path otherwise — counted either way. `rev`
    /// flips the direction (hidden side clamped, visible side sampled).
    fn sample_batch(
        &mut self,
        inputs: &Array2<f64>,
        rev: bool,
        rng: &mut dyn RngCore,
    ) -> Array2<f64> {
        // Kernel-tier accounting: both the packed selected-row kernel
        // and the dense GEMM run their inner loops on the runtime
        // SIMD tier, so the tier counter is orthogonal to the
        // packed/dense split (simd == packed + dense on a vector tier,
        // 0 under `EMBER_FORCE_SCALAR`).
        self.counters.simd_kernel_calls += u64::from(ndarray::simd::simd_active());
        match self.packed_fields(inputs, rev) {
            Some((mut fields, var)) => {
                self.counters.packed_kernel_calls += 1;
                let bias = if rev {
                    &self.visible_bias
                } else {
                    &self.hidden_bias
                };
                self.sampler
                    .latch_batch(&mut fields, &bias.view(), var.as_ref(), rng);
                fields
            }
            None => {
                self.counters.dense_kernel_calls += 1;
                let bias = if rev {
                    &self.visible_bias
                } else {
                    &self.hidden_bias
                };
                if rev {
                    self.sampler.sample_layer_rev_batch(
                        &self.weights.view(),
                        &bias.view(),
                        inputs,
                        rng,
                    )
                } else {
                    self.sampler
                        .sample_layer_batch(&self.weights.view(), &bias.view(), inputs, rng)
                }
            }
        }
    }

    /// Per-row-stream counterpart of [`SoftwareGibbs::sample_batch`]
    /// (row `i`'s stochastic tail draws exclusively from `rngs[i]`).
    fn sample_batch_rows(
        &mut self,
        inputs: &Array2<f64>,
        rev: bool,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.counters.simd_kernel_calls += u64::from(ndarray::simd::simd_active());
        match self.packed_fields(inputs, rev) {
            Some((mut fields, var)) => {
                self.counters.packed_kernel_calls += 1;
                let bias = if rev {
                    &self.visible_bias
                } else {
                    &self.hidden_bias
                };
                self.sampler
                    .latch_batch_rows(&mut fields, &bias.view(), var.as_ref(), rngs);
                fields
            }
            None => {
                self.counters.dense_kernel_calls += 1;
                let bias = if rev {
                    &self.visible_bias
                } else {
                    &self.hidden_bias
                };
                if rev {
                    self.sampler.sample_layer_rev_batch_rows(
                        &self.weights.view(),
                        &bias.view(),
                        inputs,
                        rngs,
                    )
                } else {
                    self.sampler.sample_layer_batch_rows(
                        &self.weights.view(),
                        &bias.view(),
                        inputs,
                        rngs,
                    )
                }
            }
        }
    }
}

impl Substrate for SoftwareGibbs {
    fn name(&self) -> &'static str {
        "software-gibbs"
    }

    fn visible_len(&self) -> usize {
        self.weights.nrows()
    }

    fn hidden_len(&self) -> usize {
        self.weights.ncols()
    }

    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        assert_eq!(
            weights.dim(),
            self.variation.factors().dim(),
            "fabricated size"
        );
        let programmed = weights.to_owned() * self.variation.factors();
        // Re-programming identical weights is the volatile-substrate
        // norm for direct callers and chaos-wrapped replicas (the
        // serving layer skips this call, counting the words itself,
        // when an infallible replica already holds the group's model
        // snapshot): the physical words are paid either way (counted
        // below), but the host-side derived caches — transpose and
        // squared weights for the packed kernel — only rebuild when the
        // realized array actually moved.
        if programmed != self.weights {
            self.weights_t = programmed.t().to_owned();
            if self.sq_weights.is_some() {
                self.sq_weights = Some(programmed.mapv(|w| w * w));
                self.sq_weights_t = Some(self.weights_t.mapv(|w| w * w));
            }
            self.weights = programmed;
        }
        self.visible_bias = visible_bias.to_owned();
        self.hidden_bias = hidden_bias.to_owned();
        self.counters.host_words_transferred += self.programming_cost();
    }

    fn quantize_batch(&self, levels: &Array2<f64>) -> Array2<f64> {
        levels.mapv(|x| self.dtc.convert(x))
    }

    fn sample_hidden_batch(&mut self, visible: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        let h = self.sample_batch(visible, false, rng);
        self.counters.phase_points += visible.nrows() as u64 * self.settle_phase_points;
        self.counters.host_words_transferred += h.len() as u64;
        h
    }

    fn sample_visible_batch(&mut self, hidden: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        let v = self.sample_batch(hidden, true, rng);
        self.counters.phase_points += hidden.nrows() as u64 * self.settle_phase_points;
        self.counters.host_words_transferred += v.len() as u64;
        v
    }

    fn sample_hidden_batch_rows(
        &mut self,
        visible: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        let h = self.sample_batch_rows(visible, false, rngs);
        self.counters.phase_points += visible.nrows() as u64 * self.settle_phase_points;
        self.counters.host_words_transferred += h.len() as u64;
        h
    }

    fn sample_visible_batch_rows(
        &mut self,
        hidden: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        let v = self.sample_batch_rows(hidden, true, rngs);
        self.counters.phase_points += hidden.nrows() as u64 * self.settle_phase_points;
        self.counters.host_words_transferred += v.len() as u64;
        v
    }

    fn counters(&self) -> &HardwareCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut HardwareCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ember_rbm::math::sigmoid;
    use rand::SeedableRng;

    #[test]
    fn ideal_batch_sampling_matches_logistic_conditionals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut sub = SoftwareGibbs::new(2, 1, &GsConfig::default(), &mut rng);
        let w = ndarray::arr2(&[[0.8], [-0.3]]);
        sub.program(
            &w.view(),
            &Array1::zeros(2).view(),
            &ndarray::arr1(&[0.2]).view(),
        );
        let v = Array2::from_elem((4000, 2), 1.0);
        let h = sub.sample_hidden_batch(&v, &mut rng);
        let freq = h.sum() / 4000.0;
        let expected = sigmoid(0.8 - 0.3 + 0.2);
        assert!((freq - expected).abs() < 0.02, "freq {freq} vs {expected}");
    }

    #[test]
    fn counters_accumulate_per_call() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let config = GsConfig::default();
        let mut sub = SoftwareGibbs::new(3, 2, &config, &mut rng);
        let w = Array2::zeros((3, 2));
        sub.program(
            &w.view(),
            &Array1::zeros(3).view(),
            &Array1::zeros(2).view(),
        );
        assert_eq!(sub.counters().host_words_transferred, 3 * 2 + 3 + 2);
        let v = Array2::zeros((5, 3));
        let _ = sub.sample_hidden_batch(&v, &mut rng);
        assert_eq!(
            sub.counters().phase_points,
            5 * config.settle_phase_points()
        );
        assert_eq!(
            sub.counters().host_words_transferred,
            (3 * 2 + 3 + 2) + 5 * 2
        );
    }

    #[test]
    fn packed_and_dense_kernels_sample_identical_bits() {
        use ember_analog::NoiseModel;
        // One substrate fabricated, cloned onto each kernel: a CD-style
        // alternating chain must produce bit-identical samples, noisy
        // front end included (the packed product shares the dense
        // GEMM's index-order accumulation).
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let config = GsConfig::default().with_noise(NoiseModel::new(0.05, 0.1).unwrap());
        let proto = SoftwareGibbs::new(9, 5, &config, &mut rng);
        let w = Array2::from_shape_fn((9, 5), |_| rng.random_range(-0.8..0.8));
        let bv = Array1::from_shape_fn(9, |_| rng.random_range(-0.3..0.3));
        let bh = Array1::from_shape_fn(5, |_| rng.random_range(-0.3..0.3));
        let v0 = Array2::from_shape_fn((7, 9), |_| f64::from(rng.random_bool(0.5)));
        let run = |kernel: GsKernel| {
            let mut sub = proto.clone().with_kernel(kernel);
            sub.program(&w.view(), &bv.view(), &bh.view());
            let mut rng = rand::rngs::StdRng::seed_from_u64(77);
            let mut v = v0.clone();
            let mut trace = Vec::new();
            for _ in 0..4 {
                let h = sub.sample_hidden_batch(&v, &mut rng);
                v = sub.sample_visible_batch(&h, &mut rng);
                trace.push((h, v.clone()));
            }
            (trace, *sub.counters())
        };
        let (packed, packed_counters) = run(GsKernel::Packed);
        let (dense, dense_counters) = run(GsKernel::Dense);
        assert_eq!(packed, dense);
        assert_eq!(packed_counters.packed_kernel_calls, 8);
        assert_eq!(packed_counters.dense_kernel_calls, 0);
        assert_eq!(dense_counters.packed_kernel_calls, 0);
        assert_eq!(dense_counters.dense_kernel_calls, 8);
        // Everything else about the accounting is kernel-independent.
        assert_eq!(packed_counters.phase_points, dense_counters.phase_points);
        assert_eq!(
            packed_counters.host_words_transferred,
            dense_counters.host_words_transferred
        );
    }

    #[test]
    fn non_binary_batch_falls_back_to_dense_kernel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut sub = SoftwareGibbs::new(3, 2, &GsConfig::default(), &mut rng);
        sub.program(
            &Array2::zeros((3, 2)).view(),
            &Array1::zeros(3).view(),
            &Array1::zeros(2).view(),
        );
        let gray = Array2::from_elem((2, 3), 0.5);
        let _ = sub.sample_hidden_batch(&gray, &mut rng);
        assert_eq!(sub.counters().dense_kernel_calls, 1);
        assert_eq!(sub.counters().packed_kernel_calls, 0);
        let binary = Array2::from_elem((2, 3), 1.0);
        let _ = sub.sample_hidden_batch(&binary, &mut rng);
        assert_eq!(sub.counters().packed_kernel_calls, 1);
    }

    #[test]
    fn quantize_is_identity_on_binary_levels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sub = SoftwareGibbs::new(2, 2, &GsConfig::default(), &mut rng);
        let x = ndarray::arr2(&[[0.0, 1.0], [1.0, 0.0]]);
        assert_eq!(sub.quantize_batch(&x), x);
    }
}
