use std::sync::Arc;

use ndarray::{Array2, ArrayView1, ArrayView2};
use rand::{Rng, RngCore};

use ember_analog::{Dtc, VariationMap};
use ember_substrate::{HardwareCounters, Side, Substrate};

use super::couplings::Couplings;
use crate::{AnalogSampler, GsConfig};

/// The software-modelled analog substrate of §3.2 (Fig. 12): the
/// coupling mesh performs the vector-matrix product, a modified-inverter
/// sigmoid unit shapes the field, and a comparator fed by thermal noise
/// latches the Bernoulli sample.
///
/// The vector-matrix product of an exactly `{0, 1}` clamp runs on the
/// bit-packed kernel ([`crate::kernels`]): the batch packs into a
/// [`BitMatrix`](crate::BitMatrix) and the product reduces to summing
/// selected weight rows. Gray clamps (multi-bit DTC levels) run the
/// dense GEMM, which accumulates in the same order, so the samples never
/// depend on the kernel. [`Substrate::sample_batch_rows`] drives each
/// row's stochastic tail from its own RNG stream, so a row's bits are
/// invariant to request coalescing.
/// [`HardwareCounters::packed_kernel_calls`] /
/// [`HardwareCounters::dense_kernel_calls`] record which kernel served
/// each sampling call.
///
/// Static coupler variation (a noise model with `variation_rms > 0`) is
/// sampled once at construction ("fabrication") and applied at every
/// programming event: the physical array realizes `W ⊙ variation`.
/// Clones share the frozen map and, until one is programmed with other
/// weights, the realized coupling image.
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
    variation: Option<Arc<VariationMap>>,
    couplings: Couplings,
    settle_phase_points: u64,
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
        let noise = config.noise();
        let variation = (noise.variation_rms() > 0.0)
            .then(|| Arc::new(noise.sample_variation((visible, hidden), rng)));
        SoftwareGibbs {
            sampler: AnalogSampler::new(config.sigmoid(), config.comparator(), noise),
            dtc: Dtc::new(config.dtc_bits(), 0.0).expect("validated bits"),
            variation,
            couplings: Couplings::zeros(visible, hidden, noise.noise_rms() > 0.0),
            settle_phase_points: config.settle_phase_points(),
            counters: HardwareCounters::new(),
        }
    }

    /// The frozen fabrication-time coupler variation map, if the noise
    /// model has static variation.
    pub fn variation(&self) -> Option<&VariationMap> {
        self.variation.as_deref()
    }

    /// The physically programmed weights (`W ⊙ variation`).
    pub fn programmed_weights(&self) -> &Array2<f64> {
        self.couplings.weights()
    }

    /// One half-step: the field product, then the latch, drawing from
    /// one stream per row or from `rngs[0]` for the whole batch. Every
    /// clamped row settles for `settle_phase_points`, and every latched
    /// sample is read out.
    fn half_step(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        let (mut fields, var) = self.couplings.fields(side, clamp, &mut self.counters);
        let bias = self.couplings.bias(side).view();
        self.sampler.latch(&mut fields, &bias, var.as_ref(), rngs);
        self.counters.phase_points += fields.nrows() as u64 * self.settle_phase_points;
        self.counters.host_words_transferred += fields.len() as u64;
        fields
    }
}

impl Substrate for SoftwareGibbs {
    fn name(&self) -> &'static str {
        "software-gibbs"
    }

    fn visible_len(&self) -> usize {
        self.couplings.weights().nrows()
    }

    fn hidden_len(&self) -> usize {
        self.couplings.weights().ncols()
    }

    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        // The physical words are paid on every call (the serving layer
        // skips this call, counting the words itself, when an infallible
        // replica already holds the group's model snapshot).
        let factors = self.variation.as_deref().map(VariationMap::factors);
        self.couplings
            .program(weights, visible_bias, hidden_bias, factors);
        self.counters.host_words_transferred += self.programming_cost();
    }

    fn quantize_batch(&self, levels: &Array2<f64>) -> Array2<f64> {
        // Bitwise +0.0 and 1.0 are fixed points of the DTC
        // (`round(0·s)/s = 0`, `round(1·s)/s = 1`, and the INL bow is
        // zero at both ends), so exactly binary data passes through.
        if levels.iter().all(|&x| x.to_bits() == 0 || x == 1.0) {
            return levels.clone();
        }
        levels.mapv(|x| self.dtc.convert(x))
    }

    fn sample_batch(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rng: &mut dyn RngCore,
    ) -> Array2<f64> {
        self.half_step(side, clamp, &mut [rng])
    }

    fn sample_batch_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        assert_eq!(clamp.nrows(), rngs.len(), "one RNG stream per row");
        self.half_step(side, clamp, rngs)
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
    use ndarray::Array1;
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
    fn batch_rows_output_is_invariant_to_co_batched_rows() {
        use ember_analog::NoiseModel;
        // Row 1 of a 3-row batch must equal the same row sampled alone
        // under the same stream — the coalescing-invisibility contract —
        // on the dense GEMM (gray clamps), with dynamic noise enabled,
        // both sides.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let config = GsConfig::default().with_noise(NoiseModel::new(0.05, 0.1).unwrap());
        let mut sub = SoftwareGibbs::new(6, 4, &config, &mut rng);
        let w = Array2::from_shape_fn((6, 4), |_| rng.random_range(-0.5..0.5));
        let bv = Array1::from_shape_fn(6, |_| rng.random_range(-0.3..0.3));
        let bh = ndarray::arr1(&[0.1, -0.2, 0.0, 0.3]);
        sub.program(&w.view(), &bv.view(), &bh.view());
        for (side, fan_in) in [(Side::Hidden, 6), (Side::Visible, 4)] {
            let inputs = Array2::from_shape_fn((3, fan_in), |_| rng.random_range(0.0..1.0));
            let mut sample = |rows: &Array2<f64>, seeds: &[u64]| {
                let mut rngs: Vec<rand::rngs::StdRng> = seeds
                    .iter()
                    .map(|&s| rand::rngs::StdRng::seed_from_u64(s))
                    .collect();
                let mut dyn_rngs: Vec<&mut dyn RngCore> =
                    rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
                sub.sample_batch_rows(side, rows, &mut dyn_rngs)
            };
            let full = sample(&inputs, &[7, 8, 9]);
            let solo = sample(&inputs.slice(ndarray::s![1..2, ..]).to_owned(), &[8]);
            assert_eq!(full.row(1), solo.row(0), "{side:?}");
        }
        assert_eq!(sub.counters().dense_kernel_calls, 4);
        assert_eq!(sub.counters().packed_kernel_calls, 0);
    }

    #[test]
    fn quantize_is_identity_on_binary_levels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sub = SoftwareGibbs::new(2, 2, &GsConfig::default(), &mut rng);
        let x = ndarray::arr2(&[[0.0, 1.0], [1.0, 0.0]]);
        assert_eq!(sub.quantize_batch(&x), x);
    }

    fn bits(a: &Array2<f64>) -> Vec<u64> {
        a.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn binary_levels_quantize_as_the_dtc_converts_them() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let binary = Array2::from_shape_fn((5, 6), |_| f64::from(rng.random_bool(0.4)));
        let mut signed_zero = binary.clone();
        signed_zero[[1, 2]] = -0.0;
        for dtc_bits in 1..=8 {
            let config = GsConfig::default().with_dtc_bits(dtc_bits);
            let sub = SoftwareGibbs::new(6, 3, &config, &mut rng);
            let dtc = Dtc::new(dtc_bits, 0.0).unwrap();
            for levels in [&binary, &signed_zero] {
                let want = levels.mapv(|x| dtc.convert(x));
                assert_eq!(
                    bits(&sub.quantize_batch(levels)),
                    bits(&want),
                    "{dtc_bits} bits"
                );
            }
        }
    }
}
