use ndarray::{Array2, Axis};
use rand::{Rng, RngCore};

use ember_rbm::{EpochStats, Rbm};
use ember_substrate::{HardwareCounters, Substrate};

use crate::substrate::SoftwareGibbs;
use crate::GsConfig;

/// The Gibbs-sampler accelerator of §3.2: the Ising substrate performs the
/// conditional sampling of Algorithm 1; the host keeps the master weights
/// and applies the updates.
///
/// Operation per minibatch (§3.2 operation list):
/// 1. the host programs the coupling matrix and biases (host→substrate
///    transfer of `m·n + m + n` words);
/// 2. for every sample, the visible units are clamped through DTCs, the
///    hidden units settle and are read out (`h⁺`);
/// 3. the equivalent of `k`-step Gibbs sampling runs by alternately
///    clamping sides and letting the substrate produce samples;
/// 4. the host accumulates `⟨v⁺ᵀh⁺⟩ − ⟨v⁻ᵀh⁻⟩` and updates the weights.
///
/// The accelerator is generic over the sampling backend: any
/// [`Substrate`] slots in (the software analog node path, the BRIM
/// dynamical machine, a Metropolis annealer, future hardware). The
/// default backend is [`SoftwareGibbs`] — the analog node path with
/// static coupler variation frozen at construction — which reproduces
/// the pre-refactor behavior bit for bit.
///
/// # Example
///
/// ```
/// use ember_core::{GibbsSampler, GsConfig};
/// use ember_rbm::Rbm;
/// use ndarray::Array2;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let rbm = Rbm::random(6, 3, 0.01, &mut rng);
/// let mut gs = GibbsSampler::new(rbm, GsConfig::default(), &mut rng);
/// let data = Array2::from_shape_fn((20, 6), |(i, _)| (i % 2) as f64);
/// let stats = gs.train_epoch(&data, 10, &mut rng);
/// assert_eq!(stats.batches, 2);
/// assert!(gs.counters().positive_samples >= 20);
/// ```
///
/// # Example: hardware in the loop
///
/// ```
/// use ember_core::substrate::BrimSubstrate;
/// use ember_core::{GibbsSampler, GsConfig};
/// use ember_brim::BrimConfig;
/// use ember_rbm::Rbm;
/// use ndarray::Array2;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let rbm = Rbm::random(6, 3, 0.01, &mut rng);
/// let brim = BrimSubstrate::for_rbm(&rbm, BrimConfig::default())
///     .with_thermal_bath(0.02, 40);
/// let mut gs = GibbsSampler::with_substrate(rbm, GsConfig::default().with_k(1), brim);
/// let data = Array2::from_shape_fn((8, 6), |(i, _)| (i % 2) as f64);
/// gs.train_epoch(&data, 4, &mut rng);
/// assert!(gs.counters().phase_points > 0);
/// ```
#[derive(Debug, Clone)]
pub struct GibbsSampler<S: Substrate = SoftwareGibbs> {
    rbm: Rbm,
    config: GsConfig,
    substrate: S,
}

impl GibbsSampler<SoftwareGibbs> {
    /// Builds the accelerator around an initial host-side RBM with the
    /// default software analog substrate. Static coupler variation is
    /// sampled once here ("fabrication").
    pub fn new<R: Rng + ?Sized>(rbm: Rbm, config: GsConfig, rng: &mut R) -> Self {
        let substrate = SoftwareGibbs::new(rbm.visible_len(), rbm.hidden_len(), &config, rng);
        GibbsSampler::with_substrate(rbm, config, substrate)
    }
}

impl<S: Substrate> GibbsSampler<S> {
    /// Builds the accelerator around an arbitrary sampling backend. The
    /// substrate is programmed with the initial weights immediately
    /// (§3.2 step 1).
    ///
    /// # Panics
    ///
    /// Panics if the substrate's fabricated size differs from the RBM.
    pub fn with_substrate(rbm: Rbm, config: GsConfig, mut substrate: S) -> Self {
        assert_eq!(
            substrate.visible_len(),
            rbm.visible_len(),
            "substrate visible size mismatch"
        );
        assert_eq!(
            substrate.hidden_len(),
            rbm.hidden_len(),
            "substrate hidden size mismatch"
        );
        substrate.program(
            &rbm.weights().view(),
            &rbm.visible_bias().view(),
            &rbm.hidden_bias().view(),
        );
        GibbsSampler {
            rbm,
            config,
            substrate,
        }
    }

    /// The host-side master RBM (the weights the host believes it has).
    pub fn rbm(&self) -> &Rbm {
        &self.rbm
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &GsConfig {
        &self.config
    }

    /// The sampling backend.
    pub fn substrate(&self) -> &S {
        &self.substrate
    }

    /// Consumes the accelerator, returning the backend (with its
    /// accumulated counters and physical state).
    pub fn into_substrate(self) -> S {
        self.substrate
    }

    /// Cumulative hardware event counters (owned by the substrate; the
    /// host accounts its MAC/sample events there too so one counter set
    /// describes the whole accelerated run).
    pub fn counters(&self) -> &HardwareCounters {
        self.substrate.counters()
    }

    /// Programs the host weights onto the substrate (§3.2 step 2).
    fn program(&mut self) {
        self.substrate.program(
            &self.rbm.weights().view(),
            &self.rbm.visible_bias().view(),
            &self.rbm.hidden_bias().view(),
        );
    }

    /// One epoch of substrate-accelerated CD-k (Algorithm 1 with steps
    /// 9–15 offloaded). Returns epoch statistics.
    ///
    /// # Panics
    ///
    /// Panics if `data` width differs from the RBM or `batch_size == 0`.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        data: &Array2<f64>,
        batch_size: usize,
        rng: &mut R,
    ) -> EpochStats {
        assert_eq!(data.ncols(), self.rbm.visible_len(), "data width mismatch");
        assert!(batch_size >= 1, "batch size must be positive");
        let mut stats = Vec::new();
        let rows = data.nrows();
        let mut start = 0;
        while start < rows {
            let end = (start + batch_size).min(rows);
            let batch = data.slice(ndarray::s![start..end, ..]).to_owned();
            stats.push(self.train_batch(&batch, rng));
            start = end;
        }
        let collected: Vec<(f64, f64)> = stats;
        EpochStats::accumulate(&collected)
    }

    /// Trains on one minibatch. All of its substrate chains run at once:
    /// one [`Substrate::sample_hidden_batch`] /
    /// [`Substrate::sample_visible_batch`] call per conditional-sampling
    /// step, and the gradient accumulates through two GEMMs (`v⁺ᵀh⁺`,
    /// `v⁻ᵀh⁻`). With the default [`SoftwareGibbs`] backend every
    /// sampling step is a single GEMM over the `batch × layer` matrix;
    /// results are bit-identical at every rayon thread count.
    fn train_batch<R: Rng + ?Sized>(&mut self, batch: &Array2<f64>, rng: &mut R) -> (f64, f64) {
        let mut rng = rng;
        let rng: &mut dyn RngCore = &mut rng;
        let (m, n) = self.rbm.weights().dim();
        let rows = batch.nrows();
        let bs = rows as f64;
        let k = self.config.k();
        // Step 2: (re)program the current weights.
        self.program();

        // Steps 3–4: positive phase, whole minibatch at once. Only the
        // data needs DTC quantization — the read-outs fed back below are
        // already exactly {0, 1}, on which quantization is the identity.
        let clamped = self.substrate.quantize_batch(batch);
        let h_pos = self.substrate.sample_hidden_batch(&clamped, rng);
        // Steps 5–6: k-step Gibbs equivalent on the substrate, batched.
        let mut h_neg = h_pos.clone();
        let mut v_neg = batch.clone();
        for _ in 0..k {
            v_neg = self.substrate.sample_visible_batch(&h_neg, rng);
            h_neg = self.substrate.sample_hidden_batch(&v_neg, rng);
        }

        // Host-side event bookkeeping (settle phase points and read-out
        // words were counted by the substrate per call).
        let counters = self.substrate.counters_mut();
        counters.positive_samples += rows as u64;
        counters.negative_samples += rows as u64;
        counters.host_mac_ops += rows as u64 * 2 * (m * n) as u64;

        // Step 7/8: batched GEMM accumulation + host gradient update
        // (mirrors the software trainer's formulation).
        let alpha = self.config.learning_rate();
        let grad_w = (batch.t().dot(&h_pos) - v_neg.t().dot(&h_neg)) / bs;
        let grad_norm = grad_w.iter().map(|g| g * g).sum::<f64>().sqrt();
        let grad_bv = (batch.sum_axis(Axis(0)) - v_neg.sum_axis(Axis(0))) / bs;
        let grad_bh = (h_pos.sum_axis(Axis(0)) - h_neg.sum_axis(Axis(0))) / bs;
        *self.rbm.weights_mut() += &(&grad_w * alpha);
        *self.rbm.visible_bias_mut() += &(&grad_bv * (alpha));
        *self.rbm.hidden_bias_mut() += &(&grad_bh * (alpha));
        self.substrate.counters_mut().host_mac_ops += (m * n + m + n) as u64;

        let recon = (&v_neg - batch).mapv(f64::abs).mean().unwrap_or(0.0);
        (recon, grad_norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ember_analog::NoiseModel;
    use rand::SeedableRng;

    fn two_mode_data(rows: usize, m: usize) -> Array2<f64> {
        Array2::from_shape_fn((rows, m), |(i, _)| if i % 2 == 0 { 1.0 } else { 0.0 })
    }

    #[test]
    fn ideal_gs_improves_likelihood_like_software_cd() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let rbm = Rbm::random(8, 4, 0.01, &mut rng);
        let data = two_mode_data(40, 8);
        let before = ember_rbm::exact::mean_log_likelihood(&rbm, &data);
        let mut gs = GibbsSampler::new(rbm, GsConfig::default().with_k(1), &mut rng);
        for _ in 0..60 {
            gs.train_epoch(&data, 10, &mut rng);
        }
        let after = ember_rbm::exact::mean_log_likelihood(gs.rbm(), &data);
        assert!(after > before + 1.0, "LL {before} -> {after}");
    }

    #[test]
    fn noisy_gs_still_learns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let rbm = Rbm::random(8, 4, 0.01, &mut rng);
        let data = two_mode_data(40, 8);
        let before = ember_rbm::exact::mean_log_likelihood(&rbm, &data);
        let config = GsConfig::default()
            .with_k(1)
            .with_noise(NoiseModel::new(0.1, 0.1).unwrap());
        let mut gs = GibbsSampler::new(rbm, config, &mut rng);
        for _ in 0..60 {
            gs.train_epoch(&data, 10, &mut rng);
        }
        let after = ember_rbm::exact::mean_log_likelihood(gs.rbm(), &data);
        assert!(after > before + 0.5, "LL {before} -> {after}");
    }

    #[test]
    fn counters_track_operations() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let rbm = Rbm::random(4, 2, 0.01, &mut rng);
        let mut gs = GibbsSampler::new(rbm, GsConfig::default().with_k(2), &mut rng);
        let data = two_mode_data(10, 4);
        gs.train_epoch(&data, 5, &mut rng);
        let c = gs.counters();
        assert_eq!(c.positive_samples, 10);
        assert_eq!(c.negative_samples, 10);
        // Per sample: 1 positive settle + 2*k settles. 10 samples.
        assert_eq!(c.phase_points, 10 * (1 + 4) * 50);
        assert!(c.host_words_transferred > 0);
        assert!(c.host_mac_ops > 0);
    }

    #[test]
    fn deterministic_for_seed() {
        let data = two_mode_data(12, 4);
        let run = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let rbm = Rbm::random(4, 2, 0.01, &mut rng);
            let mut gs = GibbsSampler::new(rbm, GsConfig::default(), &mut rng);
            gs.train_epoch(&data, 4, &mut rng);
            gs.rbm().clone()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn variation_is_frozen_across_batches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let rbm = Rbm::random(4, 3, 0.01, &mut rng);
        let config = GsConfig::default().with_noise(NoiseModel::new(0.2, 0.0).unwrap());
        let gs = GibbsSampler::new(rbm, config, &mut rng);
        let v1 = gs.substrate().variation().clone();
        // The variation map must not change between programming events.
        let mut gs2 = gs.clone();
        gs2.program();
        assert_eq!(v1.factors(), gs2.substrate().variation().factors());
    }

    #[test]
    fn comparator_offset_flows_through_config() {
        use ember_analog::Comparator;
        // A +0.5 offset lifts the zero-field probability of 0.5 to the
        // full rail: if the configured comparator is really plumbed into
        // the sampler, every read-out is 1.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let rbm = Rbm::random(4, 3, 0.01, &mut rng);
        let config = GsConfig::default().with_comparator(Comparator::with_offset(0.5).unwrap());
        let gs = GibbsSampler::new(rbm, config, &mut rng);
        let mut sub = gs.into_substrate();
        let v = Array2::zeros((6, 4));
        let h = sub.sample_hidden_batch(&v, &mut rng);
        assert!(h.iter().all(|&x| x == 1.0), "offset comparator ignored");
    }
}
