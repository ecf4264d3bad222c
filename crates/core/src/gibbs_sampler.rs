use ndarray::Array2;
use rand::Rng;

use ember_rbm::{CdTrainer, EpochStats, Rbm};
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
/// That loop is [`CdTrainer::train_epoch_with`]: an epoch runs it on this
/// accelerator's substrate at the configured `k` and learning rate. The
/// batch's chains run at once, one [`Substrate::sample_batch`] call per
/// conditional-sampling step, and the gradient accumulates through two
/// GEMMs (`v⁺ᵀh⁺`, `v⁻ᵀh⁻`).
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

    /// One epoch of substrate-accelerated CD-k (Algorithm 1 with steps
    /// 9–15 offloaded): [`CdTrainer::train_epoch_with`] at the
    /// configured `k` and learning rate, without momentum or weight
    /// decay. Returns epoch statistics.
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
        CdTrainer::new(self.config.k(), self.config.learning_rate()).train_epoch_with(
            &mut self.rbm,
            data,
            batch_size,
            &mut self.substrate,
            rng,
        )
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
        let mut gs = GibbsSampler::new(rbm, config, &mut rng);
        let v1 = gs
            .substrate()
            .variation()
            .expect("static variation")
            .clone();
        // The variation map must not change between programming events:
        // training re-programs before each of its three minibatches.
        gs.train_epoch(&two_mode_data(12, 4), 4, &mut rng);
        assert_eq!(Some(&v1), gs.substrate().variation());
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
