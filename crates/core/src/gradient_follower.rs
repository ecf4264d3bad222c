use ndarray::{Array1, Array2};
use rand::Rng;

use ember_analog::{Adc, ChargePump, Comparator, Dtc, VariationMap};
use ember_rbm::Rbm;
use ember_substrate::HardwareCounters;

use crate::{AnalogSampler, BgfConfig};

/// The Boltzmann gradient follower of §3.3: training happens entirely
/// inside the augmented Ising substrate.
///
/// Every parameter is a *differential* pair of coupler gate voltages,
/// `W = s · (V⁺ − V⁻)` (Fig. 14), adjusted in place by charge-pump packets
/// gated on the digital product `vᵢ·hⱼ`. Biases are couplers to a
/// constant-1 node (Fig. 3's clamp-unit row). The training step implements
/// Eq. 12 with its three deviations from Algorithm 1:
///
/// 1. **mid-step updates** — the positive packet lands *before* the
///    negative phase runs, so negative samples are taken under `Wᵗ⁺¹ᐟ²`;
/// 2. **hardware transfer `f_ij`** — packet size shrinks near the rails and
///    carries per-device variation;
/// 3. **minibatch 1** — every sample updates the weights immediately, with
///    the small learning rate set by the pump ratio.
///
/// Negative phases persist across samples through `p` particles
/// (Tieleman-style), exactly as the architecture stores hidden states
/// (§3.3 step 4).
///
/// # Example
///
/// ```
/// use ember_core::{BgfConfig, BoltzmannGradientFollower};
/// use ember_rbm::Rbm;
/// use ndarray::Array2;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let init = Rbm::random(4, 2, 0.01, &mut rng);
/// let mut bgf = BoltzmannGradientFollower::new(init, BgfConfig::default(), &mut rng);
/// let data = Array2::from_shape_fn((10, 4), |(i, _)| (i % 2) as f64);
/// bgf.train_epoch(&data, &mut rng);
/// assert!(bgf.counters().weight_update_events > 0);
/// ```
#[derive(Debug, Clone)]
pub struct BoltzmannGradientFollower {
    config: BgfConfig,
    // Differential gate voltages for the weight couplers (m × n).
    v_pos: Array2<f64>,
    v_neg: Array2<f64>,
    // Bias couplers (visible side m, hidden side n), also differential.
    bv_pos: Array1<f64>,
    bv_neg: Array1<f64>,
    bh_pos: Array1<f64>,
    bh_neg: Array1<f64>,
    // Frozen conductance variation of the two coupler banks.
    cond_var_pos: VariationMap,
    cond_var_neg: VariationMap,
    // Frozen per-device charge-pump speed factors.
    pump_factor_pos: Array2<f64>,
    pump_factor_neg: Array2<f64>,
    sampler: AnalogSampler,
    dtc: Dtc,
    particles: Array2<f64>,
    next_particle: usize,
    counters: HardwareCounters,
}

impl BoltzmannGradientFollower {
    /// Initializes the machine from a host-provided RBM (§3.3 step 1) and
    /// freezes all per-device variation ("fabrication").
    pub fn new<R: Rng + ?Sized>(init: Rbm, config: BgfConfig, rng: &mut R) -> Self {
        let (m, n) = init.weights().dim();
        let s = config.weight_scale();
        let split = |w: f64| -> (f64, f64) {
            // W = s (V+ − V−) with V+ + V− = 1 at program time.
            let d = (w / s).clamp(-1.0, 1.0) / 2.0;
            (0.5 + d, 0.5 - d)
        };
        let mut v_pos = Array2::zeros((m, n));
        let mut v_neg = Array2::zeros((m, n));
        for i in 0..m {
            for j in 0..n {
                let (p, q) = split(init.weights()[[i, j]]);
                v_pos[[i, j]] = p;
                v_neg[[i, j]] = q;
            }
        }
        let split_vec = |b: &Array1<f64>| -> (Array1<f64>, Array1<f64>) {
            let mut p = Array1::zeros(b.len());
            let mut q = Array1::zeros(b.len());
            for (k, &x) in b.iter().enumerate() {
                let (a, c) = split(x);
                p[k] = a;
                q[k] = c;
            }
            (p, q)
        };
        let (bv_pos, bv_neg) = split_vec(init.visible_bias());
        let (bh_pos, bh_neg) = split_vec(init.hidden_bias());

        let noise = config.noise();
        let cond_var_pos = noise.sample_variation((m, n), rng);
        let cond_var_neg = noise.sample_variation((m, n), rng);
        let sample_factors = |rng: &mut R| -> Array2<f64> {
            noise
                .sample_variation((m, n), rng)
                .factors()
                .mapv(|f| f.clamp(0.05, 2.0))
        };
        let pump_factor_pos = sample_factors(rng);
        let pump_factor_neg = sample_factors(rng);

        let particles = Array2::from_shape_fn((config.particles(), n), |_| {
            if rng.random_bool(0.5) {
                1.0
            } else {
                0.0
            }
        });

        let sampler = AnalogSampler::new(config.sigmoid(), Comparator::ideal(), noise);
        let dtc = Dtc::new(config.dtc_bits(), 0.0).expect("validated bits");

        let mut counters = HardwareCounters::new();
        // Host streams the initial parameters once.
        counters.host_words_transferred += (m * n + m + n) as u64;

        BoltzmannGradientFollower {
            config,
            v_pos,
            v_neg,
            bv_pos,
            bv_neg,
            bh_pos,
            bh_neg,
            cond_var_pos,
            cond_var_neg,
            pump_factor_pos,
            pump_factor_neg,
            sampler,
            dtc,
            particles,
            next_particle: 0,
            counters,
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &BgfConfig {
        &self.config
    }

    /// Cumulative hardware event counters.
    pub fn counters(&self) -> &HardwareCounters {
        &self.counters
    }

    /// The persistent particles' hidden states (`p × n`).
    pub fn particles(&self) -> &Array2<f64> {
        &self.particles
    }

    /// The distribution the machine *actually* embodies right now: weights
    /// with conductance variation applied. Use this for learning-quality
    /// evaluation (the machine's own samples follow these parameters).
    pub fn effective_rbm(&self) -> Rbm {
        let s = self.config.weight_scale();
        let w = (self.cond_var_pos.factors() * &self.v_pos
            - self.cond_var_neg.factors() * &self.v_neg)
            * s;
        let bv = (&self.bv_pos - &self.bv_neg) * s;
        let bh = (&self.bh_pos - &self.bh_neg) * s;
        Rbm::from_parts(w, bv, bh).expect("dimensions consistent by construction")
    }

    /// Final ADC read-out (§3.3 step 6): the host reads the coupler control
    /// voltages one column at a time through 8-bit ADCs and reconstructs
    /// `W = s (V⁺ − V⁻)`. The host cannot see the per-device variation, so
    /// the returned weights differ from [`Self::effective_rbm`] by both the
    /// quantization error and the variation.
    pub fn read_out<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Rbm {
        let adc = Adc::new(self.config.adc_bits(), 0.0).expect("validated bits");
        let s = self.config.weight_scale();
        let (m, n) = self.v_pos.dim();
        let mut w = Array2::zeros((m, n));
        for i in 0..m {
            for j in 0..n {
                let p = adc.read(self.v_pos[[i, j]], 0.0, 1.0, rng);
                let q = adc.read(self.v_neg[[i, j]], 0.0, 1.0, rng);
                w[[i, j]] = s * (p - q);
            }
        }
        let read_vec = |pos: &Array1<f64>, neg: &Array1<f64>, rng: &mut R| -> Array1<f64> {
            let mut out = Array1::zeros(pos.len());
            for k in 0..pos.len() {
                let p = adc.read(pos[k], 0.0, 1.0, rng);
                let q = adc.read(neg[k], 0.0, 1.0, rng);
                out[k] = s * (p - q);
            }
            out
        };
        let bv = read_vec(&self.bv_pos, &self.bv_neg, rng);
        let bh = read_vec(&self.bh_pos, &self.bh_neg, rng);
        self.counters.host_words_transferred += (2 * (m * n + m + n)) as u64;
        Rbm::from_parts(w, bv, bh).expect("dimensions consistent by construction")
    }

    fn effective_weights(&self) -> Array2<f64> {
        (self.cond_var_pos.factors() * &self.v_pos - self.cond_var_neg.factors() * &self.v_neg)
            * self.config.weight_scale()
    }

    fn effective_bv(&self) -> Array1<f64> {
        (&self.bv_pos - &self.bv_neg) * self.config.weight_scale()
    }

    fn effective_bh(&self) -> Array1<f64> {
        (&self.bh_pos - &self.bh_neg) * self.config.weight_scale()
    }

    /// Applies one gated charge-pump update to every coupler where
    /// `vᵢ·hⱼ = 1`. `positive` selects the phase (Fig. 14's timing):
    /// positive increments `V⁺`/decrements `V⁻`, negative the reverse.
    fn gated_update(&mut self, v: &Array1<f64>, h: &Array1<f64>, positive: bool) {
        let r = self.config.pump_ratio();
        let v_on: Vec<usize> = v
            .iter()
            .enumerate()
            .filter_map(|(i, &x)| (x >= 0.5).then_some(i))
            .collect();
        let h_on: Vec<usize> = h
            .iter()
            .enumerate()
            .filter_map(|(j, &x)| (x >= 0.5).then_some(j))
            .collect();
        for &i in &v_on {
            for &j in &h_on {
                let pump_p = ChargePump::with_device_factor(r, self.pump_factor_pos[[i, j]])
                    .expect("factors pre-clamped");
                let pump_n = ChargePump::with_device_factor(r, self.pump_factor_neg[[i, j]])
                    .expect("factors pre-clamped");
                if positive {
                    self.v_pos[[i, j]] = pump_p.increment(self.v_pos[[i, j]]);
                    self.v_neg[[i, j]] = pump_n.decrement(self.v_neg[[i, j]]);
                } else {
                    self.v_pos[[i, j]] = pump_p.decrement(self.v_pos[[i, j]]);
                    self.v_neg[[i, j]] = pump_n.increment(self.v_neg[[i, j]]);
                }
                self.counters.weight_update_events += 1;
            }
        }
        // Bias couplers: gated against the constant-1 node.
        let pump = ChargePump::new(r).expect("validated ratio");
        for &i in &v_on {
            if positive {
                self.bv_pos[i] = pump.increment(self.bv_pos[i]);
                self.bv_neg[i] = pump.decrement(self.bv_neg[i]);
            } else {
                self.bv_pos[i] = pump.decrement(self.bv_pos[i]);
                self.bv_neg[i] = pump.increment(self.bv_neg[i]);
            }
            self.counters.weight_update_events += 1;
        }
        for &j in &h_on {
            if positive {
                self.bh_pos[j] = pump.increment(self.bh_pos[j]);
                self.bh_neg[j] = pump.decrement(self.bh_neg[j]);
            } else {
                self.bh_pos[j] = pump.decrement(self.bh_pos[j]);
                self.bh_neg[j] = pump.increment(self.bh_neg[j]);
            }
            self.counters.weight_update_events += 1;
        }
    }

    /// One full learning step on one training vector (§3.3 steps 2–5).
    pub fn train_sample<R: Rng + ?Sized>(&mut self, v: &Array1<f64>, rng: &mut R) {
        assert_eq!(v.len(), self.v_pos.nrows(), "sample width mismatch");
        // Step 2: host sends the sample to the visible latches.
        self.counters.host_words_transferred += v.len() as u64;
        let v_clamped = v.mapv(|x| self.dtc.convert(x));

        // Step 3: positive phase under Wᵗ — clamp, settle, sample h⁺.
        let w_eff = self.effective_weights();
        let bh_eff = self.effective_bh();
        let h_pos =
            self.sampler
                .sample_layer(&w_eff.view(), &bh_eff.view(), &v_clamped.view(), rng);
        self.counters.positive_samples += 1;
        self.counters.phase_points += self.config.settle_phase_points();

        // ⟨v h⟩_s+ increments W_ij immediately (mid-step update, Eq. 12).
        self.gated_update(&v_clamped, &h_pos, true);

        // Step 4: load a particle and anneal under Wᵗ⁺¹ᐟ².
        let w_eff = self.effective_weights();
        let bv_eff = self.effective_bv();
        let bh_eff = self.effective_bh();
        let l = self.next_particle;
        self.next_particle = (self.next_particle + 1) % self.particles.nrows();
        let mut h_neg = self.particles.row(l).to_owned();
        let mut v_neg = Array1::zeros(v.len());
        for _ in 0..self.config.negative_sweeps() {
            v_neg =
                self.sampler
                    .sample_layer_rev(&w_eff.view(), &bv_eff.view(), &h_neg.view(), rng);
            h_neg = self
                .sampler
                .sample_layer(&w_eff.view(), &bh_eff.view(), &v_neg.view(), rng);
        }
        self.counters.negative_samples += 1;
        self.counters.phase_points += self.config.anneal_phase_points();
        // Store the hidden state back for persistence.
        self.particles.row_mut(l).assign(&h_neg);

        // Step 5: ⟨v h⟩_s− decrements W_ij.
        self.gated_update(&v_neg, &h_neg, false);
    }

    /// One pass over the dataset with the effective minibatch of 1.
    ///
    /// # Panics
    ///
    /// Panics if `data` width differs from the machine's visible count.
    pub fn train_epoch<R: Rng + ?Sized>(&mut self, data: &Array2<f64>, rng: &mut R) {
        assert_eq!(data.ncols(), self.v_pos.nrows(), "data width mismatch");
        for row in data.rows() {
            let v = row.to_owned();
            self.train_sample(&v, rng);
        }
    }

    /// Substrate inference: clamp a visible vector, settle, return the
    /// hidden sample — the inference path the paper notes Ising machines
    /// support "in a straightforward manner" (§2.3).
    pub fn infer_hidden<R: Rng + ?Sized>(&mut self, v: &Array1<f64>, rng: &mut R) -> Array1<f64> {
        let v_clamped = v.mapv(|x| self.dtc.convert(x));
        let w_eff = self.effective_weights();
        let bh_eff = self.effective_bh();
        let h = self
            .sampler
            .sample_layer(&w_eff.view(), &bh_eff.view(), &v_clamped.view(), rng);
        self.counters.phase_points += self.config.settle_phase_points();
        self.counters.host_words_transferred += (v.len() + h.len()) as u64;
        h
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

    fn fast_config() -> BgfConfig {
        // Larger packets so tests converge in few epochs.
        BgfConfig::default().with_pump_ratio(1.0 / 256.0)
    }

    #[test]
    fn bgf_improves_likelihood() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let init = Rbm::random(8, 4, 0.01, &mut rng);
        let data = two_mode_data(40, 8);
        let before = ember_rbm::exact::mean_log_likelihood(&init, &data);
        let mut bgf = BoltzmannGradientFollower::new(init, fast_config(), &mut rng);
        for _ in 0..40 {
            bgf.train_epoch(&data, &mut rng);
        }
        let after = ember_rbm::exact::mean_log_likelihood(&bgf.effective_rbm(), &data);
        assert!(after > before + 1.0, "LL {before} -> {after}");
    }

    #[test]
    fn noisy_bgf_still_learns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let init = Rbm::random(8, 4, 0.01, &mut rng);
        let data = two_mode_data(40, 8);
        let before = ember_rbm::exact::mean_log_likelihood(&init, &data);
        let config = fast_config().with_noise(NoiseModel::new(0.1, 0.1).unwrap());
        let mut bgf = BoltzmannGradientFollower::new(init, config, &mut rng);
        for _ in 0..40 {
            bgf.train_epoch(&data, &mut rng);
        }
        let after = ember_rbm::exact::mean_log_likelihood(&bgf.effective_rbm(), &data);
        assert!(after > before + 0.5, "LL {before} -> {after}");
    }

    #[test]
    fn voltages_stay_within_rails() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let init = Rbm::random(5, 3, 0.5, &mut rng);
        let config = BgfConfig::default().with_pump_ratio(0.25);
        let mut bgf = BoltzmannGradientFollower::new(init, config, &mut rng);
        let data = two_mode_data(30, 5);
        for _ in 0..5 {
            bgf.train_epoch(&data, &mut rng);
        }
        let ok = |x: &f64| (0.0..=1.0).contains(x);
        assert!(bgf.v_pos.iter().all(ok));
        assert!(bgf.v_neg.iter().all(ok));
        assert!(bgf.bv_pos.iter().all(ok));
        assert!(bgf.bh_neg.iter().all(ok));
    }

    #[test]
    fn readout_approximates_effective_weights_when_clean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let init = Rbm::random(4, 3, 0.3, &mut rng);
        let mut bgf = BoltzmannGradientFollower::new(init, BgfConfig::default(), &mut rng);
        let data = two_mode_data(8, 4);
        bgf.train_epoch(&data, &mut rng);
        let exact = bgf.effective_rbm();
        let read = bgf.read_out(&mut rng);
        // No variation configured, so read-out differs only by ADC LSBs.
        let s = bgf.config().weight_scale();
        let lsb = 2.0 * s / 255.0;
        for (a, b) in exact.weights().iter().zip(read.weights().iter()) {
            assert!(
                (a - b).abs() <= lsb,
                "adc error {} > lsb {lsb}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn particles_persist_and_update() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let init = Rbm::random(6, 3, 0.2, &mut rng);
        let config = BgfConfig::default().with_particles(3);
        let mut bgf = BoltzmannGradientFollower::new(init, config, &mut rng);
        let before = bgf.particles().clone();
        let data = two_mode_data(9, 6);
        bgf.train_epoch(&data, &mut rng);
        assert_eq!(bgf.particles().dim(), (3, 3));
        assert_ne!(&before, bgf.particles());
        assert!(bgf.particles().iter().all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn counters_reflect_minibatch_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let init = Rbm::random(4, 2, 0.01, &mut rng);
        let mut bgf = BoltzmannGradientFollower::new(init, BgfConfig::default(), &mut rng);
        let data = two_mode_data(7, 4);
        bgf.train_epoch(&data, &mut rng);
        assert_eq!(bgf.counters().positive_samples, 7);
        assert_eq!(bgf.counters().negative_samples, 7);
        // Phase points: 7 × (settle 50 + anneal 100).
        assert_eq!(bgf.counters().phase_points, 7 * 150);
        // Host never performs gradient MACs in BGF.
        assert_eq!(bgf.counters().host_mac_ops, 0);
    }

    #[test]
    fn midstep_update_changes_weights_between_phases() {
        // After a positive phase on an all-ones sample, every coupler in
        // the on-row must have moved before the negative phase is taken.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let init = Rbm::new(3, 2);
        let config = BgfConfig::default().with_pump_ratio(0.1);
        let mut bgf = BoltzmannGradientFollower::new(init, config, &mut rng);
        let w_before = bgf.effective_weights();
        let v = Array1::ones(3);
        // Force h=1 via huge hidden bias.
        bgf.bh_pos.fill(1.0);
        bgf.bh_neg.fill(0.0);
        bgf.train_sample(&v, &mut rng);
        let w_after = bgf.effective_weights();
        assert_ne!(w_before, w_after);
    }

    #[test]
    fn inference_path_counts_phase_points() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let init = Rbm::random(4, 2, 0.1, &mut rng);
        let mut bgf = BoltzmannGradientFollower::new(init, BgfConfig::default(), &mut rng);
        let v = Array1::ones(4);
        let before = bgf.counters().phase_points;
        let h = bgf.infer_hidden(&v, &mut rng);
        assert_eq!(h.len(), 2);
        assert_eq!(bgf.counters().phase_points, before + 50);
    }
}
