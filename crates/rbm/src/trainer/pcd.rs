use ndarray::{Array2, Axis};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use ember_substrate::{Side, Substrate};

use crate::trainer::{
    check_substrate, count_minibatch, epoch, exact_half, gibbs_steps, last_epoch, program,
    CoCounts, EpochStats,
};
use crate::Rbm;

/// Persistent contrastive divergence (Tieleman 2008, cited as \[63\] for the
/// BGF's particle persistence, §3.3).
///
/// Unlike CD-k, the negative-phase Markov chains are **not** re-seeded at
/// the data each minibatch; `p` persistent "fantasy particles" keep
/// evolving under the current model, giving lower-bias negative statistics.
/// This is exactly the role of the `p` hidden-state particles the BGF
/// architecture stores and re-loads between negative phases.
///
/// # Example
///
/// ```
/// use ember_rbm::{Rbm, PcdTrainer};
/// use ndarray::Array2;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let mut rbm = Rbm::random(6, 3, 0.01, &mut rng);
/// let data = Array2::from_shape_fn((30, 6), |(i, _)| (i % 2) as f64);
/// let mut trainer = PcdTrainer::new(1, 0.05, 10, &rbm, &mut rng);
/// let stats = trainer.train_epoch(&mut rbm, &data, 10, &mut rng);
/// assert_eq!(stats.batches, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcdTrainer {
    k: usize,
    learning_rate: f64,
    particles_v: Array2<f64>,
}

impl PcdTrainer {
    /// Creates a PCD-`k` trainer with `p` particles initialized from random
    /// visible states.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `learning_rate <= 0`, or `particles == 0`.
    pub fn new<R: Rng + ?Sized>(
        k: usize,
        learning_rate: f64,
        particles: usize,
        rbm: &Rbm,
        rng: &mut R,
    ) -> Self {
        assert!(k >= 1, "PCD-k needs k >= 1");
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!(particles >= 1, "need at least one particle");
        let particles_v = Array2::from_shape_fn((particles, rbm.visible_len()), |_| {
            if rng.random_bool(0.5) {
                1.0
            } else {
                0.0
            }
        });
        PcdTrainer {
            k,
            learning_rate,
            particles_v,
        }
    }

    /// Number of persistent particles `p`.
    pub fn particle_count(&self) -> usize {
        self.particles_v.nrows()
    }

    /// Current particle visible states (`p × m`).
    pub fn particles(&self) -> &Array2<f64> {
        &self.particles_v
    }

    /// Trains one epoch; returns statistics.
    ///
    /// # Panics
    ///
    /// Panics if `data` width differs from the RBM's visible count or
    /// `batch_size == 0`.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        rng: &mut R,
    ) -> EpochStats {
        epoch(rbm, data, batch_size, |rbm, batch| {
            let phases = self.phases(batch, |side, x| exact_half(rbm, side, x, rng));
            self.apply_gradients(rbm, batch, phases)
        })
    }

    /// One minibatch's chains, generic over the half-step
    /// `half(side, clamp)`: `h⁺` from the clamped data, then the
    /// persistent particles advance (`h` from the particles, then `k`
    /// full Gibbs steps). Returns `[h⁺, v⁻, h⁻]`.
    fn phases(
        &self,
        clamped: &Array2<f64>,
        mut half: impl FnMut(Side, &Array2<f64>) -> Array2<f64>,
    ) -> [Array2<f64>; 3] {
        let h_pos = half(Side::Hidden, clamped);
        let h = half(Side::Hidden, &self.particles_v);
        let [v_neg, h_neg] = gibbs_steps(self.k, &h, half);
        [h_pos, v_neg, h_neg]
    }

    /// Shared host-side gradient step: data statistics normalized by the
    /// batch size, particle statistics by the particle count. The common
    /// tail of every PCD variant; `v⁻` becomes the new particle set.
    ///
    /// When the data and the phases are exactly binary ([`CoCounts`]),
    /// `W` updates in one fused pass that reads each gradient entry
    /// `a/bs − b/p` from two tables of quotients, with no weight-sized
    /// temporary. Otherwise the dense products serve. The bits are the
    /// same either way.
    fn apply_gradients(
        &mut self,
        rbm: &mut Rbm,
        batch: &Array2<f64>,
        [h_pos, v_neg, h_neg]: [Array2<f64>; 3],
    ) -> (f64, f64) {
        let bs = batch.nrows() as f64;
        let p = v_neg.nrows() as f64;
        let grad_bv = batch.sum_axis(Axis(0)) / bs - v_neg.sum_axis(Axis(0)) / p;
        let grad_bh = h_pos.sum_axis(Axis(0)) / bs - h_neg.sum_axis(Axis(0)) / p;
        let grad_norm = match CoCounts::of([batch, &h_pos, &v_neg, &h_neg]) {
            Some(mut counts) => {
                let pos: Vec<f64> = (0..=batch.nrows()).map(|a| a as f64 / bs).collect();
                let neg: Vec<f64> = (0..=v_neg.nrows()).map(|b| b as f64 / p).collect();
                // `max(1)`: `chunks_exact_mut` needs a nonzero width.
                let n = rbm.hidden_len().max(1);
                let rows = rbm.weights_mut().as_mut_slice().chunks_exact_mut(n);
                // -0.0, where `Sum for f64` starts: an empty `W` matches too.
                let mut sum_sq = -0.0;
                for (i, weights) in rows.enumerate() {
                    let (a, b) = counts.row(i);
                    for ((w, &a), &b) in weights.iter_mut().zip(a).zip(b) {
                        let g = pos[usize::from(a)] - neg[usize::from(b)];
                        sum_sq += g * g;
                        *w += g * self.learning_rate;
                    }
                }
                sum_sq.sqrt()
            }
            None => {
                let grad_w = batch.t().dot(&h_pos) / bs - v_neg.t().dot(&h_neg) / p;
                let grad_norm = grad_w.iter().map(|g| g * g).sum::<f64>().sqrt();
                *rbm.weights_mut() += &(&grad_w * self.learning_rate);
                grad_norm
            }
        };

        *rbm.visible_bias_mut() += &(&grad_bv * self.learning_rate);
        *rbm.hidden_bias_mut() += &(&grad_bh * self.learning_rate);

        let recon = {
            // Compare data statistics with particle statistics.
            let d = batch.mean_axis(Axis(0)).expect("non-empty batch");
            let m = v_neg.mean_axis(Axis(0)).expect("non-empty particles");
            (&d - &m).mapv(f64::abs).mean().unwrap_or(0.0)
        };
        self.particles_v = v_neg;
        (recon, grad_norm)
    }

    /// One epoch of PCD-k with both the positive phase and the
    /// persistent-particle evolution offloaded to an arbitrary
    /// [`Substrate`] backend. The substrate is re-programmed with the
    /// current weights before every minibatch; the `p` fantasy particles
    /// advance `k` full Gibbs steps on the substrate and persist in the
    /// trainer exactly as in [`PcdTrainer::train_epoch`] — this mirrors
    /// the paper's BGF particle store (§3.3), but with the weights still
    /// host-resident.
    ///
    /// # Panics
    ///
    /// Panics if `data` width differs from the RBM's visible count, the
    /// substrate's fabricated size differs from the RBM, or
    /// `batch_size == 0`.
    pub fn train_epoch_with<S, R>(
        &mut self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        substrate: &mut S,
        rng: &mut R,
    ) -> EpochStats
    where
        S: Substrate + ?Sized,
        R: Rng + ?Sized,
    {
        check_substrate(substrate, rbm);
        let mut rng = rng;
        let rng: &mut dyn RngCore = &mut rng;
        epoch(rbm, data, batch_size, |rbm, batch| {
            program(substrate, rbm);
            let clamped = substrate.quantize_batch(batch);
            let phases = self.phases(&clamped, |side, x| substrate.sample_batch(side, x, rng));
            count_minibatch(
                substrate.counters_mut(),
                rbm,
                batch.nrows(),
                self.particle_count(),
            );
            self.apply_gradients(rbm, batch, phases)
        })
    }

    /// Full run of `epochs` epochs; returns the final epoch's statistics.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        epochs: usize,
        rng: &mut R,
    ) -> EpochStats {
        last_epoch(epochs, || self.train_epoch(rbm, data, batch_size, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pcd_improves_likelihood() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut rbm = Rbm::random(8, 4, 0.01, &mut rng);
        let data = Array2::from_shape_fn((60, 8), |(i, _)| if i % 2 == 0 { 1.0 } else { 0.0 });
        let before = crate::exact::mean_log_likelihood(&rbm, &data);
        let mut trainer = PcdTrainer::new(1, 0.05, 20, &rbm, &mut rng);
        trainer.train(&mut rbm, &data, 10, 80, &mut rng);
        let after = crate::exact::mean_log_likelihood(&rbm, &data);
        assert!(after > before + 1.0, "LL {before} -> {after}");
    }

    #[test]
    fn particles_evolve() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let mut rbm = Rbm::random(6, 3, 0.5, &mut rng);
        let data = Array2::zeros((10, 6));
        let mut trainer = PcdTrainer::new(2, 0.01, 8, &rbm, &mut rng);
        let before = trainer.particles().clone();
        trainer.train_epoch(&mut rbm, &data, 5, &mut rng);
        assert_ne!(&before, trainer.particles());
        assert_eq!(trainer.particle_count(), 8);
    }

    /// The dense gradient step, expression for expression: the reference
    /// `apply_gradients` must match bit for bit on every input.
    fn dense_step(
        lr: f64,
        rbm: &mut Rbm,
        batch: &Array2<f64>,
        [h_pos, v_neg, h_neg]: &[Array2<f64>; 3],
    ) -> (f64, f64) {
        let bs = batch.nrows() as f64;
        let p = v_neg.nrows() as f64;
        let grad_w = batch.t().dot(h_pos) / bs - v_neg.t().dot(h_neg) / p;
        let grad_bv = batch.sum_axis(Axis(0)) / bs - v_neg.sum_axis(Axis(0)) / p;
        let grad_bh = h_pos.sum_axis(Axis(0)) / bs - h_neg.sum_axis(Axis(0)) / p;
        let grad_norm = grad_w.iter().map(|g| g * g).sum::<f64>().sqrt();
        *rbm.weights_mut() += &(&grad_w * lr);
        *rbm.visible_bias_mut() += &(&grad_bv * lr);
        *rbm.hidden_bias_mut() += &(&grad_bh * lr);
        let d = batch.mean_axis(Axis(0)).expect("non-empty batch");
        let m = v_neg.mean_axis(Axis(0)).expect("non-empty particles");
        ((&d - &m).mapv(f64::abs).mean().unwrap_or(0.0), grad_norm)
    }

    /// Every bit of the trained weights and biases.
    fn rbm_bits(rbm: &Rbm) -> Vec<u64> {
        [
            rbm.weights().as_slice(),
            rbm.visible_bias().as_slice(),
            rbm.hidden_bias().as_slice(),
        ]
        .concat()
        .iter()
        .map(|x| x.to_bits())
        .collect()
    }

    #[test]
    fn gradient_step_matches_the_dense_expressions_bit_for_bit() {
        let (m, n, lr) = (37, 11, 0.05);
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let binary = |rng: &mut rand::rngs::StdRng, rows, cols| {
            Array2::from_shape_fn((rows, cols), |_| f64::from(rng.random_bool(0.3)))
        };
        // (batch rows, particles): binary phases at sizes around the
        // count and lane widths, then gray data, then binary data with a
        // single gray entry.
        let mut cases = Vec::new();
        for (bs, p) in [(1, 4), (5, 7), (63, 64), (64, 65), (65, 130), (130, 1)] {
            cases.push((binary(&mut rng, bs, m), p));
        }
        let gray =
            Array2::from_shape_fn((9, m), |_| f64::from(rng.random_range(0..=255u8)) / 255.0);
        cases.push((gray, 6));
        let mut one_gray = binary(&mut rng, 8, m);
        one_gray[[3, 17]] = 0.5;
        cases.push((one_gray, 5));

        for (batch, p) in cases {
            let bs = batch.nrows();
            let mut got = Rbm::random(m, n, 0.1, &mut rng);
            let mut want = got.clone();
            let mut trainer = PcdTrainer::new(1, lr, p, &got, &mut rng);
            for _ in 0..2 {
                let phases = [
                    binary(&mut rng, bs, n),
                    binary(&mut rng, p, m),
                    binary(&mut rng, p, n),
                ];
                let (want_recon, want_norm) = dense_step(lr, &mut want, &batch, &phases);
                let v_neg = phases[1].clone();
                let (got_recon, got_norm) = trainer.apply_gradients(&mut got, &batch, phases);
                assert_eq!(got_recon.to_bits(), want_recon.to_bits(), "recon, bs {bs}");
                assert_eq!(got_norm.to_bits(), want_norm.to_bits(), "norm, bs {bs}");
                assert_eq!(trainer.particles(), &v_neg);
            }
            assert_eq!(rbm_bits(&got), rbm_bits(&want), "bs {bs}");
        }
    }

    #[test]
    fn particle_values_stay_binary() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut rbm = Rbm::random(5, 3, 0.2, &mut rng);
        let data = Array2::from_shape_fn((12, 5), |(i, j)| ((i * j) % 2) as f64);
        let mut trainer = PcdTrainer::new(1, 0.1, 6, &rbm, &mut rng);
        trainer.train(&mut rbm, &data, 4, 3, &mut rng);
        assert!(trainer.particles().iter().all(|&x| x == 0.0 || x == 1.0));
    }
}
