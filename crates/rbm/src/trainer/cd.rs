use ndarray::{Array1, Array2, Axis};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use ember_substrate::{Side, Substrate};

use crate::trainer::{
    check_substrate, clamped_batch, count_minibatch, epoch, exact_half, gibbs_steps, last_epoch,
    program, CoCounts, EpochStats,
};
use crate::Rbm;

/// The contrastive-divergence trainer of Algorithm 1 (CD-k).
///
/// Per minibatch: clamp the data (`v⁺`), sample `h⁺ ~ P(h|v⁺)` (positive
/// phase, lines 9–10), run `k` alternating Gibbs half-steps to obtain
/// `(v⁻, h⁻)` (negative phase, lines 12–15), then ascend the stochastic
/// log-likelihood gradient (lines 17–19):
///
/// ```text
/// W  += α (⟨v⁺ᵀh⁺⟩ − ⟨v⁻ᵀh⁻⟩)
/// b_v += α ⟨v⁺ − v⁻⟩
/// b_h += α ⟨h⁺ − h⁻⟩
/// ```
///
/// Optional momentum and L2 weight decay follow common practice (they
/// default to off, matching the paper's plain Algorithm 1).
///
/// # Example
///
/// ```
/// use ember_rbm::{Rbm, CdTrainer};
/// use ndarray::Array2;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut rbm = Rbm::random(4, 2, 0.05, &mut rng);
/// let data = Array2::from_shape_fn((20, 4), |(i, j)| ((i + j) % 2) as f64);
/// let trainer = CdTrainer::new(1, 0.05);
/// let stats = trainer.train_epoch(&mut rbm, &data, 5, &mut rng);
/// assert_eq!(stats.batches, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdTrainer {
    k: usize,
    learning_rate: f64,
    momentum: f64,
    weight_decay: f64,
}

impl CdTrainer {
    /// Creates a CD-`k` trainer with the given learning rate `α`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `learning_rate <= 0`.
    pub fn new(k: usize, learning_rate: f64) -> Self {
        assert!(k >= 1, "CD-k needs k >= 1");
        assert!(learning_rate > 0.0, "learning rate must be positive");
        CdTrainer {
            k,
            learning_rate,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }

    /// Returns a copy with momentum `β ∈ [0, 1)` on all parameter updates.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ momentum < 1`.
    #[must_use]
    pub fn with_momentum(mut self, momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Returns a copy with L2 weight decay `λ` (applied to `W` only).
    ///
    /// # Panics
    ///
    /// Panics if `weight_decay` is negative.
    #[must_use]
    pub fn with_weight_decay(mut self, weight_decay: f64) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = weight_decay;
        self
    }

    /// Number of Gibbs steps `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Learning rate `α`.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Trains one epoch over `data` (rows = samples) with the given
    /// minibatch size; a trailing partial batch is used as-is.
    /// Returns per-epoch statistics.
    ///
    /// # Panics
    ///
    /// Panics if `data` width differs from the RBM's visible count or
    /// `batch_size == 0`.
    pub fn train_epoch<R: Rng + ?Sized>(
        &self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        rng: &mut R,
    ) -> EpochStats {
        let mut velocity = Velocity::zeros(rbm);
        epoch(rbm, data, batch_size, |rbm, batch| {
            let phases = self.phases(batch, |side, x| exact_half(rbm, side, x, rng));
            self.apply_gradients(rbm, batch, &phases, &mut velocity)
        })
    }

    /// One minibatch's chain (lines 9–15 of Algorithm 1), generic over
    /// the half-step `half(side, clamp)` that samples `side` given the
    /// other side clamped: `h⁺` from the clamped data, then `k` full
    /// Gibbs steps from `h⁺`. Returns `[h⁺, v⁻, h⁻]`.
    fn phases(
        &self,
        clamped: &Array2<f64>,
        mut half: impl FnMut(Side, &Array2<f64>) -> Array2<f64>,
    ) -> [Array2<f64>; 3] {
        let h_pos = half(Side::Hidden, clamped);
        let [v_neg, h_neg] = gibbs_steps(self.k, &h_pos, half);
        [h_pos, v_neg, h_neg]
    }

    /// One epoch of CD-k with the conditional sampling offloaded to an
    /// arbitrary [`Substrate`] backend (software Gibbs, BRIM, annealer,
    /// future hardware): the substrate is re-programmed with the current
    /// weights before every minibatch (§3.2 step 2), data rows are
    /// clamped through the substrate's DTC model, and the k-step Gibbs
    /// equivalent runs by alternating clamped sides. The host-side
    /// gradient update (momentum, weight decay) is identical to
    /// [`CdTrainer::train_epoch`] — that method *is* this one
    /// specialized to exact software conditionals, kept on its dedicated
    /// GEMM fast path.
    ///
    /// Hardware event accounting accumulates on `substrate.counters()`.
    ///
    /// # Panics
    ///
    /// Panics if `data` width differs from the RBM's visible count, the
    /// substrate's fabricated size differs from the RBM, or
    /// `batch_size == 0`.
    pub fn train_epoch_with<S, R>(
        &self,
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
        let mut velocity = Velocity::zeros(rbm);
        epoch(rbm, data, batch_size, |rbm, batch| {
            program(substrate, rbm);
            let clamped = clamped_batch(substrate, batch);
            let phases = self.phases(&clamped, |side, x| substrate.sample_batch(side, x, rng));
            count_minibatch(substrate.counters_mut(), rbm, batch.nrows(), batch.nrows());
            self.apply_gradients(rbm, batch, &phases, &mut velocity)
        })
    }

    /// Convenience: `epochs` substrate-offloaded epochs
    /// ([`CdTrainer::train_epoch_with`] in a loop, one shared RNG), the
    /// entry point a serving shard calls to honor a training request.
    /// Returns the final epoch's statistics.
    pub fn train_with<S, R>(
        &self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        substrate: &mut S,
        epochs: usize,
        rng: &mut R,
    ) -> EpochStats
    where
        S: Substrate + ?Sized,
        R: Rng + ?Sized,
    {
        last_epoch(epochs, || {
            self.train_epoch_with(rbm, data, batch_size, substrate, rng)
        })
    }

    /// Shared host-side gradient step (lines 17–19 of Algorithm 1 with
    /// momentum and weight decay): the common tail of every CD variant.
    ///
    /// When the data and the phases are exactly binary ([`CoCounts`]),
    /// `W` and its velocity update in one fused pass that reads each
    /// gradient entry `(a − b)/bs` from a table of the `2·bs + 1`
    /// possible quotients, with no weight-sized temporary. Otherwise the
    /// dense products serve. The bits are the same either way.
    fn apply_gradients(
        &self,
        rbm: &mut Rbm,
        batch: &Array2<f64>,
        [h_pos, v_neg, h_neg]: &[Array2<f64>; 3],
        velocity: &mut Velocity,
    ) -> (f64, f64) {
        let Velocity {
            w: velocity_w,
            bv: velocity_bv,
            bh: velocity_bh,
        } = velocity;
        let bs = batch.nrows() as f64;
        let grad_bv = (batch.sum_axis(Axis(0)) - v_neg.sum_axis(Axis(0))) / bs;
        let grad_bh = (h_pos.sum_axis(Axis(0)) - h_neg.sum_axis(Axis(0))) / bs;
        let grad_norm = match CoCounts::of([batch, h_pos, v_neg, h_neg]) {
            Some(mut counts) => {
                // `quotient[negs + a − b] = (a − b) / bs`.
                let negs = v_neg.nrows();
                let quotient: Vec<f64> = (0..=batch.nrows() + negs)
                    .map(|k| (k as f64 - negs as f64) / bs)
                    .collect();
                // `max(1)`: `chunks_exact_mut` needs a nonzero width.
                let n = rbm.hidden_len().max(1);
                let rows = rbm
                    .weights_mut()
                    .as_mut_slice()
                    .chunks_exact_mut(n)
                    .zip(velocity_w.as_mut_slice().chunks_exact_mut(n));
                // -0.0, where `Sum for f64` starts: an empty `W` matches too.
                let mut sum_sq = -0.0;
                for (i, (weights, velocity)) in rows.enumerate() {
                    let (a, b) = counts.row(i);
                    for (((w, v), &a), &b) in weights.iter_mut().zip(velocity).zip(a).zip(b) {
                        let g = quotient[negs + usize::from(a) - usize::from(b)];
                        sum_sq += g * g;
                        *v = *v * self.momentum + (g - *w * self.weight_decay) * self.learning_rate;
                        *w += *v;
                    }
                }
                sum_sq.sqrt()
            }
            None => {
                let grad_w = (batch.t().dot(h_pos) - v_neg.t().dot(h_neg)) / bs;
                let grad_norm = grad_w.iter().map(|g| g * g).sum::<f64>().sqrt();
                // In place: weight-sized temporaries page-fault on every
                // training request. Each element's operations keep their
                // order.
                for ((v, &g), &w) in velocity_w
                    .iter_mut()
                    .zip(grad_w.iter())
                    .zip(rbm.weights().iter())
                {
                    *v = *v * self.momentum + (g - w * self.weight_decay) * self.learning_rate;
                }
                *rbm.weights_mut() += &*velocity_w;
                grad_norm
            }
        };

        *velocity_bv = &*velocity_bv * self.momentum + &grad_bv * self.learning_rate;
        *velocity_bh = &*velocity_bh * self.momentum + &grad_bh * self.learning_rate;
        *rbm.visible_bias_mut() += &*velocity_bv;
        *rbm.hidden_bias_mut() += &*velocity_bh;

        let recon = (v_neg - batch).mapv(f64::abs).mean().unwrap_or(0.0);
        (recon, grad_norm)
    }

    /// Convenience: full training run of `epochs` epochs; returns the final
    /// epoch's statistics.
    pub fn train<R: Rng + ?Sized>(
        &self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        epochs: usize,
        rng: &mut R,
    ) -> EpochStats {
        last_epoch(epochs, || self.train_epoch(rbm, data, batch_size, rng))
    }
}

/// Momentum state carried across one epoch's minibatches: the previous
/// update of `W`, `b_v` and `b_h`.
#[derive(Clone)]
struct Velocity {
    w: Array2<f64>,
    bv: Array1<f64>,
    bh: Array1<f64>,
}

impl Velocity {
    fn zeros(rbm: &Rbm) -> Self {
        Velocity {
            w: Array2::zeros(rbm.weights().dim()),
            bv: Array1::zeros(rbm.visible_len()),
            bh: Array1::zeros(rbm.hidden_len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn two_mode_data(rows: usize, m: usize) -> Array2<f64> {
        Array2::from_shape_fn((rows, m), |(i, _)| if i % 2 == 0 { 1.0 } else { 0.0 })
    }

    #[test]
    fn cd1_learns_two_modes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut rbm = Rbm::random(8, 4, 0.01, &mut rng);
        let data = two_mode_data(60, 8);
        let before = crate::exact::mean_log_likelihood(&rbm, &data);
        // lr 0.05: the larger 0.1 overshoots and oscillates late in
        // training on this tiny model, eroding the LL gain.
        let trainer = CdTrainer::new(1, 0.05);
        trainer.train(&mut rbm, &data, 10, 60, &mut rng);
        let after = crate::exact::mean_log_likelihood(&rbm, &data);
        assert!(
            after > before + 1.0,
            "log-likelihood should improve: {before} -> {after}"
        );
    }

    #[test]
    fn cd10_at_least_as_good_as_cd1_on_average() {
        // Not guaranteed per-seed, so average over a few.
        let data = two_mode_data(40, 6);
        let mut ll1 = 0.0;
        let mut ll10 = 0.0;
        for seed in 0..3 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut a = Rbm::random(6, 3, 0.01, &mut rng);
            let mut b = a.clone();
            CdTrainer::new(1, 0.1).train(&mut a, &data, 10, 40, &mut rng);
            CdTrainer::new(10, 0.1).train(&mut b, &data, 10, 40, &mut rng);
            ll1 += crate::exact::mean_log_likelihood(&a, &data);
            ll10 += crate::exact::mean_log_likelihood(&b, &data);
        }
        // CD-10 shouldn't be dramatically worse.
        assert!(ll10 > ll1 - 1.5, "cd1 {ll1} vs cd10 {ll10}");
    }

    #[test]
    fn epoch_stats_counts_batches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut rbm = Rbm::random(4, 2, 0.01, &mut rng);
        let data = two_mode_data(23, 4);
        let stats = CdTrainer::new(1, 0.05).train_epoch(&mut rbm, &data, 10, &mut rng);
        assert_eq!(stats.batches, 3); // 10 + 10 + 3
        assert!(stats.reconstruction_error >= 0.0);
    }

    #[test]
    fn momentum_and_decay_run() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut rbm = Rbm::random(5, 3, 0.01, &mut rng);
        let data = two_mode_data(20, 5);
        let trainer = CdTrainer::new(2, 0.05)
            .with_momentum(0.5)
            .with_weight_decay(1e-4);
        let stats = trainer.train(&mut rbm, &data, 5, 5, &mut rng);
        assert!(stats.gradient_norm.is_finite());
        assert!(rbm.weights().iter().all(|w| w.is_finite()));
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn rejects_zero_k() {
        let _ = CdTrainer::new(0, 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_mode_data(16, 4);
        let run = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rbm = Rbm::random(4, 2, 0.01, &mut rng);
            CdTrainer::new(1, 0.1).train(&mut rbm, &data, 4, 3, &mut rng);
            rbm
        };
        assert_eq!(run(9), run(9));
    }

    /// The dense gradient step, expression for expression: the reference
    /// `apply_gradients` must match bit for bit on every input.
    fn dense_step(
        trainer: &CdTrainer,
        rbm: &mut Rbm,
        batch: &Array2<f64>,
        [h_pos, v_neg, h_neg]: &[Array2<f64>; 3],
        velocity: &mut Velocity,
    ) -> (f64, f64) {
        let bs = batch.nrows() as f64;
        let grad_w = (batch.t().dot(h_pos) - v_neg.t().dot(h_neg)) / bs;
        let grad_bv = (batch.sum_axis(Axis(0)) - v_neg.sum_axis(Axis(0))) / bs;
        let grad_bh = (h_pos.sum_axis(Axis(0)) - h_neg.sum_axis(Axis(0))) / bs;
        let grad_norm = grad_w.iter().map(|g| g * g).sum::<f64>().sqrt();
        for ((v, &g), &w) in velocity
            .w
            .iter_mut()
            .zip(grad_w.iter())
            .zip(rbm.weights().iter())
        {
            *v = *v * trainer.momentum + (g - w * trainer.weight_decay) * trainer.learning_rate;
        }
        velocity.bv = &velocity.bv * trainer.momentum + &grad_bv * trainer.learning_rate;
        velocity.bh = &velocity.bh * trainer.momentum + &grad_bh * trainer.learning_rate;
        *rbm.weights_mut() += &velocity.w;
        *rbm.visible_bias_mut() += &velocity.bv;
        *rbm.hidden_bias_mut() += &velocity.bh;
        let recon = (v_neg - batch).mapv(f64::abs).mean().unwrap_or(0.0);
        (recon, grad_norm)
    }

    /// Every bit of the trained state: weights, biases and velocity.
    fn state_bits(rbm: &Rbm, velocity: &Velocity) -> Vec<u64> {
        [
            rbm.weights().as_slice(),
            rbm.visible_bias().as_slice(),
            rbm.hidden_bias().as_slice(),
            velocity.w.as_slice(),
            velocity.bv.as_slice(),
            velocity.bh.as_slice(),
        ]
        .concat()
        .iter()
        .map(|x| x.to_bits())
        .collect()
    }

    #[test]
    fn gradient_step_matches_the_dense_expressions_bit_for_bit() {
        let (m, n) = (37, 11);
        let trainer = CdTrainer::new(1, 0.05)
            .with_momentum(0.5)
            .with_weight_decay(1e-3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let binary = |rng: &mut rand::rngs::StdRng, rows, cols| {
            Array2::from_shape_fn((rows, cols), |_| f64::from(rng.random_bool(0.3)))
        };
        // Binary phases at batch sizes around the count and lane widths,
        // then gray data, then binary data with a single gray entry.
        let mut batches = Vec::new();
        for bs in [1, 5, 63, 64, 65, 130] {
            batches.push(binary(&mut rng, bs, m));
        }
        batches.push(Array2::from_shape_fn((9, m), |_| {
            f64::from(rng.random_range(0..=255u8)) / 255.0
        }));
        let mut one_gray = binary(&mut rng, 8, m);
        one_gray[[3, 17]] = 0.5;
        batches.push(one_gray);

        for batch in batches {
            let bs = batch.nrows();
            let mut got = Rbm::random(m, n, 0.1, &mut rng);
            let mut got_v = Velocity {
                w: Array2::from_shape_fn((m, n), |_| rng.random_range(-0.01..0.01)),
                bv: Array1::from_shape_fn(m, |_| rng.random_range(-0.01..0.01)),
                bh: Array1::from_shape_fn(n, |_| rng.random_range(-0.01..0.01)),
            };
            let (mut want, mut want_v) = (got.clone(), got_v.clone());
            // Two consecutive steps, so the second reads the first's
            // velocity.
            for _ in 0..2 {
                let phases = [
                    binary(&mut rng, bs, n),
                    binary(&mut rng, bs, m),
                    binary(&mut rng, bs, n),
                ];
                let (got_recon, got_norm) =
                    trainer.apply_gradients(&mut got, &batch, &phases, &mut got_v);
                let (want_recon, want_norm) =
                    dense_step(&trainer, &mut want, &batch, &phases, &mut want_v);
                assert_eq!(got_recon.to_bits(), want_recon.to_bits(), "recon, bs {bs}");
                assert_eq!(got_norm.to_bits(), want_norm.to_bits(), "norm, bs {bs}");
            }
            assert_eq!(
                state_bits(&got, &got_v),
                state_bits(&want, &want_v),
                "bs {bs}"
            );
        }
    }
}
