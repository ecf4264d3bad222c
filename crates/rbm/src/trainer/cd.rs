use ndarray::{Array1, Array2, Axis};
use rand::{Rng, RngCore};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use ember_substrate::{HardwareCounters, Substrate};

use crate::gibbs;
use crate::trainer::{chunk_ranges, EpochStats};
use crate::{Rbm, RngStreams};

/// Per-replica result of one sharded minibatch chunk:
/// `(row offset, h⁺, v⁻, h⁻, replica counters)`.
type ChunkResult = (
    usize,
    Array2<f64>,
    Array2<f64>,
    Array2<f64>,
    HardwareCounters,
);

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
        assert_eq!(data.ncols(), rbm.visible_len(), "data width mismatch");
        assert!(batch_size >= 1, "batch size must be positive");
        let mut velocity_w = Array2::<f64>::zeros(rbm.weights().dim());
        let mut velocity_bv = Array1::<f64>::zeros(rbm.visible_len());
        let mut velocity_bh = Array1::<f64>::zeros(rbm.hidden_len());
        let mut stats = Vec::new();

        let rows = data.nrows();
        let mut start = 0;
        while start < rows {
            let end = (start + batch_size).min(rows);
            let batch = data.slice(ndarray::s![start..end, ..]).to_owned();
            let (recon, grad) = self.train_batch(
                rbm,
                &batch,
                &mut velocity_w,
                &mut velocity_bv,
                &mut velocity_bh,
                rng,
            );
            stats.push((recon, grad));
            start = end;
        }
        EpochStats::accumulate(&stats)
    }

    /// One minibatch update (lines 8–19 of Algorithm 1). Returns
    /// `(reconstruction error, gradient norm)`.
    fn train_batch<R: Rng + ?Sized>(
        &self,
        rbm: &mut Rbm,
        batch: &Array2<f64>,
        velocity_w: &mut Array2<f64>,
        velocity_bv: &mut Array1<f64>,
        velocity_bh: &mut Array1<f64>,
        rng: &mut R,
    ) -> (f64, f64) {
        // Positive phase.
        let h_pos = Rbm::sample_batch(&rbm.hidden_probs_batch(batch), rng);
        // Negative phase: k alternating Gibbs half-steps from h_pos.
        let mut h_neg = h_pos.clone();
        let mut v_neg = batch.clone();
        for _ in 0..self.k {
            v_neg = Rbm::sample_batch(&rbm.visible_probs_batch(&h_neg), rng);
            h_neg = Rbm::sample_batch(&rbm.hidden_probs_batch(&v_neg), rng);
        }
        self.apply_gradients(
            rbm,
            batch,
            &h_pos,
            &v_neg,
            &h_neg,
            velocity_w,
            velocity_bv,
            velocity_bh,
        )
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
        assert_eq!(data.ncols(), rbm.visible_len(), "data width mismatch");
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
        assert!(batch_size >= 1, "batch size must be positive");
        let mut rng = rng;
        let rng: &mut dyn RngCore = &mut rng;
        let (m, n) = rbm.weights().dim();
        let mut velocity_w = Array2::<f64>::zeros((m, n));
        let mut velocity_bv = Array1::<f64>::zeros(m);
        let mut velocity_bh = Array1::<f64>::zeros(n);
        let mut stats = Vec::new();

        let rows = data.nrows();
        let mut start = 0;
        while start < rows {
            let end = (start + batch_size).min(rows);
            let batch = data.slice(ndarray::s![start..end, ..]).to_owned();
            substrate.program(
                &rbm.weights().view(),
                &rbm.visible_bias().view(),
                &rbm.hidden_bias().view(),
            );
            let clamped = substrate.quantize_batch(&batch);
            let h_pos = substrate.sample_hidden_batch(&clamped, rng);
            let mut h_neg = h_pos.clone();
            let mut v_neg = batch.clone();
            for _ in 0..self.k {
                v_neg = substrate.sample_visible_batch(&h_neg, rng);
                h_neg = substrate.sample_hidden_batch(&v_neg, rng);
            }
            let bs = batch.nrows() as u64;
            let counters = substrate.counters_mut();
            counters.positive_samples += bs;
            counters.negative_samples += bs;
            counters.host_mac_ops += bs * 2 * (m * n) as u64 + (m * n + m + n) as u64;

            stats.push(self.apply_gradients(
                rbm,
                &batch,
                &h_pos,
                &v_neg,
                &h_neg,
                &mut velocity_w,
                &mut velocity_bv,
                &mut velocity_bh,
            ));
            start = end;
        }
        EpochStats::accumulate(&stats)
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
        let mut last = EpochStats {
            batches: 0,
            reconstruction_error: 0.0,
            gradient_norm: 0.0,
        };
        for _ in 0..epochs {
            last = self.train_epoch_with(rbm, data, batch_size, substrate, rng);
        }
        last
    }

    /// Parallel substrate epoch: each minibatch's rows are sharded into
    /// `replicas` contiguous chunks, each chunk driven through its own
    /// **clone** of the substrate (an ensemble of identically-programmed
    /// machines, as a multi-instance deployment would be) on its own RNG
    /// stream. Results depend on `replicas` but are **bit-identical at
    /// every thread count** for a fixed master seed. Per-replica
    /// hardware counters are merged back into `substrate`.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`CdTrainer::train_epoch_with`],
    /// or if `replicas == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn train_epoch_par_with<S>(
        &self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        substrate: &mut S,
        replicas: usize,
        streams: RngStreams,
    ) -> EpochStats
    where
        S: Substrate + Clone + Send + Sync,
    {
        assert_eq!(data.ncols(), rbm.visible_len(), "data width mismatch");
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
        assert!(batch_size >= 1, "batch size must be positive");
        assert!(replicas >= 1, "need at least one substrate replica");
        let (m, n) = rbm.weights().dim();
        let mut velocity_w = Array2::<f64>::zeros((m, n));
        let mut velocity_bv = Array1::<f64>::zeros(m);
        let mut velocity_bh = Array1::<f64>::zeros(n);
        let mut stats = Vec::new();

        let rows = data.nrows();
        let (mut start, mut batch_index) = (0, 0u64);
        while start < rows {
            let end = (start + batch_size).min(rows);
            let batch = data.slice(ndarray::s![start..end, ..]).to_owned();
            substrate.program(
                &rbm.weights().view(),
                &rbm.visible_bias().view(),
                &rbm.hidden_bias().view(),
            );
            let clamped = substrate.quantize_batch(&batch);
            let batch_streams = streams.subfamily(batch_index);
            let k = self.k;
            let sub = &*substrate;

            let work: Vec<(usize, usize, usize)> = chunk_ranges(batch.nrows(), replicas)
                .into_iter()
                .enumerate()
                .filter(|&(_, (s, e))| e > s)
                .map(|(c, (s, e))| (c, s, e))
                .collect();
            let chunks: Vec<ChunkResult> = work
                .into_par_iter()
                .map(|(c, s, e)| {
                    let mut replica = sub.clone();
                    *replica.counters_mut() = HardwareCounters::new();
                    let mut rng = batch_streams.rng(c as u64);
                    let rng: &mut dyn RngCore = &mut rng;
                    let chunk_clamped = clamped.slice(ndarray::s![s..e, ..]).to_owned();
                    let h_pos = replica.sample_hidden_batch(&chunk_clamped, rng);
                    let mut h_neg = h_pos.clone();
                    let mut v_neg = batch.slice(ndarray::s![s..e, ..]).to_owned();
                    for _ in 0..k {
                        v_neg = replica.sample_visible_batch(&h_neg, rng);
                        h_neg = replica.sample_hidden_batch(&v_neg, rng);
                    }
                    (s, h_pos, v_neg, h_neg, *replica.counters())
                })
                .collect();

            let mut h_pos = Array2::zeros((batch.nrows(), n));
            let mut v_neg = Array2::zeros((batch.nrows(), m));
            let mut h_neg = Array2::zeros((batch.nrows(), n));
            for (s, hp, vn, hn, counters) in chunks {
                for i in 0..hp.nrows() {
                    h_pos.row_mut(s + i).assign(&hp.row(i));
                    v_neg.row_mut(s + i).assign(&vn.row(i));
                    h_neg.row_mut(s + i).assign(&hn.row(i));
                }
                substrate.counters_mut().merge(&counters);
            }
            let bs = batch.nrows() as u64;
            let counters = substrate.counters_mut();
            counters.positive_samples += bs;
            counters.negative_samples += bs;
            counters.host_mac_ops += bs * 2 * (m * n) as u64 + (m * n + m + n) as u64;

            stats.push(self.apply_gradients(
                rbm,
                &batch,
                &h_pos,
                &v_neg,
                &h_neg,
                &mut velocity_w,
                &mut velocity_bv,
                &mut velocity_bh,
            ));
            start = end;
            batch_index += 1;
        }
        EpochStats::accumulate(&stats)
    }

    /// Shared host-side gradient step (lines 17–19 of Algorithm 1 with
    /// momentum and weight decay): the common tail of every CD variant.
    #[allow(clippy::too_many_arguments)]
    fn apply_gradients(
        &self,
        rbm: &mut Rbm,
        batch: &Array2<f64>,
        h_pos: &Array2<f64>,
        v_neg: &Array2<f64>,
        h_neg: &Array2<f64>,
        velocity_w: &mut Array2<f64>,
        velocity_bv: &mut Array1<f64>,
        velocity_bh: &mut Array1<f64>,
    ) -> (f64, f64) {
        let bs = batch.nrows() as f64;
        let grad_w = (batch.t().dot(h_pos) - v_neg.t().dot(h_neg)) / bs;
        let grad_bv = (batch.sum_axis(Axis(0)) - v_neg.sum_axis(Axis(0))) / bs;
        let grad_bh = (h_pos.sum_axis(Axis(0)) - h_neg.sum_axis(Axis(0))) / bs;
        let grad_norm = grad_w.iter().map(|g| g * g).sum::<f64>().sqrt();

        // In place: weight-sized temporaries page-fault on every
        // training request. Each element's operations keep their order.
        for ((v, &g), &w) in velocity_w
            .iter_mut()
            .zip(grad_w.iter())
            .zip(rbm.weights().iter())
        {
            *v = *v * self.momentum + (g - w * self.weight_decay) * self.learning_rate;
        }
        *velocity_bv = &*velocity_bv * self.momentum + &grad_bv * self.learning_rate;
        *velocity_bh = &*velocity_bh * self.momentum + &grad_bh * self.learning_rate;

        *rbm.weights_mut() += &*velocity_w;
        *rbm.visible_bias_mut() += &*velocity_bv;
        *rbm.hidden_bias_mut() += &*velocity_bh;

        let recon = (v_neg - batch).mapv(f64::abs).mean().unwrap_or(0.0);
        (recon, grad_norm)
    }

    /// Parallel epoch: the per-row positive/negative phases of every
    /// minibatch run across the rayon pool, each row on its own RNG
    /// stream (`streams.subfamily(batch).rng(row)`), so the trained model
    /// is **bit-identical at every thread count** for a fixed master
    /// seed. Gradients are accumulated with the same batched GEMM
    /// formulation as the serial path.
    ///
    /// The streams are consumed deterministically per call: training for
    /// several epochs must pass a **distinct subfamily per epoch**
    /// (`streams.subfamily(epoch)`) — or use [`CdTrainer::train_par`],
    /// which does so — otherwise every epoch replays the identical
    /// sampling noise and the gradient noise never averages out.
    ///
    /// # Panics
    ///
    /// Panics if `data` width differs from the RBM's visible count or
    /// `batch_size == 0`.
    pub fn train_epoch_par(
        &self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        streams: RngStreams,
    ) -> EpochStats {
        assert_eq!(data.ncols(), rbm.visible_len(), "data width mismatch");
        assert!(batch_size >= 1, "batch size must be positive");
        let mut velocity_w = Array2::<f64>::zeros(rbm.weights().dim());
        let mut velocity_bv = Array1::<f64>::zeros(rbm.visible_len());
        let mut velocity_bh = Array1::<f64>::zeros(rbm.hidden_len());
        let mut stats = Vec::new();

        let rows = data.nrows();
        let (mut start, mut batch_index) = (0, 0u64);
        while start < rows {
            let end = (start + batch_size).min(rows);
            let batch = data.slice(ndarray::s![start..end, ..]).to_owned();
            let batch_streams = streams.subfamily(batch_index);

            // Fan the rows out: each is an independent chain on its own
            // stream.
            let chains: Vec<(Array1<f64>, Array1<f64>, Array1<f64>)> = batch
                .rows()
                .map(|r| r.to_owned())
                .enumerate()
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|(i, v_pos)| {
                    let mut rng = batch_streams.rng(i as u64);
                    let h_pos = rbm.sample_hidden(&v_pos.view(), &mut rng);
                    let mut h_neg = h_pos.clone();
                    let mut v_neg = v_pos;
                    for _ in 0..self.k {
                        v_neg = rbm.sample_visible(&h_neg.view(), &mut rng);
                        h_neg = rbm.sample_hidden(&v_neg.view(), &mut rng);
                    }
                    (h_pos, v_neg, h_neg)
                })
                .collect();

            let n = rbm.hidden_len();
            let m = rbm.visible_len();
            let mut h_pos_rows = Vec::with_capacity(chains.len());
            let mut v_neg_rows = Vec::with_capacity(chains.len());
            let mut h_neg_rows = Vec::with_capacity(chains.len());
            for (h_pos, v_neg, h_neg) in chains {
                h_pos_rows.push(h_pos);
                v_neg_rows.push(v_neg);
                h_neg_rows.push(h_neg);
            }
            let h_pos = gibbs::stack_rows(h_pos_rows, n);
            let v_neg = gibbs::stack_rows(v_neg_rows, m);
            let h_neg = gibbs::stack_rows(h_neg_rows, n);

            // Same batched GEMM gradient as the serial path.
            stats.push(self.apply_gradients(
                rbm,
                &batch,
                &h_pos,
                &v_neg,
                &h_neg,
                &mut velocity_w,
                &mut velocity_bv,
                &mut velocity_bh,
            ));
            start = end;
            batch_index += 1;
        }
        EpochStats::accumulate(&stats)
    }

    /// Parallel full training run: `epochs` epochs of
    /// [`CdTrainer::train_epoch_par`], each on its own stream subfamily
    /// (`streams.subfamily(epoch)`) so sampling noise is independent
    /// across epochs. Returns the final epoch's statistics.
    pub fn train_par(
        &self,
        rbm: &mut Rbm,
        data: &Array2<f64>,
        batch_size: usize,
        epochs: usize,
        streams: RngStreams,
    ) -> EpochStats {
        let mut last = EpochStats {
            batches: 0,
            reconstruction_error: 0.0,
            gradient_norm: 0.0,
        };
        for epoch in 0..epochs {
            last = self.train_epoch_par(rbm, data, batch_size, streams.subfamily(epoch as u64));
        }
        last
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
        let mut last = EpochStats {
            batches: 0,
            reconstruction_error: 0.0,
            gradient_norm: 0.0,
        };
        for _ in 0..epochs {
            last = self.train_epoch(rbm, data, batch_size, rng);
        }
        last
    }

    /// Draws the negative-phase sample for external use (the piece the GS
    /// architecture offloads to the substrate).
    pub fn negative_phase<R: Rng + ?Sized>(
        &self,
        rbm: &Rbm,
        v0: &Array1<f64>,
        rng: &mut R,
    ) -> (Array1<f64>, Array1<f64>) {
        gibbs::chain(rbm, v0, self.k, rng)
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
}
