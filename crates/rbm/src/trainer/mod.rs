//! Software trainers for RBMs: CD-k (Algorithm 1), persistent CD, and the
//! exact maximum-likelihood reference.
//!
//! The CD and PCD trainers additionally run over any
//! [`ember_substrate::Substrate`] backend (`train_epoch_with`): the
//! learning loop stays on the host, the conditional sampling is
//! offloaded — the paper's §3.2 division of labor, with the substrate
//! freely swappable.
//!
//! Every CD and PCD epoch is the same minibatch loop (`epoch`): slice the
//! next batch, draw the phases, update the weights on the host, and
//! average the per-batch statistics. The entry points differ only in who
//! draws the phases, always on the caller's one RNG:
//!
//! * the host's exact conditionals (`train_epoch`, and `train` for
//!   several epochs);
//! * a substrate, re-programmed before every batch and clamped with the
//!   quantized data (`train_epoch_with`, and `train_with` for several
//!   epochs).
//!
//! Each trainer writes its chain once (`phases`), generic over the
//! half-step that draws one side given the other.
//!
//! The host's gradient step counts instead of multiplying when it can.
//! When the data and all three sampled phases are exactly binary, every
//! entry of `v⁺ᵀh⁺` and `v⁻ᵀh⁻` is a small integer co-count (`CoCounts`),
//! so the weight update is one fused pass over `W` (and the velocity)
//! that reads each gradient entry from a table of quotients, with no
//! weight-sized temporary. Gray data takes the dense products. Both
//! paths give the same bits.

mod cd;
mod ml;
mod pcd;

pub use cd::CdTrainer;
pub use ml::MlTrainer;
pub use pcd::PcdTrainer;

use ndarray::{s, Array2, ArrayView1};
use rand::Rng;
use serde::{Deserialize, Serialize};

use ember_substrate::{HardwareCounters, Side, Substrate};

use crate::Rbm;

/// Summary statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Number of minibatches processed.
    pub batches: usize,
    /// Mean absolute visible difference between the data and the final
    /// negative-phase sample (a cheap learning-progress proxy).
    pub reconstruction_error: f64,
    /// Mean L2 norm of the weight-gradient estimate per batch.
    pub gradient_norm: f64,
}

impl EpochStats {
    /// Aggregates per-batch `(reconstruction error, gradient norm)` pairs
    /// into epoch statistics.
    pub(crate) fn accumulate(stats: &[(f64, f64)]) -> EpochStats {
        let batches = stats.len();
        if batches == 0 {
            return EpochStats {
                batches: 0,
                reconstruction_error: 0.0,
                gradient_norm: 0.0,
            };
        }
        let recon = stats.iter().map(|s| s.0).sum::<f64>() / batches as f64;
        let grad = stats.iter().map(|s| s.1).sum::<f64>() / batches as f64;
        EpochStats {
            batches,
            reconstruction_error: recon,
            gradient_norm: grad,
        }
    }
}

/// One epoch: hands `step` each minibatch of `data` in order (a trailing
/// partial batch is used as-is), and averages the
/// `(reconstruction error, gradient norm)` pairs it returns.
///
/// # Panics
///
/// Panics if `data` width differs from the RBM's visible count or
/// `batch_size == 0`.
pub(crate) fn epoch(
    rbm: &mut Rbm,
    data: &Array2<f64>,
    batch_size: usize,
    mut step: impl FnMut(&mut Rbm, &Array2<f64>) -> (f64, f64),
) -> EpochStats {
    assert_eq!(data.ncols(), rbm.visible_len(), "data width mismatch");
    assert!(batch_size >= 1, "batch size must be positive");
    let rows = data.nrows();
    let mut stats = Vec::new();
    for start in (0..rows).step_by(batch_size) {
        let end = (start + batch_size).min(rows);
        let batch = data.slice(s![start..end, ..]).to_owned();
        stats.push(step(rbm, &batch));
    }
    EpochStats::accumulate(&stats)
}

/// Runs `f` once per epoch and returns the final epoch's statistics
/// (all zero when `epochs == 0`).
pub(crate) fn last_epoch(epochs: usize, mut f: impl FnMut() -> EpochStats) -> EpochStats {
    // A loop, not `(0..epochs).map(|_| f()).last()`: clippy rewrites that
    // to `.next_back()`, which would train only the final epoch.
    let mut last = EpochStats::accumulate(&[]);
    for _ in 0..epochs {
        last = f();
    }
    last
}

/// Asserts that `substrate` was fabricated at the RBM's size.
pub(crate) fn check_substrate<S: Substrate + ?Sized>(substrate: &S, rbm: &Rbm) {
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
}

/// §3.2 step 2: programs the host's current weights and biases.
pub(crate) fn program<S: Substrate + ?Sized>(substrate: &mut S, rbm: &Rbm) {
    substrate.program(
        &rbm.weights().view(),
        &rbm.visible_bias().view(),
        &rbm.hidden_bias().view(),
    );
}

/// The host's share of one offloaded minibatch: `positives` data rows
/// and `negatives` chains sampled, and the gradient accumulation
/// (`(positives + negatives)·m·n` MACs) plus the update (`m·n + m + n`).
pub(crate) fn count_minibatch(
    counters: &mut HardwareCounters,
    rbm: &Rbm,
    positives: usize,
    negatives: usize,
) {
    let (m, n) = rbm.weights().dim();
    counters.positive_samples += positives as u64;
    counters.negative_samples += negatives as u64;
    counters.host_mac_ops +=
        (positives + negatives) as u64 * (m * n) as u64 + (m * n + m + n) as u64;
}

/// Exact co-counts of a minibatch whose phases are all binary: the
/// entries of `v⁺ᵀh⁺` and `v⁻ᵀh⁻`, one visible unit at a time.
///
/// Each entry is a sum of products of 0/1 values. That is a small
/// integer, which `f64` holds exactly in any summation order, so the
/// counts equal the dense GEMMs' outputs bit for bit, and a gradient
/// computed from them (`(a − b)/bs`, or `a/bs − b/p`) keeps every bit
/// of the dense step without materializing either product.
pub(crate) struct CoCounts<'a> {
    v_pos: &'a Array2<f64>,
    v_neg: &'a Array2<f64>,
    /// `h⁺` and `h⁻`, row-major, as `u16` 0/1 values.
    h_pos: Vec<u16>,
    h_neg: Vec<u16>,
    /// The last unit's counts (see [`CoCounts::row`]).
    pos: Vec<u16>,
    neg: Vec<u16>,
}

impl<'a> CoCounts<'a> {
    /// `None` unless `v⁺`, `h⁺`, `v⁻` and `h⁻` hold only bitwise `+0.0`
    /// and `1.0`, and both row counts fit in `u16`. Then only the dense
    /// products serve (gray DTC data, or a hostile value).
    pub(crate) fn of(phases: [&'a Array2<f64>; 4]) -> Option<Self> {
        let [v_pos, h_pos, v_neg, h_neg] = phases;
        let fits = |a: &Array2<f64>| a.nrows() <= usize::from(u16::MAX);
        if !(fits(v_pos) && fits(v_neg) && phases.iter().all(|a| binary(a))) {
            return None;
        }
        let bits = |h: &Array2<f64>| h.iter().map(|&x| u16::from(x == 1.0)).collect();
        Some(CoCounts {
            v_pos,
            v_neg,
            h_pos: bits(h_pos),
            h_neg: bits(h_neg),
            pos: vec![0; h_pos.ncols()],
            neg: vec![0; h_pos.ncols()],
        })
    }

    /// Visible unit `i`'s counts `(a, b)`, with `a[j] = Σ_r v⁺[r,i]·h⁺[r,j]`
    /// and `b[j] = Σ_r v⁻[r,i]·h⁻[r,j]`.
    pub(crate) fn row(&mut self, i: usize) -> (&[u16], &[u16]) {
        sum_selected(&mut self.pos, self.v_pos.column(i), &self.h_pos);
        sum_selected(&mut self.neg, self.v_neg.column(i), &self.h_neg);
        (&self.pos, &self.neg)
    }
}

/// Whether every entry of `a` is bitwise `+0.0` or `1.0`.
fn binary(a: &Array2<f64>) -> bool {
    // A fold rather than `all`: without the early exit it vectorizes.
    a.iter().fold(true, |binary, &x| {
        binary & ((x.to_bits() == 0) | (x == 1.0))
    })
}

/// Sets `acc` to the sum of the `u16` rows of `h` that the binary
/// `select` picks.
fn sum_selected(acc: &mut [u16], select: ArrayView1<'_, f64>, h: &[u16]) {
    acc.fill(0);
    for (&s, h) in select.iter().zip(h.chunks_exact(acc.len().max(1))) {
        if s == 1.0 {
            for (a, &h) in acc.iter_mut().zip(h) {
                *a += h;
            }
        }
    }
}

/// The host's exact half-step: samples `side` of every row given the
/// other side clamped to `x`, from the RBM's conditionals.
pub(crate) fn exact_half<R: Rng + ?Sized>(
    rbm: &Rbm,
    side: Side,
    x: &Array2<f64>,
    rng: &mut R,
) -> Array2<f64> {
    let probs = match side {
        Side::Hidden => rbm.hidden_probs_batch(x),
        Side::Visible => rbm.visible_probs_batch(x),
    };
    Rbm::sample_batch(&probs, rng)
}

/// `k ≥ 1` full Gibbs steps from the hidden state `h`: `k` rounds of a
/// visible then a hidden half-step `half(side, clamp)`. Returns the
/// final `[v, h]`.
pub(crate) fn gibbs_steps(
    k: usize,
    h: &Array2<f64>,
    mut half: impl FnMut(Side, &Array2<f64>) -> Array2<f64>,
) -> [Array2<f64>; 2] {
    let mut v = half(Side::Visible, h);
    let mut h = half(Side::Hidden, &v);
    for _ in 1..k {
        v = half(Side::Visible, &h);
        h = half(Side::Hidden, &v);
    }
    [v, h]
}
