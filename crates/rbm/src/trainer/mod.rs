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
//! entry of `v⁺ᵀh⁺` and `v⁻ᵀh⁻` is a small integer co-count (`CoCounts`).
//! A visible unit's counts add the `u16` rows of `h` that the unit's
//! bitmask of minibatch rows selects (one `u64` per 64 rows), and its
//! row of `W` reads each gradient entry from a table of quotients, with
//! no weight-sized temporary. Gray data takes the dense products. Both
//! paths give the same bits.
//!
//! Each row of `W` then takes two passes. The first adds the squares of
//! the row's gradient entries to one chain of dependent adds, in
//! row-major order, whose square root is `EpochStats::gradient_norm`.
//! Only that order gives the dense step's bits, so the chain stays
//! serial: it is the step's floor, ~0.11 ms of a ~0.23 ms step per
//! 784×200 minibatch of 16 rows on a 2-vCPU x86-64 host. The second
//! pass updates the row, with no carried dependency, so it vectorizes.
//!
//! `CdTrainer` keeps a weight-sized velocity only when its momentum is
//! non-zero: one per `train`/`train_with` call, at rest when each epoch
//! starts. At momentum 0 (plain Algorithm 1, and every training request
//! the service runs) the `W` update adds `u = (g − λ·w)·α` itself, which
//! is the velocity form `0·v + u` bit for bit (see `CdTrainer::update`).
//! The bias velocities (`m + n` values) serve every momentum.

mod cd;
mod ml;
mod pcd;

pub use cd::CdTrainer;
pub use ml::MlTrainer;
pub use pcd::PcdTrainer;

use std::borrow::Cow;

use ndarray::{s, Array2};
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

/// §3.2 step 3: the minibatch as the substrate's clamp units drive it.
/// An exactly binary batch (bitwise `+0.0` and `1.0`) is clamped as it
/// is, without the copy and scan of `quantize_batch`, which is the
/// identity there by contract.
pub(crate) fn clamped_batch<'a, S: Substrate + ?Sized>(
    substrate: &S,
    batch: &'a Array2<f64>,
) -> Cow<'a, Array2<f64>> {
    if binary(batch) {
        Cow::Borrowed(batch)
    } else {
        Cow::Owned(substrate.quantize_batch(batch))
    }
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
///
/// A unit's count is the sum of the `u16` rows of `h` whose `v` row
/// holds a 1 at the unit. Those rows are a bitmask per unit, one `u64`
/// per 64 rows (one code path for any row count), built in one
/// row-major pass over `v`, so a unit's count visits only its selecting
/// rows instead of a strided column of every row.
pub(crate) struct CoCounts {
    pos: Selection,
    neg: Selection,
}

impl CoCounts {
    /// `None` unless `v⁺`, `h⁺`, `v⁻` and `h⁻` hold only bitwise `+0.0`
    /// and `1.0`, and both row counts fit in `u16`. Then only the dense
    /// products serve (gray DTC data, or a hostile value).
    pub(crate) fn of(phases: [&Array2<f64>; 4]) -> Option<Self> {
        let [v_pos, h_pos, v_neg, h_neg] = phases;
        let fits = |a: &Array2<f64>| a.nrows() <= usize::from(u16::MAX);
        if !(fits(v_pos) && fits(v_neg) && phases.iter().all(|a| binary(a))) {
            return None;
        }
        Some(CoCounts {
            pos: Selection::new(v_pos, h_pos),
            neg: Selection::new(v_neg, h_neg),
        })
    }

    /// The gradient step on `weights`, one row (visible unit `i`) at a
    /// time: `gradient(a, b)` maps a pair of counts, `a = Σ_r v⁺[r,i]·h⁺[r,j]`
    /// and `b = Σ_r v⁻[r,i]·h⁻[r,j]`, to its gradient entry, and
    /// `update(i, row, grad)` applies row `i`'s gradient to the row.
    /// Returns the gradient's L2 norm.
    ///
    /// The squares join one ordered chain, row-major from `-0.0` as
    /// `Sum for f64` adds them, so the norm keeps the dense step's bits;
    /// those dependent adds are the step's floor. The update is a pass
    /// of its own beside the chain, with no carried dependency, so it
    /// vectorizes.
    pub(crate) fn step(
        mut self,
        weights: &mut Array2<f64>,
        gradient: impl Fn(u16, u16) -> f64,
        mut update: impl FnMut(usize, &mut [f64], &[f64]),
    ) -> f64 {
        let n = weights.ncols();
        let mut grad = vec![0.0; n];
        let mut sum_sq = -0.0;
        // `max(1)`: `chunks_exact_mut` needs a nonzero width.
        let rows = weights.as_mut_slice().chunks_exact_mut(n.max(1));
        for (i, row) in rows.enumerate() {
            let (a, b) = (self.pos.unit(i), self.neg.unit(i));
            sum_sq = gradient_row(sum_sq, &mut grad, a, b, &gradient);
            update(i, row, &grad);
        }
        sum_sq.sqrt()
    }
}

/// Fills `grad` with `gradient(a[j], b[j])` and returns `sum_sq` plus
/// their squares, added in order.
///
/// Out of line so that the chain's accumulator stays in a register:
/// inlined into [`CoCounts::step`], whose row loop keeps many values
/// live across calls, it was kept on the stack, and each of the chain's
/// dependent adds waited on a store and a reload (the step took about
/// twice as long at 784×200).
#[inline(never)]
fn gradient_row(
    mut sum_sq: f64,
    grad: &mut [f64],
    a: &[u16],
    b: &[u16],
    gradient: &impl Fn(u16, u16) -> f64,
) -> f64 {
    for ((g, &a), &b) in grad.iter_mut().zip(a).zip(b) {
        *g = gradient(a, b);
        sum_sq += *g * *g;
    }
    sum_sq
}

/// One phase pair `(v, h)` as [`CoCounts`] reads it.
struct Selection {
    /// Visible units per row of `v`.
    units: usize,
    /// Bit `r` of word `w · units + i` is set when row `64·w + r` of `v`
    /// holds a 1 at unit `i`.
    masks: Vec<u64>,
    /// `h`, row-major, as `u16` 0/1 values.
    h: Vec<u16>,
    /// The last unit's counts (see [`Selection::unit`]).
    counts: Vec<u16>,
}

impl Selection {
    fn new(v: &Array2<f64>, h: &Array2<f64>) -> Self {
        let units = v.ncols();
        let mut masks = vec![0; v.nrows().div_ceil(64) * units];
        for (r, row) in v.as_slice().chunks_exact(units.max(1)).enumerate() {
            let word = &mut masks[r / 64 * units..][..units];
            for (mask, &x) in word.iter_mut().zip(row) {
                *mask |= u64::from(x == 1.0) << (r % 64);
            }
        }
        Selection {
            units,
            masks,
            h: h.iter().map(|&x| u16::from(x == 1.0)).collect(),
            counts: vec![0; h.ncols()],
        }
    }

    /// Unit `i`'s counts: the sum of the rows of `h` that it selects.
    fn unit(&mut self, i: usize) -> &[u16] {
        let n = self.counts.len();
        self.counts.fill(0);
        for (w, &mask) in self.masks.iter().skip(i).step_by(self.units).enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let r = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (c, &h) in self.counts.iter_mut().zip(&self.h[r * n..][..n]) {
                    *c += h;
                }
            }
        }
        &self.counts
    }
}

/// Whether every entry of `a` is bitwise `+0.0` or `1.0`.
fn binary(a: &Array2<f64>) -> bool {
    // A fold rather than `all`: without the early exit it vectorizes.
    a.iter().fold(true, |binary, &x| {
        binary & ((x.to_bits() == 0) | (x == 1.0))
    })
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
