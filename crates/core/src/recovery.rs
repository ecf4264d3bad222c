//! Detection and recovery policy for substrate faults.
//!
//! The analog substrate's weights are *volatile* — gate charges that are
//! re-programmed every minibatch (§3.2) — so the recovery discipline for
//! any [`SubstrateFault`] is always **reprogram, then retry**: whatever
//! upset broke the read may also have disturbed the couplings, and
//! reprogramming costs only one host→substrate transfer (already the
//! per-minibatch steady state).
//!
//! This module supplies the policy half of that discipline:
//!
//! * [`RetryPolicy`] — bounded retries with exponential backoff and
//!   deterministic jitter drawn from the caller's RNG lane (the same
//!   `RngStreams` family that seeds the sampling chains), so a retry
//!   schedule replays exactly under a fixed master seed.
//! * [`screen_samples`] — the host-side sanity screen over a sampled
//!   batch: binary substrates contractually return hard `{0, 1}`
//!   read-outs, so any non-finite or non-binary cell is evidence of a
//!   corrupted read (comparator latched mid-rail) and is converted into
//!   a typed [`SubstrateFault::CorruptSamples`].
//! * [`verify_programming`] — compares [`couplings_checksum`] of the
//!   intended programming image (re-exported from `ember_substrate`,
//!   which owns the readback seam) against
//!   [`Substrate::programmed_checksum`] readback (when the backend
//!   offers one) to catch stuck-at weight bits that a "successful"
//!   transfer silently realized.
//!
//! [`Substrate::programmed_checksum`]: ember_substrate::Substrate::programmed_checksum

use std::time::Duration;

use ndarray::{Array2, ArrayView1, ArrayView2};
use rand::{Rng, RngCore};

pub use ember_substrate::couplings_checksum;
use ember_substrate::SubstrateFault;

/// Bounded exponential-backoff retry schedule for substrate faults.
///
/// `backoff(attempt, rng)` yields the pause before retry `attempt`
/// (1-indexed): `base_backoff × multiplier^(attempt−1)`, capped at
/// `max_backoff`, then scaled by a jitter factor drawn uniformly from
/// `[0.5, 1.0)` off the supplied RNG. Callers pass a lane of the
/// request's `RngStreams` family, which makes the whole fault-recovery
/// timeline — like the samples themselves — a pure function of the
/// master seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries attempted after the initial try before giving up
    /// (`0` disables recovery).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Growth factor between consecutive backoffs.
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three retries at 500 µs/1 ms/2 ms (pre-jitter) — generous
    /// against transient upsets yet bounded well under a typical
    /// request deadline.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(500),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first fault is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Replaces the retry budget.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Replaces the backoff curve (`base × multiplier^k`, capped at
    /// `max`).
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, multiplier: f64, max: Duration) -> Self {
        self.base_backoff = base;
        self.multiplier = multiplier;
        self.max_backoff = max;
        self
    }

    /// The jittered pause before retry `attempt` (1-indexed).
    ///
    /// Deterministic given the RNG state: jitter scales the capped
    /// exponential delay by a uniform draw from `[0.5, 1.0)`.
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is `0` — attempt numbering starts at the
    /// first *retry*.
    pub fn backoff(&self, attempt: u32, rng: &mut dyn RngCore) -> Duration {
        assert!(attempt >= 1, "backoff is for retries; attempts start at 1");
        let exp = self.multiplier.powi(attempt as i32 - 1);
        let raw = self.base_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        let jitter = 0.5 + 0.5 * rng.random::<f64>();
        Duration::from_secs_f64(capped * jitter)
    }
}

/// Host-side sanity screen over a sampled batch: every cell must be a
/// hard binary `0.0` or `1.0`.
///
/// The substrates' read-out contract is comparator-latched binary
/// states; a NaN, infinity, or mid-rail value can only come from a
/// corrupted read. Returns the offending coordinate in the fault
/// message so logs localize the bad comparator column.
pub fn screen_samples(batch: &Array2<f64>) -> Result<(), SubstrateFault> {
    let (_, cols) = batch.dim();
    for (flat, &x) in batch.iter().enumerate() {
        if !(x == 0.0 || x == 1.0) {
            let (i, j) = (flat / cols.max(1), flat % cols.max(1));
            return Err(SubstrateFault::CorruptSamples(format!(
                "non-binary cell {x:?} at ({i}, {j})"
            )));
        }
    }
    Ok(())
}

/// Verifies a programming against the substrate's readback, when the
/// backend offers one.
///
/// Backends without readback (`programmed_checksum() == None` — all
/// the real models, which would have to pay an ADC sweep) verify
/// vacuously: the screen costs nothing on the hot path. Backends with
/// readback (the chaos wrapper, future calibration harnesses) get
/// stuck-at corruption converted into a typed
/// [`SubstrateFault::Readback`].
pub fn verify_programming<S: ember_substrate::Substrate + ?Sized>(
    substrate: &S,
    weights: &ArrayView2<'_, f64>,
    visible_bias: &ArrayView1<'_, f64>,
    hidden_bias: &ArrayView1<'_, f64>,
) -> Result<(), SubstrateFault> {
    let Some(actual) = substrate.programmed_checksum() else {
        return Ok(());
    };
    let expected = couplings_checksum(weights, visible_bias, hidden_bias);
    if expected == actual {
        Ok(())
    } else {
        Err(SubstrateFault::Readback { expected, actual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndarray::{arr1, arr2, Array1};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy::default().with_backoff(
            Duration::from_millis(1),
            2.0,
            Duration::from_millis(3),
        );
        // Jitter is in [0.5, 1.0): bound each attempt from both sides.
        let mut rng = StdRng::seed_from_u64(0);
        let b1 = policy.backoff(1, &mut rng);
        let b2 = policy.backoff(2, &mut rng);
        let b3 = policy.backoff(3, &mut rng);
        assert!(b1 >= Duration::from_micros(500) && b1 < Duration::from_millis(1));
        assert!(b2 >= Duration::from_millis(1) && b2 < Duration::from_millis(2));
        // 4 ms raw is capped at 3 ms before jitter.
        assert!(b3 >= Duration::from_micros(1500) && b3 < Duration::from_millis(3));
    }

    #[test]
    fn backoff_is_deterministic_per_rng_seed() {
        let policy = RetryPolicy::default();
        let schedule = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (1..=3)
                .map(|a| policy.backoff(a, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
    }

    #[test]
    #[should_panic(expected = "attempts start at 1")]
    fn backoff_rejects_attempt_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = RetryPolicy::default().backoff(0, &mut rng);
    }

    #[test]
    fn screen_accepts_binary_and_localizes_corruption() {
        assert!(screen_samples(&arr2(&[[0.0, 1.0], [1.0, 0.0]])).is_ok());
        let err = screen_samples(&arr2(&[[0.0, 1.0], [0.5, 0.0]])).unwrap_err();
        assert!(matches!(err, SubstrateFault::CorruptSamples(_)));
        assert!(err.to_string().contains("(1, 0)"));
        let nan = screen_samples(&arr2(&[[f64::NAN]])).unwrap_err();
        assert!(matches!(nan, SubstrateFault::CorruptSamples(_)));
    }

    #[test]
    fn checksum_distinguishes_images_and_matches_chaos_readback() {
        let w = arr2(&[[0.1, 0.2], [0.3, 0.4]]);
        let bv = arr1(&[0.0, 0.0]);
        let bh = arr1(&[0.5, -0.5]);
        let a = couplings_checksum(&w.view(), &bv.view(), &bh.view());
        let mut w2 = w.clone();
        w2[[1, 1]] = 0.0;
        let b = couplings_checksum(&w2.view(), &bv.view(), &bh.view());
        assert_ne!(a, b);
        // Same image, same digest — and the ChaosSubstrate readback
        // agrees, closing the verification loop.
        assert_eq!(a, couplings_checksum(&w.view(), &bv.view(), &bh.view()));
        let inner: Box<dyn ember_substrate::ReplicableSubstrate> =
            crate::substrate::SubstrateSpec::software(crate::GsConfig::default()).fabricate(
                2,
                2,
                &mut StdRng::seed_from_u64(0),
            );
        let mut chaotic =
            ember_substrate::ChaosSubstrate::new(inner, ember_substrate::ChaosConfig::new(1));
        ember_substrate::Substrate::program(&mut chaotic, &w.view(), &bv.view(), &bh.view());
        assert_eq!(
            ember_substrate::Substrate::programmed_checksum(&chaotic),
            Some(a)
        );
        assert!(verify_programming(&chaotic, &w.view(), &bv.view(), &bh.view()).is_ok());
        // Readback of a *different* intended image is a typed fault.
        let err = verify_programming(&chaotic, &w2.view(), &bv.view(), &bh.view()).unwrap_err();
        assert!(matches!(err, SubstrateFault::Readback { .. }));
    }

    #[test]
    fn verification_is_vacuous_without_readback() {
        let plain = crate::substrate::SoftwareGibbs::new(
            2,
            2,
            &crate::GsConfig::default(),
            &mut StdRng::seed_from_u64(0),
        );
        let w = Array2::zeros((2, 2));
        let b = Array1::zeros(2);
        assert_eq!(
            ember_substrate::Substrate::programmed_checksum(&plain),
            None
        );
        assert!(verify_programming(&plain, &w.view(), &b.view(), &b.view()).is_ok());
    }
}
