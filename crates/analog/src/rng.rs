use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::{AnalogError, VCM};

/// Behavioral model of the thermal-noise random number generator of
/// Fig. 13(b).
///
/// Two diodes generate thermal noise which a variable-gain amplifier, biased
/// at `Vcm = Vdd/2`, amplifies to a random voltage in
/// `[Vcm − A·V_noise, Vcm + A·V_noise]` (Appendix B.3). Physically the
/// amplified noise is Gaussian-ish but the amplifier saturates at the design
/// swing; we model it as a Gaussian clipped to the swing, which for the
/// default configuration is indistinguishable from the uniform reference
/// distribution closely enough for Bernoulli sampling (validated in tests
/// against exact probabilities).
///
/// The `swing` parameter is `A·V_noise` in normalized volts; `0.5` spans the
/// full `[0, 1]` range, which is what the probabilistic node sampling needs:
/// comparing a probability `p ∈ [0, 1]` against a uniform `[0, 1]` reference
/// yields a Bernoulli(`p`) sample.
///
/// # Example
///
/// ```
/// use ember_analog::ThermalRng;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let noise = ThermalRng::new(0.5);
/// let v = noise.sample_voltage(&mut rng);
/// assert!((0.0..=1.0).contains(&v));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalRng {
    swing: f64,
    gaussian_fraction: f64,
}

impl ThermalRng {
    /// Creates an RNG with the given swing `A·V_noise` (in normalized volts)
    /// and a purely uniform amplified-noise profile.
    ///
    /// # Panics
    ///
    /// Panics if `swing` is not in `(0, 0.5]`.
    pub fn new(swing: f64) -> Self {
        Self::with_profile(swing, 0.0).expect("default profile is valid")
    }

    /// Creates an RNG with an explicit noise profile.
    ///
    /// `gaussian_fraction ∈ [0, 1]` blends between an idealized uniform
    /// reference (`0.0` — what a perfectly flattened amplified noise would
    /// give) and a clipped Gaussian whose σ equals half the swing (`1.0` —
    /// a pessimistic un-flattened amplifier). Real silicon sits in between.
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidParameter`] if `swing ∉ (0, 0.5]` or
    /// `gaussian_fraction ∉ [0, 1]`.
    pub fn with_profile(swing: f64, gaussian_fraction: f64) -> Result<Self, AnalogError> {
        if !(swing > 0.0 && swing <= VCM) {
            return Err(AnalogError::InvalidParameter {
                name: "swing",
                reason: "must be in (0, Vdd/2]",
            });
        }
        if !(0.0..=1.0).contains(&gaussian_fraction) {
            return Err(AnalogError::InvalidParameter {
                name: "gaussian_fraction",
                reason: "must be in [0, 1]",
            });
        }
        Ok(ThermalRng {
            swing,
            gaussian_fraction,
        })
    }

    /// The configured swing `A·V_noise`.
    pub fn swing(&self) -> f64 {
        self.swing
    }

    /// The Gaussian share of the noise profile: at `0.0` each reference
    /// is one uniform draw, which takes exactly one `next_u64`.
    pub fn gaussian_fraction(&self) -> f64 {
        self.gaussian_fraction
    }

    /// Draws one random reference voltage in `[Vcm − swing, Vcm + swing]`.
    #[inline]
    pub fn sample_voltage<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let lo = VCM - self.swing;
        let hi = VCM + self.swing;
        if self.gaussian_fraction == 0.0 {
            return rng.random_range(lo..hi);
        }
        let uniform = rng.random_range(lo..hi);
        let normal = Normal::new(VCM, self.swing / 2.0).expect("valid sigma");
        let gauss = normal.sample(rng).clamp(lo, hi);
        (1.0 - self.gaussian_fraction) * uniform + self.gaussian_fraction * gauss
    }

    /// Draws one normalized reference in `[0, 1]` (voltage rescaled by the
    /// swing), the form the comparator uses against a probability.
    pub fn sample_unit<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let v = self.sample_voltage(rng);
        (v - (VCM - self.swing)) / (2.0 * self.swing)
    }
}

impl Default for ThermalRng {
    /// Full-swing uniform reference — the design target of Appendix B.3.
    fn default() -> Self {
        ThermalRng::new(VCM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_swing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let noise = ThermalRng::new(0.3);
        for _ in 0..1000 {
            let v = noise.sample_voltage(&mut rng);
            assert!((VCM - 0.3..=VCM + 0.3).contains(&v));
        }
    }

    #[test]
    fn unit_samples_cover_zero_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let noise = ThermalRng::default();
        let samples: Vec<f64> = (0..5000).map(|_| noise.sample_unit(&mut rng)).collect();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 0.05 && max > 0.95, "range [{min}, {max}]");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gaussian_profile_concentrates_near_center() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let uniform = ThermalRng::new(0.5);
        let gaussian = ThermalRng::with_profile(0.5, 1.0).unwrap();
        let spread = |noise: &ThermalRng, rng: &mut rand::rngs::StdRng| {
            let xs: Vec<f64> = (0..4000).map(|_| noise.sample_unit(rng)).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        assert!(spread(&gaussian, &mut rng) < spread(&uniform, &mut rng));
    }

    #[test]
    fn rejects_bad_params() {
        assert!(ThermalRng::with_profile(0.0, 0.0).is_err());
        assert!(ThermalRng::with_profile(0.6, 0.0).is_err());
        assert!(ThermalRng::with_profile(0.5, 1.5).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let noise = ThermalRng::default();
        let a: Vec<f64> = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            (0..10).map(|_| noise.sample_unit(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            (0..10).map(|_| noise.sample_unit(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
