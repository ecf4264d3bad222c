use serde::{Deserialize, Serialize};

use crate::{AnalogError, VDD};

/// Behavioral model of the sigmoid unit of Fig. 13(a).
///
/// The circuit is a differential-to-single-ended amplifier whose gain is
/// intentionally set low so its transfer function resembles the logistic
/// `S(x) = 1 / (1 + e^{−c₁(x−c₂)})` (Appendix B.2). The two
/// hyper-parameters map to circuit knobs: `c₁` (slope) is tuned by the bias
/// current `V_hp`, `c₂` (threshold) by the input common mode. The output is
/// hard-clipped to the rails `[0, Vdd]`, which deviates from an ideal
/// logistic only in the deep-saturation tails.
///
/// # Example
///
/// ```
/// use ember_analog::SigmoidUnit;
///
/// let s = SigmoidUnit::ideal();
/// assert!((s.transfer(0.0) - 0.5).abs() < 1e-12);
/// assert!(s.transfer(10.0) > 0.99);
/// assert!(s.transfer(-10.0) < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SigmoidUnit {
    gain: f64,
    threshold: f64,
    saturation: f64,
}

impl SigmoidUnit {
    /// An ideal logistic unit: `c₁ = 1`, `c₂ = 0`, no extra saturation.
    pub fn ideal() -> Self {
        SigmoidUnit {
            gain: 1.0,
            threshold: 0.0,
            saturation: 0.0,
        }
    }

    /// Creates a unit with explicit hyper-parameters.
    ///
    /// * `gain` — the logistic slope `c₁` (set by the amplifier bias).
    /// * `threshold` — the input offset `c₂`.
    /// * `saturation` — fraction of the output range lost to early rail
    ///   clipping (`0.0` = ideal; e.g. `0.02` clips the top and bottom 2%).
    ///
    /// # Errors
    ///
    /// * [`AnalogError::InvalidParameter`] if `gain ≤ 0`, `gain` or
    ///   `threshold` is not finite, or `saturation` is outside `[0, 0.5)`.
    pub fn new(gain: f64, threshold: f64, saturation: f64) -> Result<Self, AnalogError> {
        if gain <= 0.0 || !gain.is_finite() {
            return Err(AnalogError::InvalidParameter {
                name: "gain",
                reason: "must be positive and finite",
            });
        }
        if !threshold.is_finite() {
            return Err(AnalogError::InvalidParameter {
                name: "threshold",
                reason: "must be finite",
            });
        }
        if !(0.0..0.5).contains(&saturation) {
            return Err(AnalogError::InvalidParameter {
                name: "saturation",
                reason: "must be in [0, 0.5)",
            });
        }
        Ok(SigmoidUnit {
            gain,
            threshold,
            saturation,
        })
    }

    /// The logistic slope `c₁`.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// The input threshold `c₂`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The fraction of the output range lost to early rail clipping.
    pub fn saturation(&self) -> f64 {
        self.saturation
    }

    /// The transfer function: logistic response clipped to the rails.
    ///
    /// Input is the summed node current (in normalized units); output is a
    /// voltage in `[0, Vdd]` interpreted downstream as `P(node = 1)`.
    pub fn transfer(&self, x: f64) -> f64 {
        let ideal = 1.0 / (1.0 + (-(self.gain) * (x - self.threshold)).exp());
        if self.saturation == 0.0 {
            return ideal.clamp(0.0, VDD);
        }
        // Early rail clipping: rescale so [sat, 1-sat] maps onto [0, 1].
        let stretched = (ideal - self.saturation) / (1.0 - 2.0 * self.saturation);
        stretched.clamp(0.0, VDD)
    }

    /// Maximum absolute deviation from the ideal logistic over `[-8, 8]`,
    /// measured on a fine grid. Used in tests and to report model fidelity
    /// ("a modified inverter can approximate the function admirably", §3.2).
    pub fn max_deviation_from_logistic(&self) -> f64 {
        let mut worst = 0.0f64;
        let steps = 1600;
        for k in 0..=steps {
            let x = -8.0 + 16.0 * k as f64 / steps as f64;
            let ideal = 1.0 / (1.0 + (-x).exp());
            let dev = (self.transfer(x) - ideal).abs();
            worst = worst.max(dev);
        }
        worst
    }
}

impl Default for SigmoidUnit {
    fn default() -> Self {
        SigmoidUnit::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_matches_logistic() {
        let s = SigmoidUnit::ideal();
        for &x in &[-3.0f64, -1.0, 0.0, 0.5, 2.0] {
            let expected = 1.0 / (1.0 + (-x).exp());
            assert!((s.transfer(x) - expected).abs() < 1e-12);
        }
        assert!(s.max_deviation_from_logistic() < 1e-12);
    }

    #[test]
    fn gain_steepens_curve() {
        let shallow = SigmoidUnit::new(0.5, 0.0, 0.0).unwrap();
        let steep = SigmoidUnit::new(4.0, 0.0, 0.0).unwrap();
        assert!(steep.transfer(1.0) > shallow.transfer(1.0));
        assert!(steep.transfer(-1.0) < shallow.transfer(-1.0));
    }

    #[test]
    fn threshold_shifts_midpoint() {
        let s = SigmoidUnit::new(1.0, 2.0, 0.0).unwrap();
        assert!((s.transfer(2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn saturation_clips_tails() {
        let s = SigmoidUnit::new(1.0, 0.0, 0.05).unwrap();
        assert_eq!(s.transfer(10.0), 1.0);
        assert_eq!(s.transfer(-10.0), 0.0);
        // Midpoint is preserved.
        assert!((s.transfer(0.0) - 0.5).abs() < 1e-12);
        // Deviation is bounded by the clip fraction (plus rescale effect).
        assert!(s.max_deviation_from_logistic() < 0.06);
    }

    #[test]
    fn output_always_within_rails() {
        let s = SigmoidUnit::new(3.0, -1.0, 0.1).unwrap();
        for k in -100..=100 {
            let y = s.transfer(k as f64 * 0.2);
            assert!((0.0..=VDD).contains(&y));
        }
    }

    #[test]
    fn monotone_nondecreasing() {
        let s = SigmoidUnit::new(2.0, 0.3, 0.02).unwrap();
        let mut prev = s.transfer(-8.0);
        for k in 1..=160 {
            let y = s.transfer(-8.0 + k as f64 * 0.1);
            assert!(y >= prev - 1e-12);
            prev = y;
        }
    }

    #[test]
    fn rejects_bad_params() {
        assert!(SigmoidUnit::new(0.0, 0.0, 0.0).is_err());
        assert!(SigmoidUnit::new(-1.0, 0.0, 0.0).is_err());
        assert!(SigmoidUnit::new(1.0, 0.0, 0.5).is_err());
        assert!(SigmoidUnit::new(f64::NAN, 0.0, 0.0).is_err());
    }

    #[test]
    fn rejects_a_threshold_that_is_not_finite() {
        // NaN would never fire; ±inf would pin the unit off or on.
        for threshold in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                SigmoidUnit::new(1.0, threshold, 0.0),
                Err(AnalogError::InvalidParameter {
                    name: "threshold",
                    reason: "must be finite",
                }),
                "threshold {threshold}"
            );
        }
    }
}
