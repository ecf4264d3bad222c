use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{AnalogError, ThermalRng};

/// Behavioral model of the dynamic comparator of Fig. 13(c).
///
/// The comparator receives the sigmoid unit's output (a probability encoded
/// as a voltage) on one input and the thermal-noise reference on the other;
/// its latched digital output is therefore a Bernoulli sample with success
/// probability equal to the sigmoid output (Appendix B.3). A real dynamic
/// comparator adds a small input-referred offset; we expose it as a model
/// parameter.
///
/// # Example
///
/// ```
/// use ember_analog::{Comparator, ThermalRng};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let cmp = Comparator::ideal();
/// let noise = ThermalRng::default();
/// let hits = (0..4000).filter(|_| cmp.sample(0.25, &noise, &mut rng)).count();
/// let freq = hits as f64 / 4000.0;
/// assert!((freq - 0.25).abs() < 0.03);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Comparator {
    offset: f64,
}

impl Comparator {
    /// A zero-offset comparator.
    pub fn ideal() -> Self {
        Comparator { offset: 0.0 }
    }

    /// A comparator with a fixed input-referred offset (in probability
    /// units; positive offset biases the output toward 1).
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidParameter`] if `offset` is not in `[-0.5, 0.5]`.
    pub fn with_offset(offset: f64) -> Result<Self, AnalogError> {
        if !(-0.5..=0.5).contains(&offset) {
            return Err(AnalogError::InvalidParameter {
                name: "offset",
                reason: "must be in [-0.5, 0.5]",
            });
        }
        Ok(Comparator { offset })
    }

    /// The input-referred offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Compares `probability` (the sigmoid output, in `[0, 1]`) against one
    /// draw from the noise reference; returns the latched digital decision.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        probability: f64,
        noise: &ThermalRng,
        rng: &mut R,
    ) -> bool {
        let reference = noise.sample_unit(rng);
        probability + self.offset > reference
    }
}

impl Default for Comparator {
    fn default() -> Self {
        Comparator::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn frequencies_match_probabilities() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cmp = Comparator::ideal();
        let noise = ThermalRng::default();
        for &p in &[0.1, 0.5, 0.9] {
            let hits = (0..8000)
                .filter(|_| cmp.sample(p, &noise, &mut rng))
                .count();
            let freq = hits as f64 / 8000.0;
            assert!((freq - p).abs() < 0.02, "p={p} freq={freq}");
        }
    }

    #[test]
    fn extreme_probabilities_are_deterministic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cmp = Comparator::ideal();
        let noise = ThermalRng::default();
        assert!((0..100).all(|_| cmp.sample(1.01, &noise, &mut rng)));
        assert!((0..100).all(|_| !cmp.sample(-0.01, &noise, &mut rng)));
    }

    #[test]
    fn offset_biases_output() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let biased = Comparator::with_offset(0.2).unwrap();
        let noise = ThermalRng::default();
        let hits = (0..4000)
            .filter(|_| biased.sample(0.5, &noise, &mut rng))
            .count();
        let freq = hits as f64 / 4000.0;
        assert!((freq - 0.7).abs() < 0.03, "freq {freq}");
    }

    #[test]
    fn rejects_huge_offset() {
        assert!(Comparator::with_offset(0.9).is_err());
    }
}
