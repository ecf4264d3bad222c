use ember_analog::{Comparator, NoiseModel, SigmoidUnit};
use serde::{Deserialize, Serialize};

/// Which GEMM kernel the software substrates use for the binary-state
/// products of the sampling hot path (`states · W`, `states · Wᵀ`).
///
/// Both kernels produce **bit-identical samples**: they accumulate
/// every output element's fan-in terms in the same ascending index
/// order, and skipping an exact-zero term is a floating-point no-op
/// (see [`crate::kernels`]). The flag only selects how fast the product
/// is computed; [`ember_substrate::HardwareCounters`] records which
/// kernel served each call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GsKernel {
    /// Bit-packed fast path: batches that are exactly `{0, 1}` are
    /// packed into a [`crate::kernels::BitMatrix`] and multiplied by
    /// accumulating selected weight rows ([`crate::kernels::binary_gemm`]);
    /// non-binary batches (multi-bit DTC gray levels) fall back to the
    /// dense GEMM per call.
    #[default]
    Packed,
    /// Always the dense GEMM — the reference the packed kernel is
    /// tested against.
    Dense,
}

/// Configuration of the Gibbs-sampler accelerator (§3.2).
///
/// All fields are private: construction is `Default` (the paper's
/// baseline) refined through the `with_*` builders — the single config
/// idiom shared by [`BgfConfig`] and `ember_brim::BrimConfig`. Every
/// builder validates its argument, so a constructed config is always
/// physically meaningful.
///
/// # Example
///
/// ```
/// use ember_core::GsConfig;
/// use ember_analog::NoiseModel;
///
/// let config = GsConfig::default()
///     .with_k(10)
///     .with_learning_rate(0.05)
///     .with_noise(NoiseModel::new(0.1, 0.1).unwrap());
/// assert_eq!(config.k(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GsConfig {
    k: usize,
    learning_rate: f64,
    sigmoid: SigmoidUnit,
    comparator: Comparator,
    noise: NoiseModel,
    dtc_bits: u32,
    settle_phase_points: u64,
    kernel: GsKernel,
}

impl GsConfig {
    /// Number of substrate-assisted Gibbs steps per negative phase (the
    /// `CD_k` of Algorithm 1).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Host-side learning rate `α`.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// The sigmoid-unit transfer model.
    pub fn sigmoid(&self) -> SigmoidUnit {
        self.sigmoid
    }

    /// The comparator model latching the Bernoulli samples (offset
    /// non-ideality of §4.5 flows through here).
    pub fn comparator(&self) -> Comparator {
        self.comparator
    }

    /// The substrate noise/variation model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// DTC resolution for clamping inputs (8 bits in the paper).
    pub fn dtc_bits(&self) -> u32 {
        self.dtc_bits
    }

    /// Phase points one clamped settle takes (feeds the perf model).
    pub fn settle_phase_points(&self) -> u64 {
        self.settle_phase_points
    }

    /// The GEMM kernel of the binary-state sampling hot path.
    pub fn kernel(&self) -> GsKernel {
        self.kernel
    }

    /// Returns a copy with the given `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self
    }

    /// Returns a copy with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics unless `learning_rate > 0`.
    #[must_use]
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        self.learning_rate = lr;
        self
    }

    /// Returns a copy with the given sigmoid-unit model.
    #[must_use]
    pub fn with_sigmoid(mut self, sigmoid: SigmoidUnit) -> Self {
        self.sigmoid = sigmoid;
        self
    }

    /// Returns a copy with the given comparator model.
    #[must_use]
    pub fn with_comparator(mut self, comparator: Comparator) -> Self {
        self.comparator = comparator;
        self
    }

    /// Returns a copy with the given noise model.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Returns a copy with the given DTC resolution.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 16`.
    #[must_use]
    pub fn with_dtc_bits(mut self, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "DTC bits must be 1..=16");
        self.dtc_bits = bits;
        self
    }

    /// Returns a copy with the given sampling GEMM kernel (samples are
    /// bit-identical either way; see [`GsKernel`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: GsKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Returns a copy with the given settle duration in phase points.
    ///
    /// # Panics
    ///
    /// Panics if `points == 0`.
    #[must_use]
    pub fn with_settle_phase_points(mut self, points: u64) -> Self {
        assert!(points >= 1, "need at least one settle phase point");
        self.settle_phase_points = points;
        self
    }
}

impl Default for GsConfig {
    /// CD-5-equivalent sampling, `α = 0.1` (the paper's learning rate),
    /// ideal analog components (offset-free comparator), 8-bit DTCs,
    /// 50 phase points per settle.
    fn default() -> Self {
        GsConfig {
            k: 5,
            learning_rate: 0.1,
            sigmoid: SigmoidUnit::ideal(),
            comparator: Comparator::ideal(),
            noise: NoiseModel::noiseless(),
            dtc_bits: 8,
            settle_phase_points: 50,
            kernel: GsKernel::Packed,
        }
    }
}

/// Configuration of the Boltzmann gradient follower (§3.3).
///
/// The in-hardware learning rate is set by the charge-pump packet size
/// (`pump_ratio`): one gated update moves a weight by roughly
/// `2 · weight_scale · pump_ratio` near mid-rail. With the effective
/// minibatch of 1 this must be ~`batch_size×` smaller than the software
/// `α` (§3.3: "a correspondingly smaller α, roughly 500× less than that
/// needed for n = 500").
///
/// All fields are private: construction is `Default` refined through
/// the `with_*` builders, the same idiom as [`GsConfig`] and
/// `ember_brim::BrimConfig`.
///
/// # Example
///
/// ```
/// use ember_core::BgfConfig;
///
/// let config = BgfConfig::default().with_particles(8).with_negative_sweeps(2);
/// assert_eq!(config.particles(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BgfConfig {
    pump_ratio: f64,
    weight_scale: f64,
    particles: usize,
    negative_sweeps: usize,
    sigmoid: SigmoidUnit,
    noise: NoiseModel,
    dtc_bits: u32,
    adc_bits: u32,
    settle_phase_points: u64,
    anneal_phase_points: u64,
}

impl BgfConfig {
    /// Charge-sharing ratio of the training circuit (packet size).
    pub fn pump_ratio(&self) -> f64 {
        self.pump_ratio
    }

    /// Volts-to-weight scale `s` in `W = s (V⁺ − V⁻)`; weights are
    /// representable in `[−s, s]`.
    pub fn weight_scale(&self) -> f64 {
        self.weight_scale
    }

    /// Number of persistent particles `p`.
    pub fn particles(&self) -> usize {
        self.particles
    }

    /// Alternating sampling sweeps per negative-phase anneal (the
    /// behavioral stand-in for the hardware anneal; the substrate's walk is
    /// "CD-k with a very large k", Appendix A).
    pub fn negative_sweeps(&self) -> usize {
        self.negative_sweeps
    }

    /// The sigmoid-unit transfer model.
    pub fn sigmoid(&self) -> SigmoidUnit {
        self.sigmoid
    }

    /// The substrate noise/variation model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// DTC resolution for the visible clamps.
    pub fn dtc_bits(&self) -> u32 {
        self.dtc_bits
    }

    /// ADC resolution of the final read-out (8 bits in the paper).
    pub fn adc_bits(&self) -> u32 {
        self.adc_bits
    }

    /// Phase points per positive-phase settle.
    pub fn settle_phase_points(&self) -> u64 {
        self.settle_phase_points
    }

    /// Phase points per negative-phase anneal.
    pub fn anneal_phase_points(&self) -> u64 {
        self.anneal_phase_points
    }

    /// Returns a copy with the given pump ratio.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio ≤ 0.5`.
    #[must_use]
    pub fn with_pump_ratio(mut self, ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 0.5,
            "pump ratio must be in (0, 0.5]"
        );
        self.pump_ratio = ratio;
        self
    }

    /// Returns a copy with the given weight scale.
    ///
    /// # Panics
    ///
    /// Panics unless `scale > 0`.
    #[must_use]
    pub fn with_weight_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "weight scale must be positive");
        self.weight_scale = scale;
        self
    }

    /// Returns a copy with the given particle count.
    ///
    /// # Panics
    ///
    /// Panics if `particles == 0`.
    #[must_use]
    pub fn with_particles(mut self, particles: usize) -> Self {
        assert!(particles >= 1, "need at least one particle");
        self.particles = particles;
        self
    }

    /// Returns a copy with the given negative-sweep count.
    ///
    /// # Panics
    ///
    /// Panics if `sweeps == 0`.
    #[must_use]
    pub fn with_negative_sweeps(mut self, sweeps: usize) -> Self {
        assert!(sweeps >= 1, "need at least one sweep");
        self.negative_sweeps = sweeps;
        self
    }

    /// Returns a copy with the given sigmoid model.
    #[must_use]
    pub fn with_sigmoid(mut self, sigmoid: SigmoidUnit) -> Self {
        self.sigmoid = sigmoid;
        self
    }

    /// Returns a copy with the given noise model.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Returns a copy with the given ADC resolution.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 16`.
    #[must_use]
    pub fn with_adc_bits(mut self, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "ADC bits must be 1..=16");
        self.adc_bits = bits;
        self
    }

    /// Returns a copy with the given DTC resolution for the visible
    /// clamps.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 16`.
    #[must_use]
    pub fn with_dtc_bits(mut self, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "DTC bits must be 1..=16");
        self.dtc_bits = bits;
        self
    }

    /// Returns a copy with the given positive-phase settle duration in
    /// phase points.
    ///
    /// # Panics
    ///
    /// Panics if `points == 0`.
    #[must_use]
    pub fn with_settle_phase_points(mut self, points: u64) -> Self {
        assert!(points >= 1, "need at least one settle phase point");
        self.settle_phase_points = points;
        self
    }

    /// Returns a copy with the given negative-phase anneal duration in
    /// phase points.
    ///
    /// # Panics
    ///
    /// Panics if `points == 0`.
    #[must_use]
    pub fn with_anneal_phase_points(mut self, points: u64) -> Self {
        assert!(points >= 1, "need at least one anneal phase point");
        self.anneal_phase_points = points;
        self
    }
}

impl Default for BgfConfig {
    /// Packet `2⁻¹¹`, weight span `±4`, 10 particles, 2 negative sweeps,
    /// ideal analog front end, 8-bit converters, 50/100 phase points per
    /// settle/anneal.
    fn default() -> Self {
        BgfConfig {
            pump_ratio: 1.0 / 2048.0,
            weight_scale: 4.0,
            particles: 10,
            negative_sweeps: 2,
            sigmoid: SigmoidUnit::ideal(),
            noise: NoiseModel::noiseless(),
            dtc_bits: 8,
            adc_bits: 8,
            settle_phase_points: 50,
            anneal_phase_points: 100,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gs_builder_roundtrip() {
        let c = GsConfig::default()
            .with_k(3)
            .with_learning_rate(0.2)
            .with_dtc_bits(4);
        assert_eq!(c.k(), 3);
        assert_eq!(c.learning_rate(), 0.2);
        assert_eq!(c.dtc_bits(), 4);
    }

    #[test]
    fn bgf_builder_roundtrip() {
        let c = BgfConfig::default()
            .with_pump_ratio(0.01)
            .with_weight_scale(2.0)
            .with_particles(3)
            .with_negative_sweeps(4)
            .with_adc_bits(10)
            .with_dtc_bits(6)
            .with_settle_phase_points(20)
            .with_anneal_phase_points(200);
        assert_eq!(c.pump_ratio(), 0.01);
        assert_eq!(c.weight_scale(), 2.0);
        assert_eq!(c.particles(), 3);
        assert_eq!(c.negative_sweeps(), 4);
        assert_eq!(c.adc_bits(), 10);
        assert_eq!(c.dtc_bits(), 6);
        assert_eq!(c.settle_phase_points(), 20);
        assert_eq!(c.anneal_phase_points(), 200);
    }

    #[test]
    fn gs_kernel_builder_roundtrip() {
        assert_eq!(GsConfig::default().kernel(), GsKernel::Packed);
        let c = GsConfig::default().with_kernel(GsKernel::Dense);
        assert_eq!(c.kernel(), GsKernel::Dense);
    }

    #[test]
    fn gs_settle_phase_points_builder() {
        let c = GsConfig::default().with_settle_phase_points(75);
        assert_eq!(c.settle_phase_points(), 75);
    }

    #[test]
    #[should_panic(expected = "settle phase point")]
    fn gs_rejects_zero_settle() {
        let _ = GsConfig::default().with_settle_phase_points(0);
    }

    #[test]
    #[should_panic(expected = "pump ratio")]
    fn bgf_rejects_bad_ratio() {
        let _ = BgfConfig::default().with_pump_ratio(0.9);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn gs_rejects_zero_k() {
        let _ = GsConfig::default().with_k(0);
    }
}
