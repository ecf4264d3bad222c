use ndarray::{Array1, Array2, ArrayView1, ArrayView2};
use rand::RngCore;

use ember_ising::{AnnealSchedule, Annealer, BipartiteProblem, IsingProblem};
use ember_rbm::Rbm;
use ember_substrate::{HardwareCounters, Side, Substrate};

use super::couplings::Couplings;

/// A Metropolis annealer driven as a conditional sampler over the
/// bipartite coupling — the software stand-in for an annealing-capable
/// Ising machine (the paper's §2.1 baseline; the seam future
/// quantum/CMOS annealer hardware plugs into).
///
/// Clamping one side of the bipartite problem reduces the free side to
/// independent spins in their conditional local fields: in bit domain
/// the field on hidden unit `j` is `aⱼ = Σᵢ Wᵢⱼ vᵢ + bₕⱼ`, which embeds
/// to a spin-domain field of `aⱼ/2`, so Metropolis sampling at
/// temperature `T` realizes `P(hⱼ = 1 | v) = σ(aⱼ/T)`. At the default
/// `T = 1` that is exactly the RBM conditional — the annealer is a
/// *calibrated* substrate, unlike the dynamics-driven
/// [`super::BrimSubstrate`].
///
/// The conditional fields of a whole batch come from one product on the
/// same programmed coupling image as [`super::SoftwareGibbs`]: bit-packed
/// for a binary clamp, the dense GEMM for gray levels.
///
/// # Example
///
/// ```
/// use ember_core::substrate::{AnnealerSubstrate, Substrate};
/// use ember_rbm::Rbm;
/// use ndarray::Array2;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let rbm = Rbm::random(4, 2, 0.5, &mut rng);
/// let mut sub = AnnealerSubstrate::for_rbm(&rbm);
/// let v = Array2::from_elem((2, 4), 1.0);
/// let h = sub.sample_hidden_batch(&v, &mut rng);
/// assert_eq!(h.dim(), (2, 2));
/// ```
#[derive(Debug, Clone)]
pub struct AnnealerSubstrate {
    couplings: Couplings,
    annealer: Annealer,
    temperature: f64,
    burn_in: usize,
    thin: usize,
    counters: HardwareCounters,
}

impl AnnealerSubstrate {
    /// Programs `problem` onto the annealer at unit temperature with a
    /// short equilibration (the clamped conditional chains are
    /// single-spin-flip on independent spins, so they mix in a handful
    /// of sweeps).
    pub fn new(problem: BipartiteProblem) -> Self {
        let mut couplings = Couplings::zeros(problem.visible_len(), problem.hidden_len(), false);
        couplings.program(
            &problem.weights().view(),
            &problem.visible_bias().view(),
            &problem.hidden_bias().view(),
            None,
        );
        AnnealerSubstrate {
            couplings,
            annealer: Annealer::new(AnnealSchedule::constant(1.0, 1)),
            temperature: 1.0,
            burn_in: 8,
            thin: 2,
            counters: HardwareCounters::new(),
        }
    }

    /// An annealer sized for (and programmed with) `rbm`.
    pub fn for_rbm(rbm: &Rbm) -> Self {
        AnnealerSubstrate::new(rbm.to_bipartite())
    }

    /// Returns a copy sampling at the given temperature (`T = 1` is the
    /// RBM's native Boltzmann temperature; higher values flatten the
    /// conditionals, modelling a hot substrate).
    ///
    /// # Panics
    ///
    /// Panics unless `temperature > 0`.
    #[must_use]
    pub fn with_temperature(mut self, temperature: f64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        self.temperature = temperature;
        self
    }

    /// Returns a copy with the given Metropolis mixing parameters
    /// (equilibration sweeps before the read-out and thinning sweeps per
    /// sample).
    ///
    /// # Panics
    ///
    /// Panics if `burn_in == 0`.
    #[must_use]
    pub fn with_mixing(mut self, burn_in: usize, thin: usize) -> Self {
        assert!(burn_in >= 1, "need at least one equilibration sweep");
        self.burn_in = burn_in;
        self.thin = thin;
        self
    }

    /// Draws one free-side configuration given per-unit conditional bit
    /// fields `a` (length = free-side size): embeds `a/2` as spin
    /// fields and runs clamped Metropolis sweeps.
    fn sample_free_side(&self, fields: &ArrayView1<'_, f64>, rng: &mut dyn RngCore) -> Array1<f64> {
        let n = fields.len();
        let mut builder = IsingProblem::builder(n);
        for (j, &a) in fields.iter().enumerate() {
            builder.field(j, a / 2.0).expect("index in range");
        }
        let conditional = builder.build();
        let sample = self
            .annealer
            .sample_boltzmann(
                &conditional,
                self.temperature,
                1,
                self.burn_in,
                self.thin,
                rng,
            )
            .pop()
            .expect("one sample requested");
        Array1::from_iter(sample.to_bits().into_iter().map(f64::from))
    }

    fn sweeps_per_sample(&self) -> u64 {
        (self.burn_in + self.thin.max(1)) as u64
    }
}

impl Substrate for AnnealerSubstrate {
    fn name(&self) -> &'static str {
        "annealer"
    }

    fn visible_len(&self) -> usize {
        self.couplings.weights().nrows()
    }

    fn hidden_len(&self) -> usize {
        self.couplings.weights().ncols()
    }

    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        self.couplings
            .program(weights, visible_bias, hidden_bias, None);
        self.counters.host_words_transferred += self.programming_cost();
    }

    fn sample_batch(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rng: &mut dyn RngCore,
    ) -> Array2<f64> {
        // Conditional bit fields for the whole batch in one product
        // (a = v · W + b_h forward).
        let (mut fields, _) = self.couplings.fields(side, clamp, &mut self.counters);
        for mut row in fields.axis_iter_mut(ndarray::Axis(0)) {
            row += self.couplings.bias(side);
        }
        let mut out = Array2::zeros(fields.dim());
        for (r, field_row) in fields.rows().enumerate() {
            out.row_mut(r)
                .assign(&self.sample_free_side(&field_row, rng));
        }
        self.counters.phase_points += clamp.nrows() as u64 * self.sweeps_per_sample();
        self.counters.host_words_transferred += out.len() as u64;
        out
    }

    fn counters(&self) -> &HardwareCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut HardwareCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ember_rbm::math::sigmoid;
    use rand::SeedableRng;

    #[test]
    fn unit_temperature_matches_logistic_conditionals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let problem = BipartiteProblem::new(
            ndarray::arr2(&[[0.8], [-0.3]]),
            ndarray::Array1::zeros(2),
            ndarray::arr1(&[0.2]),
        )
        .unwrap();
        let mut sub = AnnealerSubstrate::new(problem);
        let v = Array2::from_elem((4000, 2), 1.0);
        let h = sub.sample_hidden_batch(&v, &mut rng);
        let freq = h.sum() / 4000.0;
        let expected = sigmoid(0.8 - 0.3 + 0.2);
        assert!((freq - expected).abs() < 0.03, "freq {freq} vs {expected}");
    }

    #[test]
    fn hot_substrate_flattens_conditionals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let problem = BipartiteProblem::new(
            ndarray::arr2(&[[3.0]]),
            ndarray::Array1::zeros(1),
            ndarray::Array1::zeros(1),
        )
        .unwrap();
        let mut sub = AnnealerSubstrate::new(problem).with_temperature(10.0);
        let v = Array2::from_elem((3000, 1), 1.0);
        let h = sub.sample_hidden_batch(&v, &mut rng);
        let freq = h.sum() / 3000.0;
        // σ(3/10) ≈ 0.574, far from the T=1 value σ(3) ≈ 0.953.
        assert!((freq - sigmoid(0.3)).abs() < 0.04, "freq {freq}");
    }

    #[test]
    fn batch_rows_match_one_row_batches_per_stream() {
        use rand::Rng as _;
        // The annealer serves through the trait's default per-row path:
        // row `i` of a batch-rows call must be the 1-row batch drawn from
        // stream `i`, and the counters must add up call by call. Binary
        // rows take the packed kernel, gray rows the dense one.
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let problem = BipartiteProblem::new(
            Array2::from_shape_fn((7, 5), |_| rng.random_range(-1.0..1.0)),
            ndarray::Array1::from_shape_fn(7, |_| rng.random_range(-0.5..0.5)),
            ndarray::Array1::from_shape_fn(5, |_| rng.random_range(-0.5..0.5)),
        )
        .unwrap();
        let binary = Array2::from_shape_fn((4, 7), |_| f64::from(rng.random_bool(0.5)));
        let gray = Array2::from_shape_fn((3, 7), |_| rng.random_range(0.0..1.0));
        let streams = |rows: usize| -> Vec<rand::rngs::StdRng> {
            (0..rows as u64)
                .map(|i| rand::rngs::StdRng::seed_from_u64(500 + i))
                .collect()
        };
        for visible in [binary, gray] {
            let rows = visible.nrows();
            let mut batched = AnnealerSubstrate::new(problem.clone());
            let mut rngs = streams(rows);
            let mut dyn_rngs: Vec<&mut dyn RngCore> =
                rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
            let h = batched.sample_hidden_batch_rows(&visible, &mut dyn_rngs);
            let v = batched.sample_visible_batch_rows(&h, &mut dyn_rngs);

            let mut single = AnnealerSubstrate::new(problem.clone());
            let mut rngs = streams(rows);
            for (i, rng) in rngs.iter_mut().enumerate() {
                let v_in = visible.slice(ndarray::s![i..=i, ..]).to_owned();
                let h_i = single.sample_hidden_batch(&v_in, rng);
                assert_eq!(h_i.row(0), h.row(i), "hidden row {i}");
            }
            for (i, rng) in rngs.iter_mut().enumerate() {
                let h_in = h.slice(ndarray::s![i..=i, ..]).to_owned();
                let v_i = single.sample_visible_batch(&h_in, rng);
                assert_eq!(v_i.row(0), v.row(i), "visible row {i}");
            }
            assert_eq!(batched.counters(), single.counters());
        }
    }

    #[test]
    fn reverse_direction_uses_visible_fields() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let problem = BipartiteProblem::new(
            ndarray::arr2(&[[5.0], [-5.0]]),
            ndarray::Array1::zeros(2),
            ndarray::Array1::zeros(1),
        )
        .unwrap();
        let mut sub = AnnealerSubstrate::new(problem);
        let h = Array2::from_elem((200, 1), 1.0);
        let v = sub.sample_visible_batch(&h, &mut rng);
        let mean0 = v.column(0).sum() / 200.0;
        let mean1 = v.column(1).sum() / 200.0;
        assert!(mean0 > 0.95, "v0 should be driven on, got {mean0}");
        assert!(mean1 < 0.05, "v1 should be driven off, got {mean1}");
    }
}
