use ndarray::{Array1, Array2, ArrayView1, ArrayView2};
use rand::RngCore;

use ember_ising::{AnnealSchedule, Annealer, BipartiteProblem, IsingProblem};
use ember_rbm::Rbm;
use ember_substrate::{HardwareCounters, Substrate};

use crate::kernels::{binary_gemm, BitMatrix};
use crate::GsKernel;

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
    problem: BipartiteProblem,
    /// Materialized transpose of the programmed coupling, refreshed at
    /// every programming event: the packed reverse sweep-field kernel
    /// accumulates contiguous `Wᵀ` rows.
    weights_t: Array2<f64>,
    annealer: Annealer,
    temperature: f64,
    burn_in: usize,
    thin: usize,
    kernel: GsKernel,
    counters: HardwareCounters,
}

impl AnnealerSubstrate {
    /// Programs `problem` onto the annealer at unit temperature with a
    /// short equilibration (the clamped conditional chains are
    /// single-spin-flip on independent spins, so they mix in a handful
    /// of sweeps).
    pub fn new(problem: BipartiteProblem) -> Self {
        let weights_t = problem.weights().t().to_owned();
        AnnealerSubstrate {
            problem,
            weights_t,
            annealer: Annealer::new(AnnealSchedule::constant(1.0, 1)),
            temperature: 1.0,
            burn_in: 8,
            thin: 2,
            kernel: GsKernel::Packed,
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

    /// Returns a copy running the sweep-field products on the given
    /// kernel (conditional fields — and therefore samples — are
    /// bit-identical either way; see [`GsKernel`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: GsKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The selected sweep-field GEMM kernel.
    pub fn kernel(&self) -> GsKernel {
        self.kernel
    }

    /// The programmed bipartite coupling.
    pub fn problem(&self) -> &BipartiteProblem {
        &self.problem
    }

    /// The conditional bit fields of one batched half-step
    /// (`clamped · W (+ bias)` forward, `clamped · Wᵀ (+ bias)`
    /// reverse), through the selected kernel. Binary batches run the
    /// bit-packed product; gray levels and the dense baseline pay the
    /// dense GEMM. Returns the fields and whether the packed kernel
    /// served the call (for the counter accounting).
    fn batch_fields(&self, clamped: &Array2<f64>, rev: bool) -> (Array2<f64>, bool) {
        let (w, bias) = if rev {
            (&self.weights_t, self.problem.visible_bias())
        } else {
            (self.problem.weights(), self.problem.hidden_bias())
        };
        if self.kernel == GsKernel::Packed {
            if let Some(bits) = BitMatrix::from_batch(clamped) {
                return (binary_gemm(&bits, w, Some(&bias.view())), true);
            }
        }
        let mut fields = clamped.dot(w);
        for mut row in fields.axis_iter_mut(ndarray::Axis(0)) {
            row += bias;
        }
        (fields, false)
    }

    /// Accounts one batched half-step's kernel choice (the Metropolis
    /// sweep dots and both field kernels run their inner loops on the
    /// runtime SIMD tier, so the tier counter is orthogonal to the
    /// packed/dense split).
    fn count_kernel(&mut self, packed: bool) {
        self.counters.simd_kernel_calls += u64::from(ndarray::simd::simd_active());
        if packed {
            self.counters.packed_kernel_calls += 1;
        } else {
            self.counters.dense_kernel_calls += 1;
        }
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
        self.problem.visible_len()
    }

    fn hidden_len(&self) -> usize {
        self.problem.hidden_len()
    }

    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        assert_eq!(
            weights.dim(),
            self.problem.weights().dim(),
            "fabricated size"
        );
        // Volatile re-programming of identical parameters (direct
        // callers, and chaos-wrapped replicas the serving layer
        // re-programs every group) pays the transfer words but skips
        // the host-side rebuild of the problem and the cached transpose.
        let unchanged = weights
            .iter()
            .zip(self.problem.weights().iter())
            .all(|(a, b)| a == b)
            && *visible_bias == *self.problem.visible_bias()
            && *hidden_bias == *self.problem.hidden_bias();
        if !unchanged {
            self.problem = BipartiteProblem::new(
                weights.to_owned(),
                visible_bias.to_owned(),
                hidden_bias.to_owned(),
            )
            .expect("consistent weight/bias dimensions");
            self.weights_t = self.problem.weights().t().to_owned();
        }
        self.counters.host_words_transferred += self.programming_cost();
    }

    fn sample_hidden_batch(&mut self, visible: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        assert_eq!(
            visible.ncols(),
            self.visible_len(),
            "visible width mismatch"
        );
        let n = self.hidden_len();
        // Conditional bit fields for the whole batch in one product:
        // a = v · W + b_h — bit-packed when the clamp is binary.
        let (fields, packed) = self.batch_fields(visible, false);
        self.count_kernel(packed);
        let mut out = Array2::zeros((visible.nrows(), n));
        for (r, field_row) in fields.rows().enumerate() {
            out.row_mut(r)
                .assign(&self.sample_free_side(&field_row, rng));
        }
        self.counters.phase_points += visible.nrows() as u64 * self.sweeps_per_sample();
        self.counters.host_words_transferred += (visible.nrows() * n) as u64;
        out
    }

    fn sample_visible_batch(&mut self, hidden: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        assert_eq!(hidden.ncols(), self.hidden_len(), "hidden width mismatch");
        let m = self.visible_len();
        let (fields, packed) = self.batch_fields(hidden, true);
        self.count_kernel(packed);
        let mut out = Array2::zeros((hidden.nrows(), m));
        for (r, field_row) in fields.rows().enumerate() {
            out.row_mut(r)
                .assign(&self.sample_free_side(&field_row, rng));
        }
        self.counters.phase_points += hidden.nrows() as u64 * self.sweeps_per_sample();
        self.counters.host_words_transferred += (hidden.nrows() * m) as u64;
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
    fn packed_and_dense_sweep_fields_sample_identically() {
        use rand::Rng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let w = Array2::from_shape_fn((6, 4), |_| rng.random_range(-1.0..1.0));
        let problem = BipartiteProblem::new(
            w,
            ndarray::Array1::from_shape_fn(6, |_| rng.random_range(-0.5..0.5)),
            ndarray::Array1::from_shape_fn(4, |_| rng.random_range(-0.5..0.5)),
        )
        .unwrap();
        let v = Array2::from_shape_fn((5, 6), |_| f64::from(rng.random_bool(0.5)));
        let run = |kernel| {
            let mut sub = AnnealerSubstrate::new(problem.clone()).with_kernel(kernel);
            let mut rng = rand::rngs::StdRng::seed_from_u64(99);
            let h = sub.sample_hidden_batch(&v, &mut rng);
            let back = sub.sample_visible_batch(&h, &mut rng);
            (h, back, *sub.counters())
        };
        let (h_p, v_p, c_p) = run(crate::GsKernel::Packed);
        let (h_d, v_d, c_d) = run(crate::GsKernel::Dense);
        assert_eq!(h_p, h_d);
        assert_eq!(v_p, v_d);
        assert_eq!(c_p.packed_kernel_calls, 2);
        assert_eq!(c_d.dense_kernel_calls, 2);
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
