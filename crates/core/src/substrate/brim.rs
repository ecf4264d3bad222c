use ndarray::{Array2, ArrayView1, ArrayView2};
use rand::RngCore;

use ember_brim::{BipartiteBrim, BrimConfig, FlipSchedule};
use ember_ising::BipartiteProblem;
use ember_rbm::Rbm;
use ember_substrate::{HardwareCounters, Side, Substrate};

use crate::kernels::BitMatrix;

/// The bipartite BRIM of §3.1/Fig. 3 driven as a conditional sampler:
/// clamp units hold one side at its data rails, the free side's coupled
/// ring oscillators evolve under constant flip injection (the thermal
/// bath of §3.3 — "the substrate directly embodies Boltzmann
/// statistics"), and the read-out thresholds the settled node voltages.
///
/// Unlike [`super::SoftwareGibbs`], no sigmoid is ever evaluated: the
/// sampling *is* the dynamics. The flip probability sets the effective
/// temperature of the bath; [`BrimSubstrate::with_thermal_bath`] exposes
/// it together with the per-sample anneal length (phase points).
///
/// Node voltages persist between calls, so consecutive samples continue
/// one physical trajectory — exactly how the hardware behaves between
/// `CLK` edges.
///
/// # Example
///
/// ```
/// use ember_core::substrate::{BrimSubstrate, Substrate};
/// use ember_brim::BrimConfig;
/// use ember_rbm::Rbm;
/// use ndarray::Array2;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let rbm = Rbm::random(4, 2, 0.5, &mut rng);
/// let mut sub = BrimSubstrate::for_rbm(&rbm, BrimConfig::default());
/// let v = Array2::from_elem((2, 4), 1.0);
/// let h = sub.sample_hidden_batch(&v, &mut rng);
/// assert!(h.iter().all(|&x| x == 0.0 || x == 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct BrimSubstrate {
    brim: BipartiteBrim,
    flip_probability: f64,
    anneal_steps: usize,
    counters: HardwareCounters,
}

impl BrimSubstrate {
    /// Default thermal bath: the flip rate/length pair under which the
    /// free-running machine's visible histogram tracks the Boltzmann
    /// distribution in the §3.3 sampling experiment.
    const DEFAULT_FLIP: f64 = 0.02;
    const DEFAULT_STEPS: usize = 120;

    /// Programs `problem` onto a fresh machine.
    pub fn new(problem: BipartiteProblem, config: BrimConfig) -> Self {
        BrimSubstrate {
            brim: BipartiteBrim::new(problem, config),
            flip_probability: Self::DEFAULT_FLIP,
            anneal_steps: Self::DEFAULT_STEPS,
            counters: HardwareCounters::new(),
        }
    }

    /// Fabricates a machine sized for (and programmed with) `rbm`.
    pub fn for_rbm(rbm: &Rbm, config: BrimConfig) -> Self {
        BrimSubstrate::new(rbm.to_bipartite(), config)
    }

    /// Returns a copy with the given thermal bath: per-sample flip
    /// probability and anneal length in phase points.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < flip_probability <= 1` and `anneal_steps >= 1`.
    #[must_use]
    pub fn with_thermal_bath(mut self, flip_probability: f64, anneal_steps: usize) -> Self {
        assert!(
            flip_probability > 0.0 && flip_probability <= 1.0,
            "flip probability must be in (0, 1]"
        );
        assert!(anneal_steps >= 1, "need at least one anneal step");
        self.flip_probability = flip_probability;
        self.anneal_steps = anneal_steps;
        self
    }

    /// The underlying machine (node voltages, programmed problem).
    pub fn brim(&self) -> &BipartiteBrim {
        &self.brim
    }

    fn thermal_schedule(&self) -> FlipSchedule {
        FlipSchedule::constant(self.flip_probability, self.anneal_steps)
    }

    /// Clamp → anneal → read for every row of `clamp`, sampling `side`.
    ///
    /// With `per_row == false` the rows continue one physical
    /// trajectory on `rngs[0]` (the §3 batch). With `per_row == true`
    /// every row is an independent trajectory from the machine's
    /// power-on state on its own stream `rngs[r]`, so its read-out
    /// depends only on (programmed model, clamp, own stream) — never on
    /// the previous tenant of this replica (the serving contract of
    /// [`Substrate::sample_batch_rows`]).
    fn anneal_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
        per_row: bool,
    ) -> Array2<f64> {
        let (m, n) = (self.visible_len(), self.hidden_len());
        let (clamped, free, clamped_side) = match side {
            Side::Hidden => (m, n, "visible"),
            Side::Visible => (n, m, "hidden"),
        };
        assert_eq!(
            clamp.ncols(),
            clamped,
            "{clamped_side} clamp width mismatch"
        );
        if per_row {
            assert_eq!(clamp.nrows(), rngs.len(), "one RNG stream per row");
        }
        let schedule = self.thermal_schedule();
        // Each settled read-out thresholds straight into one packed
        // row — no per-read `Vec<bool>`; the dense `f64` matrix the
        // Substrate API exchanges is materialized once at the end.
        let mut out = BitMatrix::zeros(clamp.nrows(), free);
        let mut levels = vec![0.0; clamped];
        for (r, row) in clamp.rows().enumerate() {
            for (level, &x) in levels.iter_mut().zip(row.iter()) {
                *level = x;
            }
            let rng = if per_row {
                self.brim.reset_voltages();
                &mut *rngs[r]
            } else {
                &mut *rngs[0]
            };
            match side {
                Side::Hidden => {
                    self.brim.clamp_visible(&levels);
                    self.brim.anneal(&schedule, rng);
                    self.brim.read_hidden_packed(out.row_words_mut(r));
                }
                Side::Visible => {
                    self.brim.clamp_hidden(&levels);
                    self.brim.anneal(&schedule, rng);
                    self.brim.read_visible_packed(out.row_words_mut(r));
                }
            }
        }
        self.counters.packed_kernel_calls += 1;
        self.counters.simd_kernel_calls += u64::from(ndarray::simd::simd_active());
        self.counters.phase_points += (clamp.nrows() * self.anneal_steps) as u64;
        self.counters.host_words_transferred += (clamp.nrows() * free) as u64;
        out.to_dense()
    }
}

impl Substrate for BrimSubstrate {
    fn name(&self) -> &'static str {
        "brim"
    }

    fn visible_len(&self) -> usize {
        self.brim.problem().visible_len()
    }

    fn hidden_len(&self) -> usize {
        self.brim.problem().hidden_len()
    }

    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        let problem = BipartiteProblem::new(
            weights.to_owned(),
            visible_bias.to_owned(),
            hidden_bias.to_owned(),
        )
        .expect("consistent weight/bias dimensions");
        self.brim.reprogram(problem);
        self.counters.host_words_transferred += self.programming_cost();
    }

    fn sample_batch(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rng: &mut dyn RngCore,
    ) -> Array2<f64> {
        self.anneal_rows(side, clamp, &mut [rng], false)
    }

    fn sample_batch_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.anneal_rows(side, clamp, rngs, true)
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
    use rand::SeedableRng;

    #[test]
    fn confident_conditionals_survive_the_bath() {
        // AND-gate weights: hidden unit should read 1 only for v = (1, 1).
        let problem = BipartiteProblem::new(
            ndarray::arr2(&[[4.0], [4.0]]),
            ndarray::Array1::zeros(2),
            ndarray::arr1(&[-6.0]),
        )
        .unwrap();
        let mut sub =
            BrimSubstrate::new(problem, BrimConfig::default()).with_thermal_bath(0.005, 300);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let on = Array2::from_elem((20, 2), 1.0);
        let h_on = sub.sample_hidden_batch(&on, &mut rng);
        assert!(h_on.mean().unwrap() > 0.8, "mean {}", h_on.mean().unwrap());
        let off = Array2::zeros((20, 2));
        let h_off = sub.sample_hidden_batch(&off, &mut rng);
        assert!(
            h_off.mean().unwrap() < 0.2,
            "mean {}",
            h_off.mean().unwrap()
        );
    }

    #[test]
    fn reprogram_through_trait_changes_behavior() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let rbm = Rbm::random(3, 2, 0.1, &mut rng);
        let mut sub = BrimSubstrate::for_rbm(&rbm, BrimConfig::default());
        // Strong positive hidden bias: hidden units should latch on.
        let w = ndarray::Array2::zeros((3, 2));
        let bh = ndarray::Array1::from_elem(2, 6.0);
        sub.program(&w.view(), &ndarray::Array1::zeros(3).view(), &bh.view());
        let v = Array2::zeros((10, 3));
        let h = sub.sample_hidden_batch(&v, &mut rng);
        assert!(h.mean().unwrap() > 0.8);
        assert_eq!(
            sub.counters().host_words_transferred,
            (3 * 2 + 3 + 2) + 10 * 2
        );
    }

    #[test]
    fn phase_points_count_anneal_steps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let rbm = Rbm::random(2, 2, 0.1, &mut rng);
        let mut sub =
            BrimSubstrate::for_rbm(&rbm, BrimConfig::default()).with_thermal_bath(0.02, 50);
        let v = Array2::zeros((4, 2));
        let _ = sub.sample_hidden_batch(&v, &mut rng);
        assert_eq!(sub.counters().phase_points, 4 * 50);
    }
}
