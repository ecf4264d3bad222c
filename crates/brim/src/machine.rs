//! The all-to-all BRIM machine. For RBM-shaped problems prefer the
//! bipartite machine ([`crate::BipartiteBrim`]), whose local-field kernel
//! is `O(m·n)` instead of this machine's dense `(m+n)²` product.

use ndarray::Array1;
use rand::Rng;
use serde::{Deserialize, Serialize};

use ember_ising::{IsingProblem, SpinVec};

use crate::{BrimConfig, FlipSchedule};

/// Result of a BRIM run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrimSolution {
    /// Spin read-out (sign of the nodal voltages) of the best state seen.
    pub state: SpinVec,
    /// Ising energy of [`BrimSolution::state`].
    pub energy: f64,
    /// Ising energy of the thresholded state after each integration step.
    pub energy_trace: Vec<f64>,
    /// Number of phase points (integration steps) traversed — the quantity
    /// the performance model converts to wall-clock time (≈12 ps each).
    pub phase_points: usize,
}

/// The all-to-all BRIM machine of Fig. 2: `N` bistable capacitive nodes and
/// a dense programmable resistive coupling mesh.
///
/// The simulator integrates the nodal ODE with forward Euler. Voltages are
/// continuous in `[−1, 1]`; the digital read-out thresholds at zero.
///
/// # Example
///
/// ```
/// use ember_brim::{BrimConfig, BrimMachine, FlipSchedule};
/// use ember_ising::generate;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = generate::random_gaussian(12, 1.0, 0.0, &mut rng);
/// let mut m = BrimMachine::new(p, BrimConfig::default());
/// m.randomize(&mut rng);
/// let before = m.energy();
/// let sol = m.quench(300);
/// assert!(sol.energy <= before);
/// ```
#[derive(Debug, Clone)]
pub struct BrimMachine {
    problem: IsingProblem,
    config: BrimConfig,
    voltages: Array1<f64>,
    phase_points: usize,
}

impl BrimMachine {
    /// Programs `problem` onto a machine with the given configuration.
    /// Nodes start at small alternating voltages (a deterministic, unbiased
    /// initial condition).
    pub fn new(problem: IsingProblem, config: BrimConfig) -> Self {
        let n = problem.len();
        let voltages = Array1::from_shape_fn(n, |i| if i % 2 == 0 { 0.01 } else { -0.01 });
        BrimMachine {
            problem,
            config,
            voltages,
            phase_points: 0,
        }
    }

    /// The programmed problem.
    pub fn problem(&self) -> &IsingProblem {
        &self.problem
    }

    /// The machine configuration.
    pub fn config(&self) -> &BrimConfig {
        &self.config
    }

    /// Current nodal voltages.
    pub fn voltages(&self) -> &Array1<f64> {
        &self.voltages
    }

    /// Total phase points traversed since construction.
    pub fn phase_points(&self) -> usize {
        self.phase_points
    }

    /// Sets every node to a uniformly random voltage in `[−1, 1]`.
    pub fn randomize<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for v in self.voltages.iter_mut() {
            *v = rng.random_range(-1.0..1.0);
        }
    }

    /// Loads an explicit spin state (rails).
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong length.
    pub fn load_state(&mut self, state: &SpinVec) {
        assert_eq!(state.len(), self.voltages.len(), "state length mismatch");
        for (v, s) in self.voltages.iter_mut().zip(state.values().iter()) {
            *v = *s;
        }
    }

    /// Thresholded spin read-out of the current voltages.
    pub fn read_state(&self) -> SpinVec {
        self.voltages
            .iter()
            .map(|&v| ember_ising::Spin::from_bit(v >= 0.0))
            .collect()
    }

    /// Ising energy of the thresholded current state.
    pub fn energy(&self) -> f64 {
        self.problem.energy(&self.read_state())
    }

    /// The Lyapunov function of the noiseless dynamics:
    /// `L(V) = −½VᵀJV − hᵀV − k_f/k_c · Σᵢ (Vᵢ²/2 − Vᵢ⁴/4)`.
    ///
    /// Under [`BrimMachine::step`] with zero flip probability, `L` is
    /// non-increasing (up to Euler discretization error) — the property that
    /// makes the hardware a gradient-descent machine on the energy
    /// landscape (§3.1).
    pub fn lyapunov(&self) -> f64 {
        let v = &self.voltages;
        let jv = self.problem.couplings().dot(v);
        let quad = -0.5 * v.dot(&jv) - self.problem.field().dot(v);
        let well: f64 = v
            .iter()
            .map(|&x| x * x / 2.0 - x.powi(4) / 4.0)
            .sum::<f64>();
        quad - self.config.feedback_gain() / self.config.coupling_gain() * well
    }

    /// One forward-Euler integration step with flip probability `p`.
    ///
    /// `C dVᵢ/dt = k_c (Σⱼ Jᵢⱼ Vⱼ + hᵢ) + k_f Vᵢ(1 − Vᵢ²)`, voltages
    /// clamped to the rails afterwards; then each node flips sign with
    /// probability `p` (the annealing control's random spin flips).
    pub fn step<R: Rng + ?Sized>(&mut self, p: f64, rng: &mut R) {
        let local = self.problem.couplings().dot(&self.voltages) + self.problem.field();
        let kc = self.config.coupling_gain();
        let kf = self.config.feedback_gain();
        let dt = self.config.dt();
        for (i, v) in self.voltages.iter_mut().enumerate() {
            let feedback = kf * *v * (1.0 - *v * *v);
            let dv = dt * (kc * local[i] + feedback);
            *v = (*v + dv).clamp(-1.0, 1.0);
        }
        if p > 0.0 {
            for v in self.voltages.iter_mut() {
                if rng.random::<f64>() < p {
                    *v = -*v;
                }
            }
        }
        self.phase_points += 1;
    }

    /// Runs the machine under a flip schedule, tracking the best state.
    pub fn anneal<R: Rng + ?Sized>(
        &mut self,
        schedule: &FlipSchedule,
        rng: &mut R,
    ) -> BrimSolution {
        let mut best_state = self.read_state();
        let mut best_energy = self.problem.energy(&best_state);
        let mut trace = Vec::with_capacity(schedule.steps());
        for k in 0..schedule.steps() {
            self.step(schedule.probability(k), rng);
            let state = self.read_state();
            let e = self.problem.energy(&state);
            trace.push(e);
            if e < best_energy {
                best_energy = e;
                best_state = state;
            }
        }
        BrimSolution {
            state: best_state,
            energy: best_energy,
            energy_trace: trace,
            phase_points: schedule.steps(),
        }
    }

    /// Noiseless descent to the nearest attractor (`steps` phase points) —
    /// the *settle* operation used when one side of an RBM is clamped.
    pub fn quench(&mut self, steps: usize) -> BrimSolution {
        // No randomness consumed: flip probability is zero throughout.
        let mut rng = NoRng;
        self.anneal(&FlipSchedule::quench(steps), &mut rng)
    }
}

/// An RNG that must never be asked for entropy; used by the noiseless
/// quench path to make "no randomness consumed" a checked invariant.
struct NoRng;

impl rand::RngCore for NoRng {
    fn next_u32(&mut self) -> u32 {
        unreachable!("quench must not consume randomness")
    }
    fn next_u64(&mut self) -> u64 {
        unreachable!("quench must not consume randomness")
    }
    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("quench must not consume randomness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ember_ising::generate;
    use rand::SeedableRng;

    #[test]
    fn quench_descends_lyapunov() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let p = generate::random_gaussian(16, 1.0, 0.2, &mut rng);
        let mut m = BrimMachine::new(p, BrimConfig::default().with_dt(0.02));
        m.randomize(&mut rng);
        let mut prev = m.lyapunov();
        let mut no_rng = rand::rngs::StdRng::seed_from_u64(0);
        for _ in 0..500 {
            m.step(0.0, &mut no_rng);
            let l = m.lyapunov();
            assert!(l <= prev + 1e-6, "lyapunov increased: {prev} -> {l}");
            prev = l;
        }
    }

    #[test]
    fn ferromagnetic_ring_reaches_ground_state() {
        let p = generate::ferromagnetic_ring(10, 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut m = BrimMachine::new(p, BrimConfig::default());
        let sol = m.anneal(&FlipSchedule::geometric(0.05, 1e-4, 800), &mut rng);
        assert!((sol.energy - (-10.0)).abs() < 1e-9, "energy {}", sol.energy);
    }

    #[test]
    fn matches_brute_force_on_small_glasses() {
        // Single anneals land in local minima sometimes; like the physical
        // machine, take the best of a few restarts per problem.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut hits = 0;
        for seed in 0..6 {
            let mut prng = rand::rngs::StdRng::seed_from_u64(seed + 100);
            let p = generate::random_gaussian(10, 1.0, 0.1, &mut prng);
            let (_, ground) = p.brute_force_ground_state();
            let mut best = f64::INFINITY;
            for _ in 0..4 {
                let mut m = BrimMachine::new(p.clone(), BrimConfig::default());
                m.randomize(&mut rng);
                let sol = m.anneal(&FlipSchedule::geometric(0.08, 1e-4, 1200), &mut rng);
                assert!(sol.energy >= ground - 1e-9, "below ground?!");
                best = best.min(sol.energy);
            }
            if (best - ground).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(hits >= 5, "only {hits}/6 problems solved to optimality");
    }

    #[test]
    fn voltages_stay_within_rails() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let p = generate::random_gaussian(12, 2.0, 0.5, &mut rng);
        let mut m = BrimMachine::new(p, BrimConfig::default().with_dt(0.2));
        m.randomize(&mut rng);
        for _ in 0..200 {
            m.step(0.1, &mut rng);
            assert!(m.voltages().iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn load_and_read_roundtrip() {
        let p = generate::ferromagnetic_ring(6, 1.0);
        let mut m = BrimMachine::new(p, BrimConfig::default());
        let s = SpinVec::from_bits(&[true, false, true, true, false, false]);
        m.load_state(&s);
        assert_eq!(m.read_state(), s);
    }

    #[test]
    fn phase_points_accumulate() {
        let p = generate::ferromagnetic_ring(4, 1.0);
        let mut m = BrimMachine::new(p, BrimConfig::default());
        let _ = m.quench(50);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let _ = m.anneal(&FlipSchedule::constant(0.01, 25), &mut rng);
        assert_eq!(m.phase_points(), 75);
    }

    #[test]
    fn best_state_energy_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let p = generate::random_gaussian(10, 1.0, 0.0, &mut rng);
        let mut m = BrimMachine::new(p.clone(), BrimConfig::default());
        m.randomize(&mut rng);
        let sol = m.anneal(&FlipSchedule::geometric(0.05, 1e-3, 300), &mut rng);
        assert!((p.energy(&sol.state) - sol.energy).abs() < 1e-9);
        assert_eq!(sol.energy_trace.len(), 300);
    }
}
