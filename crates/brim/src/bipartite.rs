use ndarray::{Array1, Array2};
use rand::Rng;
use serde::{Deserialize, Serialize};

use ember_ising::{BipartiteProblem, IsingProblem};

use crate::{BrimConfig, FlipSchedule};

/// Which side of the bipartite machine is currently clamped by the clamp
/// units of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClampMode {
    /// Both sides evolve freely.
    Free,
    /// Visible nodes are driven by the clamp units; hidden nodes evolve.
    Visible,
    /// Hidden nodes are driven; visible nodes evolve.
    Hidden,
}

/// The bipartite BRIM of §3.1 / Fig. 3: visible nodes on one edge of the
/// coupling mesh, hidden nodes on the other, clamp units to drive either
/// side, and `m × n` coupling units.
///
/// Internally the RBM's bit-domain energy (Eq. 3) is embedded into the spin
/// domain once at programming time; dynamics then run on the joint
/// `m + n`-node Ising system with the clamped side held at its driven
/// voltages. Bits map to rails as `0 ↦ −1`, `1 ↦ +1`; multi-bit inputs (the
/// DTC-quantized gray levels) map linearly into `[−1, 1]`.
///
/// # Example
///
/// ```
/// use ember_brim::{BipartiteBrim, BrimConfig, ClampMode};
/// use ember_ising::BipartiteProblem;
/// use ndarray::{arr1, arr2};
///
/// # fn main() -> Result<(), ember_ising::IsingError> {
/// let p = BipartiteProblem::new(
///     arr2(&[[2.0], [2.0]]),   // both visible units excite the one hidden unit
///     arr1(&[0.0, 0.0]),
///     arr1(&[-1.0]),
/// )?;
/// let mut brim = BipartiteBrim::new(p, BrimConfig::default());
/// brim.clamp_visible(&[1.0, 1.0]);
/// brim.settle(400);
/// assert_eq!(brim.read_hidden_bits(), vec![true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BipartiteBrim {
    problem: BipartiteProblem,
    /// Spin-domain coupling scaled for the local-field kernel: `W / 4`.
    w_quarter: Array2<f64>,
    /// Spin-domain linear field of the embedded Ising system (visible
    /// entries first) — the `h` of [`BipartiteProblem::to_ising`],
    /// computed directly without materializing the dense `J`.
    field: Array1<f64>,
    /// Dense `(m+n)²` embedding, built only when the dense reference
    /// kernel is enabled.
    dense: Option<IsingProblem>,
    config: BrimConfig,
    voltages: Array1<f64>,
    clamp: ClampMode,
    phase_points: usize,
    /// Reusable local-field buffer: the integration loop calls the
    /// field kernel once per phase point, and a 120-step per-row
    /// power-cycle anneal would otherwise allocate 120 fresh vectors
    /// per served row.
    local_scratch: Array1<f64>,
}

/// The embedded spin-domain linear field of `problem`, visible entries
/// first (matches `BipartiteProblem::to_ising`, bitwise).
fn embedded_field(problem: &BipartiteProblem) -> Array1<f64> {
    let (m, n) = (problem.visible_len(), problem.hidden_len());
    let mut field = Array1::zeros(m + n);
    for i in 0..m {
        field[i] += problem.visible_bias()[i] / 2.0;
        for k in 0..n {
            field[i] += problem.weights()[[i, k]] / 4.0;
            field[m + k] += problem.weights()[[i, k]] / 4.0;
        }
    }
    for k in 0..n {
        field[m + k] += problem.hidden_bias()[k] / 2.0;
    }
    field
}

/// The deterministic power-on voltage pattern: a small alternating
/// perturbation that breaks the symmetry of the all-zero fixed point.
fn power_on_voltages(total: usize) -> Array1<f64> {
    Array1::from_shape_fn(total, |i| if i % 2 == 0 { 0.01 } else { -0.01 })
}

/// Thresholds a voltage rail into LSB-first packed words (`v ≥ 0 ↦ 1`).
fn pack_threshold(voltages: ndarray::ArrayView1<'_, f64>, words: &mut [u64]) {
    let needed = voltages.len().div_ceil(64);
    assert!(
        words.len() >= needed,
        "packed read needs {needed} words, got {}",
        words.len()
    );
    words[..needed].fill(0);
    for (i, &v) in voltages.iter().enumerate() {
        if v >= 0.0 {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
}

impl BipartiteBrim {
    /// Programs the bipartite problem onto the machine.
    pub fn new(problem: BipartiteProblem, config: BrimConfig) -> Self {
        let total = problem.visible_len() + problem.hidden_len();
        let voltages = power_on_voltages(total);
        let w_quarter = problem.weights().mapv(|w| w / 4.0);
        let field = embedded_field(&problem);
        BipartiteBrim {
            problem,
            w_quarter,
            field,
            dense: None,
            config,
            voltages,
            clamp: ClampMode::Free,
            phase_points: 0,
            local_scratch: Array1::zeros(total),
        }
    }

    /// Enables (or disables) the dense `(m+n)²` reference kernel: the
    /// local field is then computed through the full embedded coupling
    /// matrix instead of the two small GEMVs. Kept as the reference the
    /// kernel-equivalence tests compare against — both kernels produce
    /// identical trajectories.
    #[must_use]
    pub fn with_dense_kernel(mut self, dense: bool) -> Self {
        self.dense = if dense {
            Some(self.problem.to_ising())
        } else {
            None
        };
        self
    }

    /// Whether the dense reference kernel is active.
    pub fn uses_dense_kernel(&self) -> bool {
        self.dense.is_some()
    }

    /// The local spin-domain field at every node: the bipartite fast
    /// path computes it as two small GEMVs over the `m × n` coupling
    /// block (`(W/4)·V_h` for the visible side, `(W/4)ᵀ·V_v` for the
    /// hidden side) plus the precomputed linear field — `O(m·n)` work —
    /// while the dense reference multiplies the full `(m+n)²` embedding.
    ///
    /// Entries belonging to a clamped side are never read by the
    /// dynamics; the fast path leaves them at zero, the dense reference
    /// still computes them.
    pub fn local_field(&self) -> Array1<f64> {
        let mut local = Array1::zeros(self.voltages.len());
        self.local_field_into(&mut local);
        local
    }

    /// [`BipartiteBrim::local_field`] into a caller-owned buffer: the
    /// per-step serial field kernel, running both GEMVs directly on the
    /// SIMD slice primitives ([`ndarray::simd`]) with no allocation —
    /// what a per-row power-cycle anneal (one fresh trajectory per
    /// served row, ~120 steps each) actually spends its time in.
    /// Arithmetic is identical to the allocating path step for step, so
    /// trajectories are bitwise unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the node count.
    pub fn local_field_into(&self, out: &mut Array1<f64>) {
        assert_eq!(out.len(), self.voltages.len(), "local-field buffer size");
        if let Some(ising) = &self.dense {
            let dense = ising.couplings().dot(&self.voltages) + ising.field();
            out.as_mut_slice().copy_from_slice(dense.as_slice());
            return;
        }
        let m = self.problem.visible_len();
        let n = self.problem.hidden_len();
        let w = self.w_quarter.as_slice();
        let v = self.voltages.as_slice();
        let o = out.as_mut_slice();
        o.fill(0.0);
        // A clamped side's nodes are driven, so their local field is never
        // read — skip that GEMV entirely (the dense reference, like the
        // seed, always pays the full product).
        if self.clamp != ClampMode::Visible {
            let vh = &v[m..];
            for i in 0..m {
                o[i] = ndarray::simd::dot(&w[i * n..(i + 1) * n], vh) + self.field[i];
            }
        }
        if self.clamp != ClampMode::Hidden {
            let oh = &mut o[m..];
            // out[m + j] = Σ_i W/4[i, j]·v[i]: stream the physical rows
            // (the transposed-GEMV accumulation order, preserved).
            for (i, &vi) in v[..m].iter().enumerate() {
                if vi != 0.0 {
                    ndarray::simd::axpy(oh, vi, &w[i * n..(i + 1) * n]);
                }
            }
            for (j, x) in oh.iter_mut().enumerate() {
                *x += self.field[m + j];
            }
        }
    }

    /// The programmed bipartite problem.
    pub fn problem(&self) -> &BipartiteProblem {
        &self.problem
    }

    /// Re-programs the coupling weights/biases (used between learning steps
    /// by the Gibbs-sampler architecture, §3.2 step 2). Node voltages are
    /// preserved.
    pub fn reprogram(&mut self, problem: BipartiteProblem) {
        assert_eq!(
            problem.visible_len(),
            self.problem.visible_len(),
            "visible count cannot change"
        );
        assert_eq!(
            problem.hidden_len(),
            self.problem.hidden_len(),
            "hidden count cannot change"
        );
        self.w_quarter = problem.weights().mapv(|w| w / 4.0);
        self.field = embedded_field(&problem);
        if self.dense.is_some() {
            self.dense = Some(problem.to_ising());
        }
        self.problem = problem;
    }

    /// Current clamp mode.
    pub fn clamp_mode(&self) -> ClampMode {
        self.clamp
    }

    /// Total phase points traversed.
    pub fn phase_points(&self) -> usize {
        self.phase_points
    }

    /// Clamps the visible nodes to unit-interval levels (`0 ↦ −1 … 1 ↦ +1`).
    ///
    /// # Panics
    ///
    /// Panics if `levels.len()` differs from the visible count or any level
    /// is outside `[0, 1]`.
    pub fn clamp_visible(&mut self, levels: &[f64]) {
        let m = self.problem.visible_len();
        assert_eq!(levels.len(), m, "visible clamp length mismatch");
        for (i, &x) in levels.iter().enumerate() {
            assert!((0.0..=1.0).contains(&x), "clamp level out of [0,1]");
            self.voltages[i] = 2.0 * x - 1.0;
        }
        self.clamp = ClampMode::Visible;
    }

    /// Clamps the hidden nodes to unit-interval levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len()` differs from the hidden count or any level
    /// is outside `[0, 1]`.
    pub fn clamp_hidden(&mut self, levels: &[f64]) {
        let m = self.problem.visible_len();
        let n = self.problem.hidden_len();
        assert_eq!(levels.len(), n, "hidden clamp length mismatch");
        for (j, &x) in levels.iter().enumerate() {
            assert!((0.0..=1.0).contains(&x), "clamp level out of [0,1]");
            self.voltages[m + j] = 2.0 * x - 1.0;
        }
        self.clamp = ClampMode::Hidden;
    }

    /// Loads hidden bits (e.g. a persistent particle) *without* clamping.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the hidden count.
    pub fn load_hidden_bits(&mut self, bits: &[bool]) {
        let m = self.problem.visible_len();
        assert_eq!(bits.len(), self.problem.hidden_len(), "hidden length");
        for (j, &b) in bits.iter().enumerate() {
            self.voltages[m + j] = if b { 1.0 } else { -1.0 };
        }
    }

    /// Releases all clamps: both sides evolve.
    pub fn release(&mut self) {
        self.clamp = ClampMode::Free;
    }

    /// Returns every node to the deterministic power-on voltage pattern
    /// of [`BipartiteBrim::new`] and releases all clamps — a reproducible
    /// "power cycle". The serving layer uses this to make each served
    /// chain an independent trajectory (one request's read-out must not
    /// depend on what the machine sampled for the previous tenant).
    /// Programmed couplings/biases and the phase-point count are
    /// untouched.
    pub fn reset_voltages(&mut self) {
        self.voltages = power_on_voltages(self.voltages.len());
        self.clamp = ClampMode::Free;
    }

    /// Visible-node voltages.
    pub fn visible_voltages(&self) -> ndarray::ArrayView1<'_, f64> {
        self.voltages
            .slice(ndarray::s![..self.problem.visible_len()])
    }

    /// Hidden-node voltages.
    pub fn hidden_voltages(&self) -> ndarray::ArrayView1<'_, f64> {
        self.voltages
            .slice(ndarray::s![self.problem.visible_len()..])
    }

    /// Thresholded visible bits.
    ///
    /// Allocates a fresh `Vec<bool>` per read; inside anneal/settle
    /// loops prefer [`BipartiteBrim::read_visible_bits_into`] (reused
    /// buffer) or [`BipartiteBrim::read_visible_packed`] (bit-packed,
    /// 64 nodes per word).
    pub fn read_visible_bits(&self) -> Vec<bool> {
        self.visible_voltages().iter().map(|&v| v >= 0.0).collect()
    }

    /// Thresholded hidden bits.
    ///
    /// Allocation caveats as for [`BipartiteBrim::read_visible_bits`].
    pub fn read_hidden_bits(&self) -> Vec<bool> {
        self.hidden_voltages().iter().map(|&v| v >= 0.0).collect()
    }

    /// Thresholded visible bits into a caller-owned buffer (cleared and
    /// refilled, so a loop reuses one allocation for every read).
    pub fn read_visible_bits_into(&self, out: &mut Vec<bool>) {
        out.clear();
        out.extend(self.visible_voltages().iter().map(|&v| v >= 0.0));
    }

    /// Thresholded hidden bits into a caller-owned buffer.
    pub fn read_hidden_bits_into(&self, out: &mut Vec<bool>) {
        out.clear();
        out.extend(self.hidden_voltages().iter().map(|&v| v >= 0.0));
    }

    /// Packed threshold read of the visible rail: bit `i` of the
    /// visible side lands in `words[i / 64]` at position `i % 64` (LSB
    /// first — the row layout of `ember_core::kernels::BitMatrix`, so a
    /// read can feed the bit-packed sampling kernels without ever
    /// materializing a `Vec<bool>`). Unused high bits of the last word
    /// are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than `⌈m / 64⌉`.
    pub fn read_visible_packed(&self, words: &mut [u64]) {
        pack_threshold(self.visible_voltages(), words);
    }

    /// Packed threshold read of the hidden rail; layout as for
    /// [`BipartiteBrim::read_visible_packed`].
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than `⌈n / 64⌉`.
    pub fn read_hidden_packed(&self, words: &mut [u64]) {
        pack_threshold(self.hidden_voltages(), words);
    }

    /// RBM energy (Eq. 3) of the thresholded state.
    pub fn energy_bits(&self) -> f64 {
        self.problem
            .energy_bits(&self.read_visible_bits(), &self.read_hidden_bits())
    }

    fn is_clamped(&self, index: usize) -> bool {
        let m = self.problem.visible_len();
        match self.clamp {
            ClampMode::Free => false,
            ClampMode::Visible => index < m,
            ClampMode::Hidden => index >= m,
        }
    }

    /// One integration step with flip probability `p` on the free nodes.
    pub fn step<R: Rng + ?Sized>(&mut self, p: f64, rng: &mut R) {
        let mut local = std::mem::replace(&mut self.local_scratch, Array1::from_vec(Vec::new()));
        self.local_field_into(&mut local);
        let kc = self.config.coupling_gain();
        let kf = self.config.feedback_gain();
        let dt = self.config.dt();
        for (i, v) in self.voltages.iter_mut().enumerate() {
            let m = self.problem.visible_len();
            let clamped = match self.clamp {
                ClampMode::Free => false,
                ClampMode::Visible => i < m,
                ClampMode::Hidden => i >= m,
            };
            if clamped {
                continue;
            }
            let feedback = kf * *v * (1.0 - *v * *v);
            *v = (*v + dt * (kc * local[i] + feedback)).clamp(-1.0, 1.0);
        }
        if p > 0.0 {
            for i in 0..self.voltages.len() {
                if !self.is_clamped(i) && rng.random::<f64>() < p {
                    self.voltages[i] = -self.voltages[i];
                }
            }
        }
        self.local_scratch = local;
        self.phase_points += 1;
    }

    /// Noiseless settle of the free side (§3.2 step 4 / §3.3 step 3: "wait
    /// for a predetermined time for the hidden units to settle").
    pub fn settle(&mut self, steps: usize) {
        struct NoRng;
        impl rand::RngCore for NoRng {
            fn next_u32(&mut self) -> u32 {
                unreachable!("settle must not consume randomness")
            }
            fn next_u64(&mut self) -> u64 {
                unreachable!("settle must not consume randomness")
            }
            fn fill_bytes(&mut self, _dest: &mut [u8]) {
                unreachable!("settle must not consume randomness")
            }
        }
        let mut rng = NoRng;
        for _ in 0..steps {
            self.step(0.0, &mut rng);
        }
    }

    /// Annealed free-run under a flip schedule (§3.3 step 4: "load one of
    /// `p` particles and start annealing process").
    pub fn anneal<R: Rng + ?Sized>(&mut self, schedule: &FlipSchedule, rng: &mut R) {
        for k in 0..schedule.steps() {
            self.step(schedule.probability(k), rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndarray::{arr1, arr2, Array2};
    use rand::SeedableRng;

    fn and_gate_problem() -> BipartiteProblem {
        // One hidden unit that activates only when both visible are on.
        BipartiteProblem::new(arr2(&[[2.0], [2.0]]), arr1(&[0.0, 0.0]), arr1(&[-3.0])).unwrap()
    }

    #[test]
    fn clamped_visible_drives_hidden_like_and() {
        for (v0, v1, expect) in [
            (0.0, 0.0, false),
            (1.0, 0.0, false),
            (0.0, 1.0, false),
            (1.0, 1.0, true),
        ] {
            let mut brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
            brim.clamp_visible(&[v0, v1]);
            brim.settle(500);
            assert_eq!(brim.read_hidden_bits(), vec![expect], "inputs ({v0}, {v1})");
            // Clamped side must be untouched.
            assert_eq!(brim.read_visible_bits(), vec![v0 > 0.5, v1 > 0.5]);
        }
    }

    #[test]
    fn clamped_hidden_drives_visible() {
        // Strong positive weights and biases that keep visibles off unless
        // the hidden unit pushes them on.
        let p = BipartiteProblem::new(arr2(&[[3.0], [3.0]]), arr1(&[-1.0, -1.0]), arr1(&[0.0]))
            .unwrap();
        let mut brim = BipartiteBrim::new(p, BrimConfig::default());
        brim.clamp_hidden(&[1.0]);
        brim.settle(500);
        assert_eq!(brim.read_visible_bits(), vec![true, true]);

        let p2 = BipartiteProblem::new(arr2(&[[3.0], [3.0]]), arr1(&[-1.0, -1.0]), arr1(&[0.0]))
            .unwrap();
        let mut brim = BipartiteBrim::new(p2, BrimConfig::default());
        brim.clamp_hidden(&[0.0]);
        brim.settle(500);
        assert_eq!(brim.read_visible_bits(), vec![false, false]);
    }

    #[test]
    fn free_run_lowers_rbm_energy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        use rand::Rng;
        let w = Array2::from_shape_fn((6, 4), |_| rng.random_range(-1.0..1.0));
        let p = BipartiteProblem::new(w, Array1::zeros(6), Array1::zeros(4)).unwrap();
        let mut brim = BipartiteBrim::new(p, BrimConfig::default());
        let before = brim.energy_bits();
        brim.release();
        brim.settle(800);
        assert!(brim.energy_bits() <= before);
    }

    #[test]
    fn reprogram_changes_behavior() {
        let mut brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        // Flip the hidden bias so the unit turns on unconditionally.
        let or_like =
            BipartiteProblem::new(arr2(&[[2.0], [2.0]]), arr1(&[0.0, 0.0]), arr1(&[3.0])).unwrap();
        brim.reprogram(or_like);
        brim.clamp_visible(&[0.0, 0.0]);
        brim.settle(500);
        assert_eq!(brim.read_hidden_bits(), vec![true]);
    }

    #[test]
    #[should_panic(expected = "visible count")]
    fn reprogram_rejects_resize() {
        let mut brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        let bigger =
            BipartiteProblem::new(Array2::zeros((3, 1)), Array1::zeros(3), Array1::zeros(1))
                .unwrap();
        brim.reprogram(bigger);
    }

    #[test]
    fn reset_voltages_is_a_reproducible_power_cycle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        let fresh = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        brim.clamp_visible(&[1.0, 1.0]);
        brim.anneal(&FlipSchedule::constant(0.2, 40), &mut rng);
        assert_ne!(brim.hidden_voltages(), fresh.hidden_voltages());
        let points = brim.phase_points();
        brim.reset_voltages();
        assert_eq!(brim.visible_voltages(), fresh.visible_voltages());
        assert_eq!(brim.hidden_voltages(), fresh.hidden_voltages());
        assert_eq!(brim.clamp_mode(), ClampMode::Free);
        // Programmed problem and accounting survive the power cycle.
        assert_eq!(brim.phase_points(), points);
        brim.clamp_visible(&[1.0, 1.0]);
        brim.settle(500);
        assert_eq!(brim.read_hidden_bits(), vec![true]);
    }

    #[test]
    fn buffered_and_packed_reads_match_allocating_reads() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        use rand::Rng;
        // 70 visible nodes so the packed read crosses a word boundary.
        let w = Array2::from_shape_fn((70, 3), |_| rng.random_range(-1.0..1.0));
        let p = BipartiteProblem::new(w, Array1::zeros(70), Array1::zeros(3)).unwrap();
        let mut brim = BipartiteBrim::new(p, BrimConfig::default());
        brim.release();
        brim.anneal(&FlipSchedule::constant(0.1, 30), &mut rng);
        let (mut vbuf, mut hbuf) = (Vec::new(), Vec::new());
        brim.read_visible_bits_into(&mut vbuf);
        brim.read_hidden_bits_into(&mut hbuf);
        assert_eq!(vbuf, brim.read_visible_bits());
        assert_eq!(hbuf, brim.read_hidden_bits());
        let mut vwords = [u64::MAX; 2];
        let mut hwords = [u64::MAX; 1];
        brim.read_visible_packed(&mut vwords);
        brim.read_hidden_packed(&mut hwords);
        for (i, &bit) in vbuf.iter().enumerate() {
            assert_eq!((vwords[i / 64] >> (i % 64)) & 1 == 1, bit, "visible {i}");
        }
        // Padding bits above node 69 must be cleared.
        assert_eq!(vwords[1] >> 6, 0);
        for (j, &bit) in hbuf.iter().enumerate() {
            assert_eq!((hwords[0] >> j) & 1 == 1, bit, "hidden {j}");
        }
        assert_eq!(hwords[0] >> 3, 0);
    }

    #[test]
    #[should_panic(expected = "packed read needs")]
    fn packed_read_rejects_short_word_slice() {
        let brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        let mut words: [u64; 0] = [];
        brim.read_visible_packed(&mut words);
    }

    #[test]
    fn load_hidden_bits_sets_rails() {
        let mut brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        brim.load_hidden_bits(&[true]);
        assert_eq!(brim.hidden_voltages()[0], 1.0);
        brim.load_hidden_bits(&[false]);
        assert_eq!(brim.hidden_voltages()[0], -1.0);
    }

    #[test]
    fn anneal_respects_clamp() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        brim.clamp_visible(&[1.0, 0.0]);
        brim.anneal(&FlipSchedule::constant(0.5, 50), &mut rng);
        // Clamped visible rails unchanged even under heavy flip injection.
        assert_eq!(brim.read_visible_bits(), vec![true, false]);
    }

    #[test]
    fn multibit_clamp_levels_map_linearly() {
        let mut brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        brim.clamp_visible(&[0.25, 0.75]);
        assert!((brim.visible_voltages()[0] - (-0.5)).abs() < 1e-12);
        assert!((brim.visible_voltages()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phase_points_count_settle_and_anneal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut brim = BipartiteBrim::new(and_gate_problem(), BrimConfig::default());
        brim.settle(10);
        brim.anneal(&FlipSchedule::constant(0.1, 5), &mut rng);
        assert_eq!(brim.phase_points(), 15);
    }
}
