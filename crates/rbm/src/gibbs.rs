//! Host Gibbs chains (Algorithm 1 lines 12–15): the MCMC reference that
//! the paper's substrate replaces. Tests check [`sample_model`] against
//! exact enumeration, and benches time [`chain`]. The trainers do not
//! use these functions; they write their chains once over a half-step
//! (`trainer::gibbs_steps`) so that the host and every substrate share
//! them.

use ndarray::{Array1, Array2, Axis};
use rand::Rng;

use crate::Rbm;

/// One full Gibbs step from a hidden state: samples `v ~ P(v|h)` then
/// `h' ~ P(h|v)` (Algorithm 1 lines 13–14). Returns `(v, h')`.
pub fn step_from_hidden<R: Rng + ?Sized>(
    rbm: &Rbm,
    h: &Array1<f64>,
    rng: &mut R,
) -> (Array1<f64>, Array1<f64>) {
    let v = rbm.sample_visible(&h.view(), rng);
    let h_next = rbm.sample_hidden(&v.view(), rng);
    (v, h_next)
}

/// One full Gibbs step from a visible state: samples `h ~ P(h|v)` then
/// `v' ~ P(v|h)`. Returns `(v', h)`.
pub fn step_from_visible<R: Rng + ?Sized>(
    rbm: &Rbm,
    v: &Array1<f64>,
    rng: &mut R,
) -> (Array1<f64>, Array1<f64>) {
    let h = rbm.sample_hidden(&v.view(), rng);
    let v_next = rbm.sample_visible(&h.view(), rng);
    (v_next, h)
}

/// Runs a `k`-step Gibbs chain seeded at a data vector and returns the
/// negative-phase pair `(v⁻, h⁻)` (the inner loop of Algorithm 1).
pub fn chain<R: Rng + ?Sized>(
    rbm: &Rbm,
    v0: &Array1<f64>,
    k: usize,
    rng: &mut R,
) -> (Array1<f64>, Array1<f64>) {
    assert!(k >= 1, "chain length must be at least 1");
    let mut h = rbm.sample_hidden(&v0.view(), rng);
    let mut v = v0.clone();
    for _ in 0..k {
        let (v_next, h_next) = step_from_hidden(rbm, &h, rng);
        v = v_next;
        h = h_next;
    }
    (v, h)
}

/// Draws `count` approximate samples of `P(v)` by running one long chain
/// with `burn_in` steps of equilibration and `thin` steps between samples.
pub fn sample_model<R: Rng + ?Sized>(
    rbm: &Rbm,
    count: usize,
    burn_in: usize,
    thin: usize,
    rng: &mut R,
) -> Array2<f64> {
    let m = rbm.visible_len();
    let mut v = Array1::from_shape_fn(m, |_| if rng.random_bool(0.5) { 1.0 } else { 0.0 });
    for _ in 0..burn_in {
        let (v_next, _) = step_from_visible(rbm, &v, rng);
        v = v_next;
    }
    let mut out = Array2::zeros((count, m));
    for i in 0..count {
        for _ in 0..thin.max(1) {
            let (v_next, _) = step_from_visible(rbm, &v, rng);
            v = v_next;
        }
        out.row_mut(i).assign(&v);
    }
    out
}

/// Empirical marginal `P(vᵢ = 1)` of a sample matrix — a convergence
/// diagnostic for chains.
pub fn empirical_marginals(samples: &Array2<f64>) -> Array1<f64> {
    samples.mean_axis(Axis(0)).expect("non-empty sample matrix")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndarray::arr1;
    use rand::SeedableRng;

    #[test]
    fn chain_outputs_are_binary() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let rbm = Rbm::random(8, 4, 0.5, &mut rng);
        let v0 = arr1(&[1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        let (v, h) = chain(&rbm, &v0, 3, &mut rng);
        assert!(v.iter().all(|&x| x == 0.0 || x == 1.0));
        assert!(h.iter().all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn zero_weight_rbm_samples_match_bias_probability() {
        // With W = 0, P(v_i=1) = σ(bv_i) independent of the chain.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let rbm =
            Rbm::from_parts(Array2::zeros((2, 2)), arr1(&[1.0, -1.0]), arr1(&[0.0, 0.0])).unwrap();
        let samples = sample_model(&rbm, 3000, 10, 1, &mut rng);
        let marg = empirical_marginals(&samples);
        let p0 = crate::math::sigmoid(1.0);
        let p1 = crate::math::sigmoid(-1.0);
        assert!((marg[0] - p0).abs() < 0.03, "marg0 {}", marg[0]);
        assert!((marg[1] - p1).abs() < 0.03, "marg1 {}", marg[1]);
    }

    #[test]
    fn gibbs_stationary_distribution_matches_exact_enumeration() {
        // Small RBM: compare long-chain visible histogram with exact P(v).
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let rbm = Rbm::random(3, 2, 0.8, &mut rng);
        let exact = crate::exact::visible_distribution(&rbm);
        let samples = sample_model(&rbm, 20000, 200, 1, &mut rng);
        let mut hist = [0.0; 8];
        for row in samples.axis_iter(Axis(0)) {
            let idx = row
                .iter()
                .enumerate()
                .fold(0usize, |acc, (i, &b)| acc | ((b as usize) << i));
            hist[idx] += 1.0;
        }
        for h in hist.iter_mut() {
            *h /= samples.nrows() as f64;
        }
        for (idx, (&emp, &ex)) in hist.iter().zip(exact.iter()).enumerate() {
            assert!(
                (emp - ex).abs() < 0.02,
                "state {idx}: emp {emp} vs exact {ex}"
            );
        }
    }
}
