//! Equivalence of the bipartite BRIM's `O(m·n)` two-GEMV local-field
//! kernel with the dense `(m+n)²` coupling product it replaces.

use ember_brim::{BipartiteBrim, BrimConfig};
use ember_ising::BipartiteProblem;
use ndarray::{Array1, Array2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_problem(m: usize, n: usize, seed: u64) -> BipartiteProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = Array2::from_shape_fn((m, n), |_| rng.random_range(-1.0..1.0));
    let bv = Array1::from_shape_fn(m, |_| rng.random_range(-0.5..0.5));
    let bh = Array1::from_shape_fn(n, |_| rng.random_range(-0.5..0.5));
    BipartiteProblem::new(w, bv, bh).expect("consistent dims")
}

fn randomized_pair(problem: &BipartiteProblem, seed: u64) -> (BipartiteBrim, BipartiteBrim) {
    let fast = BipartiteBrim::new(problem.clone(), BrimConfig::default());
    let dense = BipartiteBrim::new(problem.clone(), BrimConfig::default()).with_dense_kernel(true);
    // Drive both to the same random voltage state through identical
    // flip-free steps from identical rngs.
    let mut fast = fast;
    let mut dense = dense;
    let mut r1 = StdRng::seed_from_u64(seed);
    let mut r2 = StdRng::seed_from_u64(seed);
    for _ in 0..3 {
        fast.step(0.3, &mut r1);
        dense.step(0.3, &mut r2);
    }
    (fast, dense)
}

#[test]
fn fast_local_field_matches_dense_product_to_1e12() {
    for (m, n, seed) in [(7, 5, 1), (16, 16, 2), (33, 9, 3), (12, 40, 4)] {
        let problem = random_problem(m, n, seed);
        let (fast, dense) = randomized_pair(&problem, seed);
        assert!(dense.uses_dense_kernel() && !fast.uses_dense_kernel());
        let lf = fast.local_field();
        let ld = dense.local_field();
        assert_eq!(lf.len(), m + n);
        for i in 0..(m + n) {
            assert!(
                (lf[i] - ld[i]).abs() < 1e-12,
                "{m}x{n} node {i}: fast {} vs dense {}",
                lf[i],
                ld[i]
            );
        }
    }
}

#[test]
fn fast_and_dense_trajectories_agree() {
    // Whole trajectories (including annealing flips from identical rngs)
    // stay within accumulated round-off of each other.
    let problem = random_problem(12, 8, 9);
    let mut fast = BipartiteBrim::new(problem.clone(), BrimConfig::default());
    let mut dense = BipartiteBrim::new(problem, BrimConfig::default()).with_dense_kernel(true);
    let mut r1 = StdRng::seed_from_u64(5);
    let mut r2 = StdRng::seed_from_u64(5);
    for step in 0..200 {
        fast.step(0.01, &mut r1);
        dense.step(0.01, &mut r2);
        for (a, b) in fast
            .visible_voltages()
            .iter()
            .zip(dense.visible_voltages().iter())
        {
            assert!((a - b).abs() < 1e-9, "visible diverged at step {step}");
        }
        for (a, b) in fast
            .hidden_voltages()
            .iter()
            .zip(dense.hidden_voltages().iter())
        {
            assert!((a - b).abs() < 1e-9, "hidden diverged at step {step}");
        }
    }
}

#[test]
fn clamped_settle_agrees_between_kernels() {
    let problem = random_problem(10, 6, 11);
    let levels: Vec<f64> = (0..10).map(|i| f64::from(i % 3 == 0)).collect();
    let mut fast = BipartiteBrim::new(problem.clone(), BrimConfig::default());
    let mut dense = BipartiteBrim::new(problem, BrimConfig::default()).with_dense_kernel(true);
    fast.clamp_visible(&levels);
    dense.clamp_visible(&levels);
    fast.settle(400);
    dense.settle(400);
    assert_eq!(fast.read_hidden_bits(), dense.read_hidden_bits());
    for (a, b) in fast
        .hidden_voltages()
        .iter()
        .zip(dense.hidden_voltages().iter())
    {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn reprogram_keeps_kernels_equivalent() {
    let first = random_problem(8, 4, 21);
    let second = random_problem(8, 4, 22);
    let mut fast = BipartiteBrim::new(first.clone(), BrimConfig::default());
    let mut dense = BipartiteBrim::new(first, BrimConfig::default()).with_dense_kernel(true);
    fast.reprogram(second.clone());
    dense.reprogram(second);
    let lf = fast.local_field();
    let ld = dense.local_field();
    for i in 0..lf.len() {
        assert!((lf[i] - ld[i]).abs() < 1e-12, "node {i} after reprogram");
    }
}
