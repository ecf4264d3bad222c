//! Property-based tests of the bit-packed binary-state kernel layer
//! (`ember_core::kernels`): pack/unpack round-trips at widths that are
//! not multiples of 64, and bit-identity of the packed GEMM against the
//! scalar row-loop reference kernel on random binary batches.

use ember_core::kernels::{binary_gemm, is_binary, scalar_ref_gemm, BitMatrix};
use ndarray::{Array1, Array2};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A random binary batch with the given density, from a derived seed.
fn binary_batch(rows: usize, cols: usize, density: f64, seed: u64) -> Array2<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Array2::from_shape_fn((rows, cols), |_| f64::from(rng.random_bool(density)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packing any binary batch and unpacking it is the identity, at
    /// widths straddling word boundaries (1..=200 covers 0, 1, 2, 3
    /// whole words plus every residue class that matters).
    #[test]
    fn pack_unpack_round_trips(
        rows in 1usize..12,
        cols in 1usize..200,
        density in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let dense = binary_batch(rows, cols, density, seed);
        let bits = BitMatrix::from_batch(&dense).expect("binary batch packs");
        prop_assert_eq!(bits.nrows(), rows);
        prop_assert_eq!(bits.ncols(), cols);
        prop_assert_eq!(bits.words_per_row(), cols.div_ceil(64));
        prop_assert_eq!(bits.to_dense(), dense.clone());
        prop_assert_eq!(bits.count_ones() as f64, dense.sum());
        // Every bit individually agrees too.
        for r in 0..rows {
            for j in 0..cols {
                prop_assert_eq!(bits.get(r, j), dense[[r, j]] == 1.0);
            }
        }
    }

    /// The packed product is bit-identical to the scalar row-loop
    /// reference kernel on random binary batches — set-bit iteration
    /// order is index order, and skipping exact zeros is a
    /// floating-point no-op.
    #[test]
    fn binary_gemm_is_bit_identical_to_scalar_reference(
        rows in 1usize..8,
        fan_in in 1usize..150,
        out in 1usize..12,
        density in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let states = binary_batch(rows, fan_in, density, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(1));
        let w = Array2::from_shape_fn((fan_in, out), |_| rng.random_range(-2.0..2.0));
        let bias = Array1::from_shape_fn(out, |_| rng.random_range(-1.0..1.0));
        let bits = BitMatrix::from_batch(&states).expect("binary batch packs");
        for use_bias in [false, true] {
            let b = use_bias.then(|| bias.view());
            let packed = binary_gemm(&bits, &w, b.as_ref());
            let reference = scalar_ref_gemm(&states, &w, b.as_ref());
            let packed_bits: Vec<u64> = packed.iter().map(|x| x.to_bits()).collect();
            let ref_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(packed_bits, ref_bits, "use_bias = {}", use_bias);
        }
    }

    /// Any batch containing a non-binary entry refuses to pack (the
    /// callers' dense-fallback trigger), and `is_binary` agrees.
    #[test]
    fn non_binary_entries_refuse_to_pack(
        rows in 1usize..6,
        cols in 1usize..80,
        poke_r in any::<u64>(),
        poke_c in any::<u64>(),
        level in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let mut dense = binary_batch(rows, cols, 0.5, seed);
        prop_assume!(level != 0.0 && level != 1.0);
        dense[[poke_r as usize % rows, poke_c as usize % cols]] = level;
        prop_assert!(!is_binary(&dense));
        prop_assert!(BitMatrix::from_batch(&dense).is_none());
    }
}

/// SIMD-tier bit-identity at deliberately non-lane-multiple widths.
///
/// These compare the *dispatched* kernels (whatever tier this host
/// detected — AVX2, NEON, or scalar) against the explicit scalar
/// references via `ndarray::simd`'s `_scalar` entry points, so on a
/// vector host every case pins vector-vs-scalar bitwise equality at
/// widths that exercise the remainder loops (63/65/127 columns) and
/// row counts that straddle the GEMM's 4/8-row blocking (1–9 rows).
/// On a scalar host they degenerate to self-consistency and still pass.
mod simd_tier {
    use super::*;
    use ndarray::simd;

    /// Weights with order-sensitive magnitudes: any reassociation of
    /// the accumulation shows up in the low mantissa bits.
    fn weight_matrix(rows: usize, cols: usize, seed: u64) -> Array2<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Array2::from_shape_fn((rows, cols), |_| rng.random_range(-3.0..3.0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Path (a): `binary_gemm`'s selected-row accumulation — the
        /// packed product on the active tier vs the scalar row-loop
        /// reference, at widths straddling both the 64-bit word and
        /// the 4-lane vector boundaries.
        #[test]
        fn packed_gemm_simd_matches_scalar_reference(
            rows in 1usize..10,
            cols_pick in 0usize..6,
            fan_in in 1usize..80,
            density in 0.0f64..=1.0,
            seed in any::<u64>(),
        ) {
            let cols = [63usize, 64, 65, 127, 128, 129][cols_pick];
            let states = binary_batch(rows, fan_in, density, seed);
            let w = weight_matrix(fan_in, cols, seed.wrapping_add(7));
            let bits = BitMatrix::from_batch(&states).expect("binary batch packs");
            let fast = binary_gemm(&bits, &w, None);
            let slow = scalar_ref_gemm(&states, &w, None);
            let fast_bits: Vec<u64> = fast.iter().map(|x| x.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(fast_bits, slow_bits);
        }

        /// Path (a), block dispatch: shapes chosen to satisfy
        /// `block_path_wins` (≥8 rows per chunk, fan-in ≥ 2× the
        /// output width, output width in 128..=448) so the
        /// transposed-mask block scatter runs — including row counts
        /// that straddle the 64-row chunk boundary — and must stay
        /// bit-identical to the scalar row-loop reference.
        #[test]
        fn packed_gemm_block_path_matches_scalar_reference(
            rows_pick in 0usize..4,
            out_pick in 0usize..4,
            extra_fan_in in 0usize..60,
            density in 0.0f64..=1.0,
            seed in any::<u64>(),
        ) {
            let rows = [8usize, 23, 64, 67][rows_pick];
            let out = [128usize, 129, 200, 255][out_pick];
            let fan_in = 2 * out + extra_fan_in;
            let states = binary_batch(rows, fan_in, density, seed);
            let w = weight_matrix(fan_in, out, seed.wrapping_add(11));
            let bits = BitMatrix::from_batch(&states).expect("binary batch packs");
            let fast = binary_gemm(&bits, &w, None);
            let slow = scalar_ref_gemm(&states, &w, None);
            let fast_bits: Vec<u64> = fast.iter().map(|x| x.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(fast_bits, slow_bits);
        }

        /// Path (b): the dense GEMM's `ikj` inner loop and dot kernel —
        /// `.dot()` on the active tier vs an explicitly scalar-primitive
        /// reference GEMM, with a dense (no sparse-path) left operand
        /// at 1–9 rows (exercising both the 4-row blocks and the
        /// trailing-row axpy path).
        #[test]
        fn dense_gemm_simd_matches_scalar_primitives(
            m in 1usize..10,
            k in 1usize..40,
            n_pick in 0usize..3,
            seed in any::<u64>(),
        ) {
            let n = [63usize, 65, 127][n_pick];
            let a = weight_matrix(m, k, seed);
            let b = weight_matrix(k, n, seed.wrapping_add(1));
            let fast = a.dot(&b);
            // Scalar reference built from the `_scalar` primitives in
            // the exact blocked-ikj order of the vendored kernel.
            let mut slow = vec![0.0f64; m * n];
            {
                let bd = b.as_slice();
                let mut r = 0;
                while r + 4 <= m {
                    for p in 0..k {
                        let brow = &bd[p * n..(p + 1) * n];
                        let coeffs = [a[[r, p]], a[[r + 1, p]], a[[r + 2, p]], a[[r + 3, p]]];
                        for (t, &c) in coeffs.iter().enumerate() {
                            let row = &mut slow[(r + t) * n..(r + t + 1) * n];
                            simd::axpy_scalar(row, c, brow);
                        }
                    }
                    r += 4;
                }
                for i in r..m {
                    for p in 0..k {
                        let aip = a[[i, p]];
                        if aip != 0.0 {
                            let row = &mut slow[i * n..(i + 1) * n];
                            simd::axpy_scalar(row, aip, &bd[p * n..(p + 1) * n]);
                        }
                    }
                }
            }
            let fast_bits: Vec<u64> = fast.iter().map(|x| x.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(fast_bits, slow_bits);
        }

        /// The four SIMD slice primitives themselves, dispatched vs
        /// scalar, on random data at remainder-exercising lengths.
        #[test]
        fn simd_primitives_match_scalar_bitwise(
            n_pick in 0usize..5,
            x in -3.0f64..3.0,
            seed in any::<u64>(),
        ) {
            let n = [1usize, 3, 63, 65, 127][n_pick];
            let a = weight_matrix(1, n, seed).row(0).to_owned();
            let b = weight_matrix(1, n, seed.wrapping_add(9)).row(0).to_owned();
            let (a, b) = (a.as_slice().to_vec(), b.as_slice().to_vec());

            prop_assert_eq!(
                simd::dot(&a, &b).to_bits(),
                simd::dot_scalar(&a, &b).to_bits()
            );

            let mut o_fast = b.clone();
            let mut o_slow = b.clone();
            simd::axpy(&mut o_fast, x, &a);
            simd::axpy_scalar(&mut o_slow, x, &a);
            prop_assert_eq!(
                o_fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                o_slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );

            let mut o_fast = b.clone();
            let mut o_slow = b;
            simd::add_assign(&mut o_fast, &a);
            simd::add_assign_scalar(&mut o_slow, &a);
            prop_assert_eq!(
                o_fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                o_slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
