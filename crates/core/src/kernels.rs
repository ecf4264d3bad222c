//! Bit-packed binary-state kernels for the sampling hot path.
//!
//! Every hot loop in the stack moves RBM states around as dense `f64`
//! 0/1 matrices and pays a full dense GEMM for products whose left
//! operand is binary. The paper's accelerator economics rest on exactly
//! this structure — binary node states driving an analog vector-matrix
//! product (§3.2) — and the same structure is free throughput in
//! software: a batch of binary states packs 64 states per `u64` word,
//! and `states · W` reduces to *summing the weight rows selected by the
//! set bits* — no multiplies, zero states skipped 64 at a time.
//!
//! The packed product is **bit-identical** to the scalar row-loop
//! reference kernel ([`scalar_ref_gemm`]): both accumulate the fan-in
//! terms of every output element in ascending index order, and skipping
//! an exact-zero term is a floating-point no-op (`x + 0.0 == x` for
//! every finite `x`, and `1.0 · w == w`). It is equally bit-identical
//! to the vendored `ndarray` GEMM's non-transposed kernels, which
//! accumulate in the same `ikj` order — so flipping a sampler between
//! the packed and dense kernels never changes a sampled bit, only the
//! time it takes to produce it. [`GsKernel`](crate::GsKernel) selects
//! between them; [`HardwareCounters`](ember_substrate::HardwareCounters)
//! records which kernel served each call
//! (`packed_kernel_calls` / `dense_kernel_calls`).
//!
//! # Example
//!
//! ```
//! use ember_core::kernels::{binary_gemm, BitMatrix};
//! use ndarray::{arr1, arr2, Array2};
//!
//! let states = arr2(&[[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]);
//! let w = arr2(&[[0.5, -1.0], [9.0, 9.0], [0.25, 2.0]]);
//! let bits = BitMatrix::from_batch(&states).expect("binary batch");
//! let out = binary_gemm(&bits, &w, Some(&arr1(&[0.0, 1.0]).view()));
//! assert_eq!(out, arr2(&[[0.75, 2.0], [0.0, 1.0]]));
//! ```

use ndarray::{Array2, ArrayView1};

// The SIMD kernel tier lives next to the vendored GEMM it accelerates
// (`ndarray::simd`); re-exported here so substrate code, benches, and
// deployments can inspect or pin the tier through the facade.
pub use ndarray::simd::{active_tier, force_tier, simd_active, SimdTier};

/// Number of `u64` words needed to hold `cols` bits.
fn words_for(cols: usize) -> usize {
    cols.div_ceil(64)
}

/// A batch of binary states packed row-major into `u64` words: bit `j`
/// of row `r` lives at word `j / 64`, bit position `j % 64` (LSB
/// first). Rows are padded to a whole word; padding bits are always
/// zero.
///
/// This is the in-flight representation of everything the substrates
/// exchange after the first half-step: comparator latches, thresholded
/// BRIM node voltages, Metropolis spin read-outs — all exact `{0, 1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix of the given logical dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    /// Packs a dense batch of **exactly binary** levels. Returns `None`
    /// if any entry is neither `0.0` nor `1.0` — the caller falls back
    /// to the dense kernel (multi-bit DTC gray levels, or a hostile
    /// input).
    ///
    /// The scan is branchless per element (comparisons fold into the
    /// word and a validity accumulator), so packing costs a small
    /// fraction of the product it enables even on wide batches.
    pub fn from_batch(batch: &Array2<f64>) -> Option<Self> {
        let (rows, cols) = batch.dim();
        let mut packed = BitMatrix::zeros(rows, cols);
        let data = batch.as_slice();
        let mut all_binary = true;
        for (r, row) in data.chunks(cols.max(1)).enumerate().take(rows) {
            let words = &mut packed.words[r * packed.words_per_row..(r + 1) * packed.words_per_row];
            for (word, chunk) in words.iter_mut().zip(row.chunks(64)) {
                let mut w = 0u64;
                for (j, &x) in chunk.iter().enumerate() {
                    w |= u64::from(x == 1.0) << j;
                    all_binary &= x == 0.0 || x == 1.0;
                }
                *word = w;
            }
        }
        all_binary.then_some(packed)
    }

    /// Logical row count.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Logical column count (bits per row).
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Words per packed row (`ncols` rounded up to a whole `u64`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Mutable packed words of row `r` — the seam the BRIM's packed
    /// threshold reads write into without materializing a `Vec<bool>`.
    ///
    /// Writers must keep the padding bits (bit positions ≥ `ncols()` of
    /// the last word) zero; [`binary_gemm`] relies on it.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_words_mut(&mut self, r: usize) -> &mut [u64] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// The bit at `(r, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, r: usize, j: usize) -> bool {
        assert!(j < self.cols, "col {j} out of range ({} cols)", self.cols);
        (self.row_words(r)[j / 64] >> (j % 64)) & 1 == 1
    }

    /// Sets the bit at `(r, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set(&mut self, r: usize, j: usize, bit: bool) {
        assert!(j < self.cols, "col {j} out of range ({} cols)", self.cols);
        let word = &mut self.row_words_mut(r)[j / 64];
        if bit {
            *word |= 1u64 << (j % 64);
        } else {
            *word &= !(1u64 << (j % 64));
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Unpacks to the dense `f64` 0/1 representation the `Substrate`
    /// API exchanges.
    pub fn to_dense(&self) -> Array2<f64> {
        let mut data = vec![0.0; self.rows * self.cols];
        for (r, out) in data.chunks_mut(self.cols.max(1)).enumerate() {
            for (w, &word) in self.row_words(r).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    out[j] = 1.0;
                    bits &= bits - 1;
                }
            }
        }
        Array2::from_shape_vec((self.rows, self.cols), data).expect("consistent dims")
    }
}

/// One packed row × `W`: set bits collected in ascending index order
/// into the `idx` scratch, then accumulated by the register-tiled tier
/// kernel ([`ndarray::simd::sum_selected_rows`]) — the only arithmetic
/// the packed product performs (selected weight rows are *summed*,
/// never multiplied).
fn binary_gemv(
    orow: &mut [f64],
    row_words: &[u64],
    wdata: &[f64],
    out_width: usize,
    idx: &mut Vec<u32>,
) {
    idx.clear();
    for (wi, &word) in row_words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            idx.push((wi * 64) as u32 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    ndarray::simd::sum_selected_rows(orow, wdata, out_width, idx);
}

/// Minimum batch-chunk size for the transposed-mask block path: below
/// this the per-row register-tiled kernel wins (the block path's gain
/// is amortizing the weight stream over many rows).
const BLOCK_MIN_ROWS: usize = 8;

/// Whether the transposed-mask block kernel beats the per-row stream
/// for this product shape — empirical dispatch for the L2-resident
/// regime (measured at 784×200 and 108×1024). The block scatter wins
/// when the output rows are short enough that the per-row weight
/// stream is stride-bound but long enough to amortize the per-weight-row
/// mask walk, the fan-in is tall enough that deduplicating the weight
/// stream matters, and the output row stride does not alias a handful
/// of L1 sets (4 KiB-multiple strides map every row to the same sets
/// and thrash the scatter's working set).
fn block_path_wins(fan_in: usize, out_width: usize, rows_here: usize) -> bool {
    rows_here >= BLOCK_MIN_ROWS
        && fan_in >= 2 * out_width
        && (128..=448).contains(&out_width)
        && !(out_width * 8).is_multiple_of(4096)
}

/// `states · W (+ bias)` with a bit-packed binary left operand: the
/// weight rows selected by the set bits are accumulated in ascending
/// index order — no multiplies, zero states skipped a word (64 states)
/// at a time. Batches whose shape favors it ([`block_path_wins`]) go
/// through the transposed-mask block kernel
/// ([`ndarray::simd::sum_selected_rows_block`], in 64-row chunks),
/// which streams the weight matrix from L2 **once per chunk** instead
/// of once per batch row — the per-row formulation is memory-bound, not
/// compute-bound, as soon as the matrix outgrows L1. Other shapes and
/// small batches use the per-row register-tiled kernel
/// ([`ndarray::simd::sum_selected_rows`]). Per output element the
/// addition chain is identical either way, so the choice is invisible
/// in the bits.
///
/// Bit-identical to [`scalar_ref_gemm`] on the unpacked batch (see the
/// module docs for why), and therefore to the dense `ikj` GEMM the
/// samplers used before this kernel existed.
///
/// # Panics
///
/// Panics if `states.ncols() != w.nrows()` or the bias length differs
/// from `w.ncols()`.
pub fn binary_gemm(
    states: &BitMatrix,
    w: &Array2<f64>,
    bias: Option<&ArrayView1<'_, f64>>,
) -> Array2<f64> {
    let (fan_in, out_width) = w.dim();
    assert_eq!(states.ncols(), fan_in, "fan-in mismatch (binary_gemm)");
    if let Some(b) = bias {
        assert_eq!(b.len(), out_width, "fan-out mismatch (binary_gemm)");
    }
    let wdata = w.as_slice();
    let wpr = states.words_per_row();
    let nrows = states.nrows();
    let mut data = vec![0.0; nrows * out_width];
    let mut idx: Vec<u32> = Vec::with_capacity(fan_in);
    let mut tmask: Vec<u64> = Vec::new();
    let mut start = 0;
    while start < nrows {
        let rows_here = (nrows - start).min(64);
        if !block_path_wins(fan_in, out_width, rows_here) {
            for r in start..start + rows_here {
                binary_gemv(
                    &mut data[r * out_width..(r + 1) * out_width],
                    &states.words[r * wpr..(r + 1) * wpr],
                    wdata,
                    out_width,
                    &mut idx,
                );
            }
        } else {
            // Transpose this chunk's selection bits: bit `r` of
            // `tmask[i]` says chunk row `r` selects weight row `i`.
            tmask.clear();
            tmask.resize(fan_in, 0);
            for r in 0..rows_here {
                let row_words = &states.words[(start + r) * wpr..(start + r + 1) * wpr];
                for (wi, &word) in row_words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let i = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        tmask[i] |= 1u64 << r;
                    }
                }
            }
            ndarray::simd::sum_selected_rows_block(
                &mut data[start * out_width..(start + rows_here) * out_width],
                out_width,
                wdata,
                &tmask,
            );
        }
        start += rows_here;
    }
    if let Some(b) = bias {
        for orow in data.chunks_mut(out_width.max(1)) {
            for (o, &x) in orow.iter_mut().zip(b.iter()) {
                *o += x;
            }
        }
    }
    Array2::from_shape_vec((states.nrows(), out_width), data).expect("consistent dims")
}

/// The scalar row-loop reference kernel: `out[r][j] = Σ_i states[r][i] ·
/// W[i][j] (+ bias[j])`, fan-in terms accumulated in ascending index
/// order, zero terms *included*. This is the summation order of the
/// original row-at-a-time sampling strategy, kept here as the pinned
/// ground truth the packed kernel is property-tested against.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn scalar_ref_gemm(
    states: &Array2<f64>,
    w: &Array2<f64>,
    bias: Option<&ArrayView1<'_, f64>>,
) -> Array2<f64> {
    let (fan_in, out_width) = w.dim();
    assert_eq!(states.ncols(), fan_in, "fan-in mismatch (scalar_ref_gemm)");
    if let Some(b) = bias {
        assert_eq!(b.len(), out_width, "fan-out mismatch (scalar_ref_gemm)");
    }
    let mut out = Array2::zeros((states.nrows(), out_width));
    for r in 0..states.nrows() {
        for j in 0..out_width {
            let mut acc = 0.0;
            for i in 0..fan_in {
                acc += states[[r, i]] * w[[i, j]];
            }
            if let Some(b) = bias {
                acc += b[j];
            }
            out[[r, j]] = acc;
        }
    }
    out
}

/// Whether every entry of `batch` is exactly `0.0` or `1.0` — the
/// precondition for packing, and the documented domain on which every
/// `Substrate::quantize_batch` implementation is the identity (so
/// callers may skip quantization entirely for binary feedback).
pub fn is_binary(batch: &Array2<f64>) -> bool {
    batch.iter().all(|&x| x == 0.0 || x == 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndarray::{arr1, arr2};
    use rand::{Rng, SeedableRng};

    #[test]
    fn pack_rejects_non_binary() {
        let gray = arr2(&[[0.0, 0.5], [1.0, 0.0]]);
        assert!(BitMatrix::from_batch(&gray).is_none());
        assert!(!is_binary(&gray));
        let binary = arr2(&[[0.0, 1.0], [1.0, 0.0]]);
        assert!(BitMatrix::from_batch(&binary).is_some());
        assert!(is_binary(&binary));
    }

    #[test]
    fn pack_unpack_roundtrip_at_word_boundaries() {
        for cols in [1, 63, 64, 65, 127, 128, 130] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(cols as u64);
            let dense = Array2::from_shape_fn((3, cols), |_| f64::from(rng.random_bool(0.5)));
            let bits = BitMatrix::from_batch(&dense).expect("binary");
            assert_eq!(bits.to_dense(), dense, "cols = {cols}");
            assert_eq!(bits.count_ones() as f64, dense.sum(), "cols = {cols}");
        }
    }

    #[test]
    fn get_set_round_trip() {
        let mut bits = BitMatrix::zeros(2, 70);
        assert!(!bits.get(1, 69));
        bits.set(1, 69, true);
        assert!(bits.get(1, 69));
        assert_eq!(bits.count_ones(), 1);
        bits.set(1, 69, false);
        assert_eq!(bits.count_ones(), 0);
    }

    #[test]
    fn binary_gemm_selects_weight_rows() {
        let states = arr2(&[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]);
        let w = arr2(&[[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]]);
        let bits = BitMatrix::from_batch(&states).unwrap();
        let out = binary_gemm(&bits, &w, None);
        assert_eq!(out, arr2(&[[101.0, 202.0], [10.0, 20.0]]));
        let with_bias = binary_gemm(&bits, &w, Some(&arr1(&[0.5, -0.5]).view()));
        assert_eq!(with_bias, arr2(&[[101.5, 201.5], [10.5, 19.5]]));
    }

    #[test]
    fn binary_gemm_bit_identical_to_scalar_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // Batch sizes straddle the per-row/block threshold and the
        // 64-row chunk boundary of the transposed-mask block path, and
        // the last two shapes satisfy `block_path_wins` so the
        // transposed scatter itself is exercised end to end.
        for &(rows, fan_in, out) in &[
            (5, 67, 9),
            (1, 64, 3),
            (8, 130, 17),
            (64, 300, 130),
            (67, 521, 131),
        ] {
            let states = Array2::from_shape_fn((rows, fan_in), |_| f64::from(rng.random_bool(0.4)));
            let w = Array2::from_shape_fn((fan_in, out), |_| rng.random_range(-1.0..1.0));
            let bias = ndarray::Array1::from_shape_fn(out, |_| rng.random_range(-1.0..1.0));
            let bits = BitMatrix::from_batch(&states).unwrap();
            let packed = binary_gemm(&bits, &w, Some(&bias.view()));
            let reference = scalar_ref_gemm(&states, &w, Some(&bias.view()));
            let packed_bits: Vec<u64> = packed.iter().map(|x| x.to_bits()).collect();
            let ref_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(packed_bits, ref_bits, "{rows}x{fan_in}x{out}");
        }
    }

    #[test]
    fn binary_gemm_bit_identical_to_dense_dot() {
        // The vendored GEMM's non-transposed kernels accumulate in the
        // same ikj order, so the packed product must match `.dot()`
        // bitwise too — the property that lets the packed kernel be the
        // default without perturbing a single golden bit.
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let states = Array2::from_shape_fn((6, 100), |_| f64::from(rng.random_bool(0.3)));
        let w = Array2::from_shape_fn((100, 11), |_| rng.random_range(-1.0..1.0));
        let bits = BitMatrix::from_batch(&states).unwrap();
        let packed = binary_gemm(&bits, &w, None);
        let dense = states.dot(&w);
        let packed_bits: Vec<u64> = packed.iter().map(|x| x.to_bits()).collect();
        let dense_bits: Vec<u64> = dense.iter().map(|x| x.to_bits()).collect();
        assert_eq!(packed_bits, dense_bits);
    }

    #[test]
    #[should_panic(expected = "fan-in mismatch")]
    fn binary_gemm_rejects_mismatched_fan_in() {
        let bits = BitMatrix::zeros(1, 3);
        let w = Array2::zeros((4, 2));
        let _ = binary_gemm(&bits, &w, None);
    }
}
