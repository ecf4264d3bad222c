use std::sync::Arc;

use ember_substrate::{HardwareCounters, Side};
use ndarray::{Array1, Array2, ArrayView1, ArrayView2};

use crate::kernels::{binary_gemm, BitMatrix};

/// What a software substrate holds after §3.2 steps 1–2: the realized
/// coupling image and the biases. Both software backends program and
/// read their fields through it.
///
/// The image is the realized weights `W ⊙ variation`, a transpose the
/// visible-side product reads as contiguous rows, and — under a noisy
/// front end — their element-wise squares, which the closed-form
/// coupler noise needs (`Σᵢ (Wᵢⱼ uᵢ)²` is one more product). Clones
/// share the image; a clone copies it on its first program with other
/// weights and rewrites its own copy in place after that, so shard
/// replicas of an unchanged model hold one image between them.
#[derive(Debug, Clone)]
pub(crate) struct Couplings {
    image: Arc<Image>,
    visible_bias: Array1<f64>,
    hidden_bias: Array1<f64>,
}

#[derive(Debug, Clone)]
struct Image {
    w: Array2<f64>,
    wt: Array2<f64>,
    /// `W ⊙ W` and its transpose, kept only under a noisy front end.
    sq: Option<[Array2<f64>; 2]>,
}

impl Couplings {
    /// Zero couplings and biases; `noisy` keeps the squared arrays.
    pub(crate) fn zeros(visible: usize, hidden: usize, noisy: bool) -> Self {
        let pair = || [(visible, hidden), (hidden, visible)].map(Array2::zeros);
        let [w, wt] = pair();
        Couplings {
            image: Arc::new(Image {
                w,
                wt,
                sq: noisy.then(pair),
            }),
            visible_bias: Array1::zeros(visible),
            hidden_bias: Array1::zeros(hidden),
        }
    }

    /// The realized weights, `visible × hidden`.
    pub(crate) fn weights(&self) -> &Array2<f64> {
        &self.image.w
    }

    /// The programmed bias of the sampled side.
    pub(crate) fn bias(&self, side: Side) -> &Array1<f64> {
        match side {
            Side::Hidden => &self.hidden_bias,
            Side::Visible => &self.visible_bias,
        }
    }

    /// Programs `weights ⊙ factors` (`weights` as is without a
    /// variation map) and the biases.
    ///
    /// Re-programming identical weights is the volatile-substrate norm
    /// for direct callers and chaos-wrapped replicas, so the image is
    /// only rewritten when some realized weight differs from the held
    /// one under `==`: a zero of the other sign keeps the held bits, and
    /// a NaN always rewrites. The rewrite is in place (a fresh
    /// weight-sized array page-faults on every training minibatch),
    /// unless the image is shared with a clone, which keeps it.
    ///
    /// # Panics
    ///
    /// Panics if the weights or either bias differ from the fabricated
    /// size.
    pub(crate) fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
        factors: Option<&Array2<f64>>,
    ) {
        let dim = self.image.w.dim();
        assert_eq!(weights.dim(), dim, "fabricated size");
        assert_eq!((visible_bias.len(), hidden_bias.len()), dim, "bias lengths");
        // A transposed view is copied once into row-major order.
        let owned;
        let weights = match weights.as_slice() {
            Some(weights) => weights,
            None => {
                owned = weights.to_owned();
                owned.as_slice()
            }
        };
        match factors {
            Some(factors) => {
                self.realize(weights.iter().zip(factors.as_slice()).map(|(&w, &f)| w * f))
            }
            None => self.realize(weights.iter().copied()),
        }
        self.visible_bias = visible_bias.to_owned();
        self.hidden_bias = hidden_bias.to_owned();
    }

    fn realize(&mut self, realized: impl Iterator<Item = f64> + Clone) {
        let moved = realized
            .clone()
            .zip(self.image.w.as_slice())
            .any(|(w, &held)| w != held);
        if !moved {
            return;
        }
        let image = Arc::make_mut(&mut self.image);
        for (held, w) in image.w.as_mut_slice().iter_mut().zip(realized) {
            *held = w;
        }
        transpose_into(&image.w, &mut image.wt);
        if let Some([sq, sq_t]) = &mut image.sq {
            square_into(&image.w, sq);
            square_into(&image.wt, sq_t);
        }
    }

    /// The field product of one half-step, without the bias: `clamp · W`
    /// sampling [`Side::Hidden`], `clamp · Wᵀ` sampling
    /// [`Side::Visible`], and under a noisy front end the coupler-noise
    /// variance `(clamp ⊙ clamp) · (W ⊙ W)` on the same side.
    ///
    /// An exactly binary clamp runs the bit-packed kernel (for binary
    /// `u`, `u ⊙ u == u`, so the variance reuses the packed bits); gray
    /// DTC levels run the dense GEMM. Both multiply a row-major array,
    /// so they accumulate in the same order and agree bit for bit. The
    /// call is counted against its kernel, and against the SIMD tier
    /// when one is active (both kernels run their inner loops on it).
    pub(crate) fn fields(
        &self,
        side: Side,
        clamp: &Array2<f64>,
        counters: &mut HardwareCounters,
    ) -> (Array2<f64>, Option<Array2<f64>>) {
        let image = &*self.image;
        let (w, sq) = match side {
            Side::Hidden => (&image.w, image.sq.as_ref().map(|[sq, _]| sq)),
            Side::Visible => (&image.wt, image.sq.as_ref().map(|[_, sq_t]| sq_t)),
        };
        counters.simd_kernel_calls += u64::from(ndarray::simd::simd_active());
        if let Some(bits) = BitMatrix::from_batch(clamp) {
            counters.packed_kernel_calls += 1;
            let var = sq.map(|sq| binary_gemm(&bits, sq, None));
            return (binary_gemm(&bits, w, None), var);
        }
        counters.dense_kernel_calls += 1;
        let var = sq.map(|sq| clamp.mapv(|x| x * x).dot(sq));
        (clamp.dot(w), var)
    }
}

/// Writes the transpose of `a` into `t`, a strip of sixteen rows of `a`
/// at a time (the last strip holds the rest): the strip (25.6 KB at 200
/// columns) stays in L1 while its column `j` fills adjacent entries of
/// row `j` of `t`, two 64-byte lines written whole. With the copy in
/// front of it, this took ~0.85× the time of 32×32 tiles at 784×200
/// and ~0.8× at 108×1024 (2-vCPU x86-64 host); 8-row strips were no
/// faster than the tiles at 784×200.
fn transpose_into(a: &Array2<f64>, t: &mut Array2<f64>) {
    const STRIP: usize = 16;
    let (m, n) = a.dim();
    if a.is_empty() {
        return;
    }
    let (a, t) = (a.as_slice(), t.as_mut_slice());
    for (s, strip) in a.chunks(STRIP * n).enumerate() {
        let rows = strip.len() / n;
        for (j, row) in t.chunks_exact_mut(m).enumerate() {
            for (r, x) in row[s * STRIP..][..rows].iter_mut().enumerate() {
                *x = strip[r * n + j];
            }
        }
    }
}

/// Writes the element-wise squares of `a` into `sq`.
fn square_into(a: &Array2<f64>, sq: &mut Array2<f64>) {
    for (sq, &w) in sq.as_mut_slice().iter_mut().zip(a.iter()) {
        *sq = w * w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn bits(a: &Array2<f64>) -> Vec<u64> {
        a.iter().map(|x| x.to_bits()).collect()
    }

    /// The realized, transposed and squared arrays, bit for bit.
    fn held_bits(c: &Couplings) -> Vec<Vec<u64>> {
        let mut held = vec![bits(&c.image.w), bits(&c.image.wt)];
        if let Some(sq) = &c.image.sq {
            held.extend(sq.iter().map(bits));
        }
        held
    }

    fn program(c: &mut Couplings, w: &Array2<f64>, factors: Option<&Array2<f64>>) {
        let (m, n) = w.dim();
        c.program(
            &w.view(),
            &Array1::zeros(m).view(),
            &Array1::zeros(n).view(),
            factors,
        );
    }

    #[test]
    fn reprogramming_holds_what_a_fresh_program_holds() {
        for noisy in [false, true] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let factors =
                noisy.then(|| Array2::from_shape_fn((19, 7), |_| rng.random_range(0.8..1.2)));
            let mut draw = || Array2::from_shape_fn((19, 7), |_| rng.random_range(-0.8..0.8));
            let (w1, w2) = (draw(), draw());
            let proto = Couplings::zeros(19, 7, noisy);
            let mut c = proto.clone();
            for w in [&w1, &w2, &w1] {
                program(&mut c, w, factors.as_ref());
            }
            let mut fresh = proto.clone();
            program(&mut fresh, &w1, factors.as_ref());
            assert_eq!(held_bits(&c), held_bits(&fresh));
            let realized = match &factors {
                Some(f) => &w1 * f,
                None => w1.clone(),
            };
            assert_eq!(bits(c.weights()), bits(&realized));
            assert_eq!(bits(&c.image.wt), bits(&realized.t().to_owned()));
            let squares = |a: &Array2<f64>| bits(&a.mapv(|w| w * w));
            assert_eq!(
                c.image.sq.as_ref().map(|sq| sq.each_ref().map(bits)),
                noisy.then(|| [squares(&c.image.w), squares(&c.image.wt)])
            );

            // Equal under `==` but a zero of the other sign: the held
            // arrays keep their bits.
            let mut zeros = w1.clone();
            zeros[[2, 3]] = 0.0;
            program(&mut c, &zeros, factors.as_ref());
            let held = held_bits(&c);
            zeros[[2, 3]] = -0.0;
            program(&mut c, &zeros, factors.as_ref());
            assert_eq!(held_bits(&c), held);
        }
    }

    #[test]
    fn transpose_into_writes_the_transpose_at_any_shape() {
        // Row counts below, at and around the 16-row strip, and empty.
        for (m, n) in [
            (0, 5),
            (5, 0),
            (1, 1),
            (15, 3),
            (16, 3),
            (17, 13),
            (32, 1),
            (70, 9),
        ] {
            let a = Array2::from_shape_fn((m, n), |(i, j)| (i * n + j) as f64 + 0.5);
            let mut t = Array2::zeros((n, m));
            transpose_into(&a, &mut t);
            assert_eq!(bits(&t), bits(&a.t().to_owned()), "{m}×{n}");
        }
    }

    #[test]
    fn binary_fields_equal_the_dense_products_on_both_sides() {
        // 70 visible units span two packed words with a ragged tail.
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let (m, n) = (70, 9);
        let w = Array2::from_shape_fn((m, n), |_| rng.random_range(-1.0..1.0));
        let mut c = Couplings::zeros(m, n, true);
        program(&mut c, &w, None);
        let wt = w.t().to_owned();
        let sq = |a: &Array2<f64>| a.mapv(|x| x * x);
        let mut counters = HardwareCounters::new();
        for _ in 0..20 {
            for (side, fan_in, weights) in [(Side::Hidden, m, &w), (Side::Visible, n, &wt)] {
                let clamp = Array2::from_shape_fn((5, fan_in), |_| f64::from(rng.random_bool(0.5)));
                let (fields, var) = c.fields(side, &clamp, &mut counters);
                assert_eq!(bits(&fields), bits(&clamp.dot(weights)), "{side:?}");
                let var = var.expect("noisy image");
                assert_eq!(bits(&var), bits(&clamp.dot(&sq(weights))), "{side:?}");
            }
        }
        assert_eq!(
            (counters.packed_kernel_calls, counters.dense_kernel_calls),
            (40, 0)
        );

        let gray = Array2::from_shape_fn((3, m), |_| rng.random_range(0.0..1.0));
        let (fields, _) = c.fields(Side::Hidden, &gray, &mut counters);
        assert_eq!(bits(&fields), bits(&gray.dot(&w)));
        assert_eq!(
            (counters.packed_kernel_calls, counters.dense_kernel_calls),
            (40, 1)
        );
        let tier = u64::from(ndarray::simd::simd_active());
        assert_eq!(counters.simd_kernel_calls, 41 * tier);
    }
}
