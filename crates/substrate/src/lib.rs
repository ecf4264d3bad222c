//! # ember-substrate
//!
//! The seam at the heart of the paper's claim: the Ising substrate is a
//! *drop-in replacement* for software Gibbs sampling in the RBM training
//! loop (§3.2). This crate defines the [`Substrate`] trait — "given
//! programmed weights/biases and a clamped layer, produce conditional
//! samples for a whole minibatch" — so that every trainer can run over
//! any backend: the analog node-path model, the BRIM dynamical
//! simulator, a Metropolis annealer, or future hardware.
//!
//! The trait methods map one-to-one onto the paper's §3.2 operation
//! list for the Gibbs-sampler accelerator:
//!
//! | §3.2 operation | Trait method |
//! |---|---|
//! | 1–2. host programs the coupling matrix and biases (`m·n + m + n` words) | [`Substrate::program`] / [`Substrate::programming_cost`] |
//! | 3. visible units are clamped through DTCs | [`Substrate::quantize_batch`] |
//! | 4–5. the clamped side drives the free side, which settles and is read out | [`Substrate::sample_batch`], given the [`Side`] to sample |
//! | 6. alternate clamped sides for the k-step Gibbs equivalent | callers alternate [`Side::Hidden`] and [`Side::Visible`] |
//! | 7–8. the host accumulates `⟨v⁺ᵀh⁺⟩ − ⟨v⁻ᵀh⁻⟩` and updates weights | host-side (trainers); substrate only reports [`Substrate::counters`] |
//!
//! Implementations live next to their physics: `ember_core` ships
//! `SoftwareGibbs` (the analog node path of Fig. 12), `BrimSubstrate`
//! (clamp/anneal/read on the bipartite BRIM of Fig. 3), and
//! `AnnealerSubstrate` (Metropolis sampling over the bipartite
//! coupling). `ember_rbm`'s `CdTrainer`/`PcdTrainer` accept any of them
//! through `train_epoch_with`/`train_epoch_par_with`.
//!
//! The trait is object-safe: sampling takes `&mut dyn RngCore`, so a
//! `Vec<Box<dyn Substrate>>` of heterogeneous backends can be driven by
//! one loop (see `examples/substrate_sampling.rs`).
//!
//! Three extensions serve the sharded serving layer (`ember_serve`):
//!
//! * [`Substrate::sample_batch_rows`] samples a whole batch under **one
//!   RNG stream per row**, so a row's bits depend only on its own
//!   stream — the property that makes request coalescing invisible in
//!   the samples;
//! * [`ReplicableSubstrate`] (sealed) adds
//!   [`ReplicableSubstrate::clone_boxed`], letting a service clone a
//!   fabricated prototype into per-shard replicas behind `dyn`; and
//! * the **fallible seam** — [`Substrate::try_program`] /
//!   [`Substrate::try_sample_batch_rows`] returning [`SubstrateFault`],
//!   plus [`Substrate::programmed_checksum`] readback checked against
//!   [`couplings_checksum`] — models hardware that can drop a transfer,
//!   realize stuck-at couplings, or read out garbage. Both methods are
//!   default-implemented over the infallible API (existing backends
//!   never fail); the seed-driven [`ChaosSubstrate`] decorator injects
//!   faults through it for resilience testing, and
//!   `ember_serve`'s recovery path (reprogram-before-retry, sanity
//!   screens, circuit breaker) consumes it.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use ndarray::{s, Array2, ArrayView1, ArrayView2};
use rand::RngCore;

mod chaos;
mod fault;
mod instrument;

pub use chaos::{ChaosConfig, ChaosSubstrate};
pub use fault::{couplings_checksum, SubstrateFault};
pub use instrument::HardwareCounters;

/// The side a half-step samples; the other side is clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Forward: clamp the visible side, sample the hidden side.
    Hidden,
    /// Reverse: clamp the hidden side, sample the visible side.
    Visible,
}

/// A conditional-sampling backend for bipartite energy-based models.
///
/// The contract, per minibatch of training (Algorithm 1 with the
/// sampling steps offloaded):
///
/// 1. the host calls [`Substrate::program`] with its master weights;
/// 2. data rows are clamped through [`Substrate::quantize_batch`];
/// 3. alternating [`Side::Hidden`] / [`Side::Visible`]
///    [`Substrate::sample_batch`] calls realize the k-step Gibbs
///    equivalent;
/// 4. the host reads [`Substrate::counters`] to convert the work into
///    execution time and energy (crate `ember-perf`).
///
/// Outputs are hard `{0, 1}` read-outs (comparator latches or
/// thresholded node voltages). Inputs are clamp levels in `[0, 1]` —
/// binary samples fed back from the previous half-step, or multi-bit
/// DTC-quantized gray levels for the data.
///
/// Sampling methods take `&mut dyn RngCore` (rather than a generic
/// parameter) to keep the trait object-safe; the randomness models the
/// substrate's thermal noise, so a fixed seed reproduces a run exactly.
pub trait Substrate {
    /// Short stable identifier (used in reports and diagnostics).
    fn name(&self) -> &'static str;

    /// Number of visible-side nodes `m`.
    fn visible_len(&self) -> usize;

    /// Number of hidden-side nodes `n`.
    fn hidden_len(&self) -> usize;

    /// §3.2 steps 1–2: programs the coupling array and biases.
    ///
    /// `weights` is `m × n`; the substrate realizes them with whatever
    /// non-idealities its physics imposes (static variation, spin-domain
    /// embedding, …). Implementations must count
    /// [`Substrate::programming_cost`] words on
    /// `counters().host_words_transferred`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch with the substrate's fabricated size.
    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    );

    /// §3.2 step 3: converts raw clamp levels to what the physical clamp
    /// units can actually drive (e.g. DTC quantization). The identity by
    /// default. Binary samples fed back between half-steps are already
    /// exact `{0, 1}`, on which any implementation must be the identity,
    /// so callers only quantize the *data* once per minibatch.
    fn quantize_batch(&self, levels: &Array2<f64>) -> Array2<f64> {
        levels.clone()
    }

    /// §3.2 steps 4–5, whole minibatch: clamp each row of `clamp`
    /// (levels in `[0, 1]`) on the side opposite `side`, let `side`
    /// settle, read it out. `clamp` is `batch × m` when sampling
    /// [`Side::Hidden`] and `batch × n` when sampling [`Side::Visible`];
    /// the result is `batch × n` or `batch × m` samples in `{0, 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `clamp` has a row width other than the clamped side's
    /// length.
    fn sample_batch(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rng: &mut dyn RngCore,
    ) -> Array2<f64>;

    /// [`Substrate::sample_batch`] with **one RNG stream per row**: row
    /// `i` of the output is drawn using `rngs[i]` and nothing else.
    ///
    /// The contract — relied on by the serving layer's request
    /// coalescing — is that row `i` depends only on the programmed
    /// parameters, `clamp` row `i`, and the state of `rngs[i]`:
    /// *never* on the other rows of the batch or on state left behind
    /// by earlier calls. Under this contract the same row produces the
    /// same bits whether it is sampled alone or coalesced into any
    /// batch, on any replica programmed with the same parameters.
    ///
    /// The default implementation runs one 1-row
    /// [`Substrate::sample_batch`] per row under that row's stream, so
    /// its counters are the sum of those calls; implementations with a
    /// batched fast path (GEMM over the whole batch) may override it,
    /// and implementations with persistent physical state must
    /// re-initialize that state per row to honor the contract.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len() != clamp.nrows()` or on row-width
    /// mismatch.
    fn sample_batch_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        assert_eq!(clamp.nrows(), rngs.len(), "one RNG stream per row");
        let width = match side {
            Side::Hidden => self.hidden_len(),
            Side::Visible => self.visible_len(),
        };
        let mut out = Array2::zeros((clamp.nrows(), width));
        for (i, rng) in rngs.iter_mut().enumerate() {
            let row = clamp.slice(s![i..=i, ..]).to_owned();
            out.row_mut(i)
                .assign(&self.sample_batch(side, &row, &mut **rng).row(0));
        }
        out
    }

    /// Forward half-step: [`Substrate::sample_batch`] of
    /// [`Side::Hidden`] with `visible` (`batch × m`) clamped.
    fn sample_hidden_batch(&mut self, visible: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        self.sample_batch(Side::Hidden, visible, rng)
    }

    /// Reverse half-step: [`Substrate::sample_batch`] of
    /// [`Side::Visible`] with `hidden` (`batch × n`) clamped.
    fn sample_visible_batch(&mut self, hidden: &Array2<f64>, rng: &mut dyn RngCore) -> Array2<f64> {
        self.sample_batch(Side::Visible, hidden, rng)
    }

    /// Forward half-step, one RNG stream per row:
    /// [`Substrate::sample_batch_rows`] of [`Side::Hidden`].
    fn sample_hidden_batch_rows(
        &mut self,
        visible: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.sample_batch_rows(Side::Hidden, visible, rngs)
    }

    /// Reverse half-step, one RNG stream per row:
    /// [`Substrate::sample_batch_rows`] of [`Side::Visible`].
    fn sample_visible_batch_rows(
        &mut self,
        hidden: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.sample_batch_rows(Side::Visible, hidden, rngs)
    }

    /// Fallible counterpart of [`Substrate::program`] — §3.2 steps 1–2
    /// on hardware that can drop the transfer or realize corrupted
    /// couplings. The default forwards to the infallible method and
    /// never fails, so existing backends stay source-compatible; faulty
    /// hardware (and the [`ChaosSubstrate`] test decorator) overrides
    /// this to surface [`SubstrateFault`]s.
    ///
    /// On `Err` the coupling array's contents are **undefined**: the
    /// caller must re-program before the next sampling call.
    fn try_program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) -> Result<(), SubstrateFault> {
        self.program(weights, visible_bias, hidden_bias);
        Ok(())
    }

    /// Fallible counterpart of [`Substrate::sample_batch_rows`] (same
    /// one-stream-per-row contract) — the read the serving layer makes.
    /// Defaults to the infallible method (never fails).
    ///
    /// A failed call may have consumed an arbitrary amount of each
    /// row's RNG stream; retries must restart every chain from its seed
    /// (which is also what makes a successful retry bit-identical to
    /// the fault-free run).
    fn try_sample_batch_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Result<Array2<f64>, SubstrateFault> {
        Ok(self.sample_batch_rows(side, clamp, rngs))
    }

    /// Whether this substrate can actually fail or corrupt: `true`
    /// means the fallible seam may return `Err` or hand back non-binary
    /// read-outs, so callers should pay for detection (per-read sanity
    /// screens, readback verification). The default `false` declares an
    /// infallible backend — recovery layers skip their screens
    /// entirely, keeping the fault machinery at **zero cost on the
    /// fault-free hot path**. [`ChaosSubstrate`] overrides this to
    /// `true`.
    fn is_fallible(&self) -> bool {
        false
    }

    /// Readback checksum over the couplings the substrate **actually
    /// realized** in its last programming event, if the hardware
    /// supports readback. `None` (the default) means no readback path —
    /// the host must trust the transfer.
    ///
    /// When `Some`, a recovery layer compares it against the checksum
    /// of the intended image ([`couplings_checksum`]) to detect stuck-at
    /// corruption before sampling garbage.
    fn programmed_checksum(&self) -> Option<u64> {
        None
    }

    /// Host→substrate words one programming event transfers
    /// (`m·n + m + n` in the paper's §3.2 accounting).
    fn programming_cost(&self) -> u64 {
        (self.visible_len() * self.hidden_len() + self.visible_len() + self.hidden_len()) as u64
    }

    /// Cumulative hardware event counters since construction.
    fn counters(&self) -> &HardwareCounters;

    /// Mutable counter access: hosts account their own events here
    /// (positive/negative sample counts, host MAC ops) so one counter
    /// set describes the whole accelerated run.
    fn counters_mut(&mut self) -> &mut HardwareCounters;
}

impl<S: Substrate + ?Sized> Substrate for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn visible_len(&self) -> usize {
        (**self).visible_len()
    }
    fn hidden_len(&self) -> usize {
        (**self).hidden_len()
    }
    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        (**self).program(weights, visible_bias, hidden_bias);
    }
    fn quantize_batch(&self, levels: &Array2<f64>) -> Array2<f64> {
        (**self).quantize_batch(levels)
    }
    fn sample_batch(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rng: &mut dyn RngCore,
    ) -> Array2<f64> {
        (**self).sample_batch(side, clamp, rng)
    }
    fn sample_batch_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        (**self).sample_batch_rows(side, clamp, rngs)
    }
    fn try_program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) -> Result<(), SubstrateFault> {
        (**self).try_program(weights, visible_bias, hidden_bias)
    }
    fn try_sample_batch_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Result<Array2<f64>, SubstrateFault> {
        (**self).try_sample_batch_rows(side, clamp, rngs)
    }
    fn is_fallible(&self) -> bool {
        (**self).is_fallible()
    }
    fn programmed_checksum(&self) -> Option<u64> {
        (**self).programmed_checksum()
    }
    fn programming_cost(&self) -> u64 {
        (**self).programming_cost()
    }
    fn counters(&self) -> &HardwareCounters {
        (**self).counters()
    }
    fn counters_mut(&mut self) -> &mut HardwareCounters {
        (**self).counters_mut()
    }
}

mod sealed {
    /// Seals [`super::ReplicableSubstrate`]: the blanket impl below is
    /// its *only* implementation. Backends opt in by being
    /// `Substrate + Clone + Send + 'static`; nothing downstream can
    /// implement the trait by hand (and thereby break the
    /// clone-is-a-faithful-replica guarantee the serving layer shards
    /// on).
    pub trait Sealed {}
    impl<S: Clone + Send + 'static> Sealed for S {}
}

/// A [`Substrate`] that can replicate itself behind a trait object.
///
/// A replica produced by [`ReplicableSubstrate::clone_boxed`] carries
/// the *fabricated identity* of the original — frozen variation maps,
/// programmed parameters, thermal-bath settings, accumulated counters —
/// exactly as `Clone` would. The serving layer fabricates one prototype
/// per model and clones it into every worker shard, so all shards
/// realize the same physical machine.
///
/// The trait is sealed: it is implemented automatically for every
/// `Substrate + Clone + Send + 'static` type (including
/// `Box<dyn ReplicableSubstrate>` itself, which is `Clone` via
/// `clone_boxed`) and cannot be implemented manually.
pub trait ReplicableSubstrate: Substrate + Send + sealed::Sealed {
    /// Clones this substrate into a fresh boxed replica.
    fn clone_boxed(&self) -> Box<dyn ReplicableSubstrate>;
}

impl<S: Substrate + Clone + Send + 'static> ReplicableSubstrate for S {
    fn clone_boxed(&self) -> Box<dyn ReplicableSubstrate> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn ReplicableSubstrate> {
    fn clone(&self) -> Self {
        (**self).clone_boxed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndarray::Array1;

    /// A minimal deterministic stub used to pin the trait's default
    /// methods (per-row batches, programming cost, Box forwarding).
    #[derive(Clone)]
    struct Stub {
        m: usize,
        n: usize,
        counters: HardwareCounters,
    }

    impl Substrate for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn visible_len(&self) -> usize {
            self.m
        }
        fn hidden_len(&self) -> usize {
            self.n
        }
        fn program(
            &mut self,
            weights: &ArrayView2<'_, f64>,
            _bv: &ArrayView1<'_, f64>,
            _bh: &ArrayView1<'_, f64>,
        ) {
            assert_eq!(weights.dim(), (self.m, self.n));
            self.counters.host_words_transferred += self.programming_cost();
        }
        fn sample_batch(
            &mut self,
            side: Side,
            clamp: &Array2<f64>,
            _rng: &mut dyn RngCore,
        ) -> Array2<f64> {
            // "All hidden units latch 1, all visible 0" — enough to
            // observe shapes.
            match side {
                Side::Hidden => Array2::from_elem((clamp.nrows(), self.n), 1.0),
                Side::Visible => Array2::zeros((clamp.nrows(), self.m)),
            }
        }
        fn counters(&self) -> &HardwareCounters {
            &self.counters
        }
        fn counters_mut(&mut self) -> &mut HardwareCounters {
            &mut self.counters
        }
    }

    fn rng() -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn programming_cost_is_words_of_section_3_2() {
        let s = Stub {
            m: 784,
            n: 200,
            counters: HardwareCounters::new(),
        };
        assert_eq!(s.programming_cost(), 784 * 200 + 784 + 200);
    }

    #[test]
    fn quantize_default_is_identity() {
        let s = Stub {
            m: 2,
            n: 1,
            counters: HardwareCounters::new(),
        };
        let x = Array2::from_shape_fn((2, 2), |(i, j)| (i + j) as f64 / 3.0);
        assert_eq!(s.quantize_batch(&x), x);
    }

    #[test]
    fn default_batch_rows_methods_use_one_stream_per_row() {
        let mut s = Stub {
            m: 3,
            n: 2,
            counters: HardwareCounters::new(),
        };
        let v = Array2::from_elem((4, 3), 1.0);
        let mut rngs: Vec<rand::rngs::StdRng> = (0..4).map(|_| rng()).collect();
        let mut dyn_rngs: Vec<&mut dyn RngCore> =
            rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        let h = s.sample_hidden_batch_rows(&v, &mut dyn_rngs);
        assert_eq!(h, Array2::from_elem((4, 2), 1.0));
        let mut dyn_rngs: Vec<&mut dyn RngCore> =
            rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        let back = s.sample_visible_batch_rows(&h, &mut dyn_rngs);
        assert_eq!(back, Array2::zeros((4, 3)));
    }

    #[test]
    #[should_panic(expected = "one RNG stream per row")]
    fn batch_rows_rejects_stream_count_mismatch() {
        let mut s = Stub {
            m: 2,
            n: 2,
            counters: HardwareCounters::new(),
        };
        let v = Array2::zeros((3, 2));
        let mut r = rng();
        let mut dyn_rngs: Vec<&mut dyn RngCore> = vec![&mut r];
        let _ = s.sample_hidden_batch_rows(&v, &mut dyn_rngs);
    }

    #[test]
    fn clone_boxed_replicates_fabricated_identity() {
        let mut proto: Box<dyn ReplicableSubstrate> = Box::new(Stub {
            m: 2,
            n: 3,
            counters: HardwareCounters::new(),
        });
        let w = Array2::zeros((2, 3));
        let bv = Array1::zeros(2);
        let bh = Array1::zeros(3);
        proto.program(&w.view(), &bv.view(), &bh.view());
        // A replica carries programmed state and counters of the original…
        let mut replica = proto.clone();
        assert_eq!(replica.name(), "stub");
        assert_eq!(replica.visible_len(), 2);
        assert_eq!(replica.counters().host_words_transferred, 2 * 3 + 2 + 3);
        // …and diverges independently afterwards.
        replica.counters_mut().phase_points += 7;
        assert_eq!(proto.counters().phase_points, 0);
        assert_eq!(replica.counters().phase_points, 7);
    }

    #[test]
    fn boxed_substrate_forwards() {
        let mut s: Box<dyn Substrate> = Box::new(Stub {
            m: 2,
            n: 2,
            counters: HardwareCounters::new(),
        });
        let w = Array2::zeros((2, 2));
        let b = Array1::zeros(2);
        s.program(&w.view(), &b.view(), &b.view());
        assert_eq!(s.counters().host_words_transferred, 8);
        assert_eq!(s.name(), "stub");
        let out = s.sample_hidden_batch(&Array2::zeros((4, 2)), &mut rng());
        assert_eq!(out.dim(), (4, 2));
    }
}
