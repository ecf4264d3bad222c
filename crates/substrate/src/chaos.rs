//! Deterministic fault injection over any substrate: the
//! [`ChaosSubstrate`] decorator.
//!
//! The paper's hardware lives in a fault regime software backends never
//! see: volatile analog weights re-programmed every minibatch (§3.2),
//! comparators fed by thermal noise, node voltages that drift. This
//! module makes that regime testable — wrap any
//! [`ReplicableSubstrate`] in a [`ChaosSubstrate`] and it will, on a
//! **seed-driven schedule**, corrupt programmings (stuck-at weight
//! bits), corrupt sample read-outs (comparator latches stuck mid-rail,
//! surfaced as non-binary cells), spike latency, raise outright
//! [`SubstrateFault`]s, and — for supervision tests — panic once.
//!
//! Faults are injected only through the **fallible** entry points
//! (`try_program` / `try_sample_batch_rows`): the infallible API
//! forwards to the inner substrate untouched and remains the golden
//! path. When the schedule injects nothing, a fallible call is
//! bit-identical to the inner substrate's — the chaos RNG is private,
//! so the wrapped machine's sampled bits never depend on it. That is
//! the property the chaos suite leans on: a request that survives (or
//! is successfully retried) returns exactly the fault-free samples.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ndarray::{Array2, ArrayView1, ArrayView2};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::{
    couplings_checksum, HardwareCounters, ReplicableSubstrate, Side, Substrate, SubstrateFault,
};

/// Fault schedule of a [`ChaosSubstrate`]: per-event probabilities,
/// all driven by one seeded RNG so a schedule reproduces exactly.
///
/// Rates are per *operation* (one `try_program`, one
/// `try_sample_batch_rows` call), not per element. All rates default
/// to zero — the default config injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the private chaos RNG.
    pub seed: u64,
    /// Probability that a `try_program` fails outright
    /// ([`SubstrateFault::Programming`]).
    pub program_fault_rate: f64,
    /// Probability that a `try_program` completes but realizes
    /// **corrupted** couplings: a few weight cells are forced to a
    /// stuck value. Detected by readback checksum
    /// ([`Substrate::programmed_checksum`]).
    pub program_corruption_rate: f64,
    /// Probability that a `try_sample_batch_rows` call fails outright
    /// ([`SubstrateFault::Read`]).
    pub read_fault_rate: f64,
    /// Probability that a `try_sample_batch_rows` call returns a batch
    /// with a few cells latched mid-rail (written as `0.5`) — caught by
    /// the host's non-binary sanity screen.
    pub read_corruption_rate: f64,
    /// Probability that a `try_sample_batch_rows` call stalls for
    /// [`ChaosConfig::latency_spike`] before answering.
    pub latency_spike_rate: f64,
    /// Duration of an injected latency spike.
    pub latency_spike: Duration,
    /// Panic on the n-th sampling call (0-indexed, counted across the
    /// replica family — the fuse is shared by clones and burns once),
    /// simulating a wedged driver thread for shard-supervision tests.
    pub panic_on_sample_call: Option<u64>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0,
            program_fault_rate: 0.0,
            program_corruption_rate: 0.0,
            read_fault_rate: 0.0,
            read_corruption_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::from_millis(1),
            panic_on_sample_call: None,
        }
    }
}

impl ChaosConfig {
    /// A schedule injecting nothing, seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }
    }

    /// Sets every fault class (program fault, program corruption, read
    /// fault, read corruption) to probability `p` — the "x% injected
    /// fault rate" knob of the chaos suite and bench.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    #[must_use]
    pub fn with_fault_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be a probability");
        self.program_fault_rate = p;
        self.program_corruption_rate = p;
        self.read_fault_rate = p;
        self.read_corruption_rate = p;
        self
    }

    /// Sets the outright-failure rates (`try_program` /
    /// `try_sample_batch_rows` returning `Err`) only.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    #[must_use]
    pub fn with_hard_fault_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be a probability");
        self.program_fault_rate = p;
        self.read_fault_rate = p;
        self
    }

    /// Sets the corruption rates (stuck-at programmings, mid-rail
    /// read-outs) only.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    #[must_use]
    pub fn with_corruption_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be a probability");
        self.program_corruption_rate = p;
        self.read_corruption_rate = p;
        self
    }

    /// Enables latency spikes: with probability `p` a sampling call
    /// stalls for `spike` first.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    #[must_use]
    pub fn with_latency_spikes(mut self, p: f64, spike: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be a probability");
        self.latency_spike_rate = p;
        self.latency_spike = spike;
        self
    }

    /// Arms the one-shot panic fuse: the `n`-th sampling call (counted
    /// across all clones of the wrapped replica) panics.
    #[must_use]
    pub fn with_panic_on_sample_call(mut self, n: u64) -> Self {
        self.panic_on_sample_call = Some(n);
        self
    }
}

/// A fault-injecting decorator around any boxed [`ReplicableSubstrate`].
///
/// `ChaosSubstrate` is itself `Substrate + Clone + Send`, hence a
/// `ReplicableSubstrate`: a serving layer can wrap a fabricated
/// prototype once and shard it as usual — every shard replica then runs
/// its own deterministic fault schedule (clones start from the same
/// chaos RNG state; their schedules diverge with the call sequences
/// they serve). The one-shot panic fuse is the exception: it is shared
/// across the whole clone family via an `Arc`, so re-provisioned
/// replicas do not re-panic — exactly what a shard-recovery test needs.
///
/// Injected events are accounted on the inner substrate's
/// [`HardwareCounters`] (`substrate_faults`, `corrupted_programmings`,
/// `corrupted_reads`), so serving stats aggregate them for free.
///
/// # Example
///
/// ```
/// use ember_substrate::{ChaosConfig, ChaosSubstrate, Substrate, SubstrateFault};
/// # use ndarray::{Array1, Array2, ArrayView1, ArrayView2};
/// # use rand::RngCore;
/// # #[derive(Clone)]
/// # struct Stub(ember_substrate::HardwareCounters);
/// # impl Substrate for Stub {
/// #     fn name(&self) -> &'static str { "stub" }
/// #     fn visible_len(&self) -> usize { 2 }
/// #     fn hidden_len(&self) -> usize { 2 }
/// #     fn program(&mut self, _: &ArrayView2<'_, f64>, _: &ArrayView1<'_, f64>, _: &ArrayView1<'_, f64>) {}
/// #     fn sample_batch(&mut self, _: ember_substrate::Side, c: &Array2<f64>, _: &mut dyn RngCore) -> Array2<f64> { Array2::zeros((c.nrows(), 2)) }
/// #     fn counters(&self) -> &ember_substrate::HardwareCounters { &self.0 }
/// #     fn counters_mut(&mut self) -> &mut ember_substrate::HardwareCounters { &mut self.0 }
/// # }
/// let inner = Box::new(Stub(Default::default()));
/// // Always-failing schedule: every fallible programming errors out.
/// let mut chaotic = ChaosSubstrate::new(inner, ChaosConfig::new(7).with_hard_fault_rate(1.0));
/// let w = Array2::zeros((2, 2));
/// let b = Array1::zeros(2);
/// assert!(matches!(
///     chaotic.try_program(&w.view(), &b.view(), &b.view()),
///     Err(SubstrateFault::Programming(_))
/// ));
/// assert_eq!(chaotic.counters().substrate_faults, 1);
/// ```
#[derive(Clone)]
pub struct ChaosSubstrate {
    inner: Box<dyn ReplicableSubstrate>,
    config: ChaosConfig,
    chaos_rng: StdRng,
    /// Sampling calls seen by *this* replica (drives the panic fuse).
    sample_calls: u64,
    /// Shared one-shot fuse: the first replica in the clone family to
    /// hit `panic_on_sample_call` burns it and panics; everyone after
    /// (including re-provisioned replicas) runs clean.
    panic_fuse: Arc<AtomicBool>,
    /// Checksum of the couplings most recently realized in `inner`
    /// (post-corruption — this is what readback would see).
    realized_checksum: Option<u64>,
}

impl std::fmt::Debug for ChaosSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosSubstrate")
            .field("inner", &self.inner.name())
            .field("config", &self.config)
            .field("sample_calls", &self.sample_calls)
            .finish()
    }
}

impl ChaosSubstrate {
    /// Wraps `inner` under the given fault schedule.
    pub fn new(inner: Box<dyn ReplicableSubstrate>, config: ChaosConfig) -> Self {
        let chaos_rng = StdRng::seed_from_u64(config.seed);
        ChaosSubstrate {
            inner,
            config,
            chaos_rng,
            sample_calls: 0,
            panic_fuse: Arc::new(AtomicBool::new(false)),
            realized_checksum: None,
        }
    }

    /// The fault schedule.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.chaos_rng.random::<f64>() < p
    }

    /// Pre-sampling chaos of the fallible read
    /// ([`Substrate::try_sample_batch_rows`]): burn the panic fuse if
    /// armed, stall on a latency spike, raise a hard read fault.
    /// `Ok(())` means the read may proceed.
    fn before_sample(&mut self) -> Result<(), SubstrateFault> {
        let call = self.sample_calls;
        self.sample_calls += 1;
        if let Some(n) = self.config.panic_on_sample_call {
            if call >= n
                && self
                    .panic_fuse
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                panic!("chaos: injected panic on sampling call {call}");
            }
        }
        if self.roll(self.config.latency_spike_rate) {
            std::thread::sleep(self.config.latency_spike);
        }
        if self.roll(self.config.read_fault_rate) {
            self.inner.counters_mut().substrate_faults += 1;
            return Err(SubstrateFault::Read(format!(
                "chaos: injected read fault on sampling call {call}"
            )));
        }
        Ok(())
    }

    /// Post-sampling chaos: maybe latch a few cells mid-rail (`0.5`) —
    /// exactly the corruption the host's binary sanity screen exists to
    /// catch.
    fn corrupt_read(&mut self, batch: &mut Array2<f64>) {
        if !self.roll(self.config.read_corruption_rate) {
            return;
        }
        let (rows, cols) = batch.dim();
        let cells = (rows * cols).max(1);
        let stuck = self.chaos_rng.random_range(1..=3.min(cells));
        for _ in 0..stuck {
            let i = self.chaos_rng.random_range(0..rows);
            let j = self.chaos_rng.random_range(0..cols);
            batch[[i, j]] = 0.5;
        }
        self.inner.counters_mut().corrupted_reads += 1;
    }
}

impl Substrate for ChaosSubstrate {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn visible_len(&self) -> usize {
        self.inner.visible_len()
    }

    fn hidden_len(&self) -> usize {
        self.inner.hidden_len()
    }

    /// The infallible API is the golden path: no injection.
    fn program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) {
        self.inner.program(weights, visible_bias, hidden_bias);
        self.realized_checksum = Some(couplings_checksum(weights, visible_bias, hidden_bias));
    }

    fn quantize_batch(&self, levels: &Array2<f64>) -> Array2<f64> {
        self.inner.quantize_batch(levels)
    }

    fn sample_batch(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rng: &mut dyn RngCore,
    ) -> Array2<f64> {
        self.inner.sample_batch(side, clamp, rng)
    }

    fn sample_batch_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Array2<f64> {
        self.inner.sample_batch_rows(side, clamp, rngs)
    }

    fn try_program(
        &mut self,
        weights: &ArrayView2<'_, f64>,
        visible_bias: &ArrayView1<'_, f64>,
        hidden_bias: &ArrayView1<'_, f64>,
    ) -> Result<(), SubstrateFault> {
        if self.roll(self.config.program_fault_rate) {
            self.inner.counters_mut().substrate_faults += 1;
            self.realized_checksum = None;
            return Err(SubstrateFault::Programming(
                "chaos: injected programming transfer fault".into(),
            ));
        }
        if self.roll(self.config.program_corruption_rate) {
            // Stuck-at corruption: a few couplers latch at a rail value
            // instead of the programmed weight. The transfer "succeeds";
            // only readback can tell.
            let mut corrupted = weights.to_owned();
            let (m, n) = corrupted.dim();
            let stuck = self.chaos_rng.random_range(1..=3.min((m * n).max(1)));
            for _ in 0..stuck {
                let i = self.chaos_rng.random_range(0..m);
                let j = self.chaos_rng.random_range(0..n);
                corrupted[[i, j]] = if self.chaos_rng.random::<bool>() {
                    1.0e3
                } else {
                    0.0
                };
            }
            self.inner
                .program(&corrupted.view(), visible_bias, hidden_bias);
            self.realized_checksum = Some(couplings_checksum(
                &corrupted.view(),
                visible_bias,
                hidden_bias,
            ));
            self.inner.counters_mut().corrupted_programmings += 1;
            return Ok(());
        }
        self.program(weights, visible_bias, hidden_bias);
        Ok(())
    }

    fn try_sample_batch_rows(
        &mut self,
        side: Side,
        clamp: &Array2<f64>,
        rngs: &mut [&mut dyn RngCore],
    ) -> Result<Array2<f64>, SubstrateFault> {
        self.before_sample()?;
        let mut out = self.inner.try_sample_batch_rows(side, clamp, rngs)?;
        self.corrupt_read(&mut out);
        Ok(out)
    }

    /// Chaos-wrapped hardware is fallible by definition — recovery
    /// layers must pay for their detection screens here.
    fn is_fallible(&self) -> bool {
        true
    }

    /// The chaos wrapper *is* the readback path: it reports the
    /// checksum of whatever image it actually wrote into the inner
    /// substrate — corrupted or clean.
    fn programmed_checksum(&self) -> Option<u64> {
        self.realized_checksum
    }

    fn programming_cost(&self) -> u64 {
        self.inner.programming_cost()
    }

    fn counters(&self) -> &HardwareCounters {
        self.inner.counters()
    }

    fn counters_mut(&mut self) -> &mut HardwareCounters {
        self.inner.counters_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndarray::Array1;

    /// Deterministic inner stub: hidden samples are all ones, visible
    /// all zeros; programming records the weight image so corruption is
    /// observable.
    #[derive(Clone)]
    struct Probe {
        m: usize,
        n: usize,
        last_weights: Array2<f64>,
        counters: HardwareCounters,
    }

    impl Probe {
        fn new(m: usize, n: usize) -> Self {
            Probe {
                m,
                n,
                last_weights: Array2::zeros((m, n)),
                counters: HardwareCounters::new(),
            }
        }
    }

    impl Substrate for Probe {
        fn name(&self) -> &'static str {
            "probe"
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
            self.last_weights = weights.to_owned();
            self.counters.host_words_transferred += self.programming_cost();
        }
        fn sample_batch(
            &mut self,
            side: Side,
            clamp: &Array2<f64>,
            _rng: &mut dyn RngCore,
        ) -> Array2<f64> {
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

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// One fallible hidden read of `v`, every row on a fresh `rng()`.
    fn try_read<S: Substrate + ?Sized>(
        sub: &mut S,
        v: &Array2<f64>,
    ) -> Result<Array2<f64>, SubstrateFault> {
        let mut rngs: Vec<StdRng> = (0..v.nrows()).map(|_| rng()).collect();
        let mut lanes: Vec<&mut dyn RngCore> =
            rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        sub.try_sample_batch_rows(Side::Hidden, v, &mut lanes)
    }

    fn image(m: usize, n: usize) -> (Array2<f64>, Array1<f64>, Array1<f64>) {
        (
            Array2::from_shape_fn((m, n), |(i, j)| (i * n + j) as f64 * 0.01),
            Array1::zeros(m),
            Array1::zeros(n),
        )
    }

    #[test]
    fn zero_rate_schedule_is_transparent_and_bit_identical() {
        let (w, bv, bh) = image(3, 2);
        let mut plain: Box<dyn ReplicableSubstrate> = Box::new(Probe::new(3, 2));
        let mut chaotic = ChaosSubstrate::new(Box::new(Probe::new(3, 2)), ChaosConfig::new(1));
        plain.program(&w.view(), &bv.view(), &bh.view());
        chaotic
            .try_program(&w.view(), &bv.view(), &bh.view())
            .unwrap();
        let v = Array2::from_elem((4, 3), 1.0);
        let a = try_read(&mut plain, &v).unwrap();
        let b = try_read(&mut chaotic, &v).unwrap();
        assert_eq!(a, b);
        assert_eq!(chaotic.counters().total_fault_events(), 0);
        // The fallibility hint is what buys recovery layers their
        // zero-cost fault-free path: plain backends opt out, the chaos
        // wrapper opts in even at zero rates.
        assert!(!plain.is_fallible());
        assert!(chaotic.is_fallible());
    }

    #[test]
    fn hard_fault_schedule_raises_and_counts() {
        let (w, bv, bh) = image(2, 2);
        let mut chaotic = ChaosSubstrate::new(
            Box::new(Probe::new(2, 2)),
            ChaosConfig::new(2).with_hard_fault_rate(1.0),
        );
        assert!(matches!(
            chaotic.try_program(&w.view(), &bv.view(), &bh.view()),
            Err(SubstrateFault::Programming(_))
        ));
        let v = Array2::zeros((1, 2));
        assert!(matches!(
            try_read(&mut chaotic, &v),
            Err(SubstrateFault::Read(_))
        ));
        assert_eq!(chaotic.counters().substrate_faults, 2);
    }

    #[test]
    fn corrupted_programming_is_caught_by_readback_checksum() {
        let (w, bv, bh) = image(4, 3);
        let mut chaotic = ChaosSubstrate::new(
            Box::new(Probe::new(4, 3)),
            ChaosConfig::new(3).with_corruption_rate(1.0),
        );
        chaotic
            .try_program(&w.view(), &bv.view(), &bh.view())
            .unwrap();
        let expected = couplings_checksum(&w.view(), &bv.view(), &bh.view());
        let actual = chaotic.programmed_checksum().unwrap();
        assert_ne!(expected, actual, "corruption must shift the checksum");
        assert_eq!(chaotic.counters().corrupted_programmings, 1);
        // A clean (infallible) reprogram restores the intended image.
        chaotic.program(&w.view(), &bv.view(), &bh.view());
        assert_eq!(chaotic.programmed_checksum().unwrap(), expected);
    }

    #[test]
    fn corrupted_reads_are_non_binary() {
        let mut chaotic = ChaosSubstrate::new(
            Box::new(Probe::new(3, 4)),
            ChaosConfig::new(4).with_corruption_rate(1.0),
        );
        let v = Array2::zeros((2, 3));
        let out = try_read(&mut chaotic, &v).unwrap();
        assert!(
            out.iter().any(|&x| x != 0.0 && x != 1.0),
            "corruption must be detectable by a binary screen"
        );
        assert_eq!(chaotic.counters().corrupted_reads, 1);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = || {
            let mut chaotic = ChaosSubstrate::new(
                Box::new(Probe::new(2, 2)),
                ChaosConfig::new(9).with_hard_fault_rate(0.5),
            );
            let v = Array2::zeros((1, 2));
            (0..32)
                .map(|_| try_read(&mut chaotic, &v).is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
        assert!(run().iter().any(|&f| f), "a 50% schedule must fault");
        assert!(run().iter().any(|&f| !f), "a 50% schedule must also pass");
    }

    #[test]
    fn panic_fuse_burns_exactly_once_across_clones() {
        let proto = ChaosSubstrate::new(
            Box::new(Probe::new(2, 2)),
            ChaosConfig::new(5).with_panic_on_sample_call(0),
        );
        let mut replica_a = proto.clone();
        let mut replica_b = proto.clone();
        let v = Array2::zeros((1, 2));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = try_read(&mut replica_a, &v);
        }));
        assert!(panicked.is_err(), "the armed fuse must panic first");
        // The sibling replica shares the burnt fuse: it serves cleanly.
        assert!(try_read(&mut replica_b, &v).is_ok());
        // And so does the panicked replica itself on a later call.
        assert!(try_read(&mut replica_a, &v).is_ok());
    }

    #[test]
    fn clone_boxed_replicates_the_decorated_stack() {
        let chaotic = ChaosSubstrate::new(
            Box::new(Probe::new(3, 2)),
            ChaosConfig::new(6).with_fault_rate(0.25),
        );
        let replica: Box<dyn ReplicableSubstrate> = chaotic.clone_boxed();
        assert_eq!(replica.name(), "probe");
        assert_eq!(replica.visible_len(), 3);
        assert_eq!(replica.hidden_len(), 2);
    }
}
