//! The direct batched sampling path: the deterministic per-row chain
//! kernel that both the [`crate::SamplingService`] shards and offline
//! callers run.
//!
//! The kernel is the serving-side analogue of the paper's per-minibatch
//! §3.2 operation list: program once (done by the caller), quantize the
//! whole batch of clamp levels once, then realize every chain's k Gibbs
//! steps by alternating whole-batch `sample_batch_rows` half-steps of
//! `Side::Hidden` and `Side::Visible` on the substrate (through the
//! fallible `try_sample_batch_rows` in [`try_sample_rows`]). Each row
//! carries its **own RNG stream**, so a row's bits depend only on
//! (programmed model, its init, its seed, step count) — which is
//! exactly why the service may coalesce rows from unrelated requests
//! into one batch, or split them across shards, without changing a
//! single bit of anyone's response. Equivalence is pinned by
//! `crates/serve/tests/coalescing_equivalence.rs` at 1/2/8 shards.
//!
//! The same contract lets one shard run a large group on several
//! cores. A shard's core share is `max(1, cores / shards)`, with
//! `cores` the host's `std::thread::available_parallelism`, read once
//! per process by the first group large enough to split. On an
//! infallible backend the shard splits a group's
//! rows into `W = min(share, rows, max(1, work / SPLIT_FLOOR))`
//! contiguous blocks, with `work = rows · gibbs_steps · visible ·
//! hidden`. It runs the first block on its replica and every other one
//! on a clone of it, on one of the helper threads it keeps
//! (`SplitPool`). Each block keeps its rows' streams, so the rows are
//! the serial rows bit for bit. One shard on a two-core host splits a
//! 64-row, 5-step group at 108×1024 two ways; two shards on two cores
//! never split.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, OnceLock};
use std::thread::{self, JoinHandle};

use ndarray::Array2;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use ember_rbm::RngStreams;
use ember_substrate::{HardwareCounters, ReplicableSubstrate, Side, Substrate, SubstrateFault};

use crate::SampleRequest;

/// The least work, in units of rows · Gibbs steps · visible · hidden,
/// that each worker of a split group must get.
///
/// Measured on a 2-vCPU x86-64 host: a serial 64-row, 5-step chain at
/// 108×1024 (35 M units) takes 7–8 ms, about 0.2 ns per unit. Handing a
/// block to a parked helper and taking its answer back takes ~25 µs
/// (a scoped thread spawn and join ~16–30 µs), and cloning the replica
/// well under a microsecond. So a worker's `2^22` units are ~0.85 ms of
/// kernel and latch time, and the hand-off costs ~3% of it. Smaller
/// groups (a lone row, a few coalesced 784×200 rows) stay on the
/// shard's own thread.
pub(crate) const SPLIT_FLOOR: usize = 1 << 22;

/// How many of the host's cores one of `shards` shards may use:
/// `max(1, available_parallelism / shards)`. The core count is read
/// once per process: a call costs tens of microseconds and parses the
/// process's cgroup files.
pub(crate) fn cores_per_shard(shards: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get));
    (cores / shards.max(1)).max(1)
}

/// The workers a group of `rows` chains of `gibbs_steps` steps on a
/// `visible × hidden` substrate splits across, given a share of
/// `cores()`: `min(cores, rows, max(1, work / SPLIT_FLOOR))`, so that
/// each worker gets at least [`SPLIT_FLOOR`] units of work and one row.
///
/// A group too small to split never reads the core count, so a service
/// that never splits never allocates for it. (Read on the main thread
/// while the service was built, that one parse put the 108×1024 wave
/// benchmark's later set-ups into a page-faulting heap state: about
/// 41 k page faults per 3 s run against 11 k, and set-ups a third
/// slower.)
pub(crate) fn split_workers(
    cores: impl FnOnce() -> usize,
    rows: usize,
    gibbs_steps: usize,
    visible: usize,
    hidden: usize,
) -> usize {
    let work = [gibbs_steps, visible, hidden]
        .iter()
        .fold(rows, |work, &n| work.saturating_mul(n));
    let paid = rows.min(work / SPLIT_FLOOR);
    if paid <= 1 {
        return 1;
    }
    paid.min(cores()).max(1)
}

/// One independent Gibbs chain: an optional initial visible state and
/// the seed of the chain's private RNG stream.
#[derive(Debug, Clone)]
pub struct ChainRequest {
    /// Initial visible levels in `[0, 1]`. `None` draws a random visible
    /// state from the chain's own stream.
    pub init: Option<ndarray::Array1<f64>>,
    /// Seed of the chain's RNG stream.
    pub seed: u64,
}

/// Expands a [`SampleRequest`] into its chain rows: chain `j` gets
/// stream `RngStreams::new(master_seed).seed(j)`, so every chain draws
/// only from its own stream and its bits never depend on which other
/// chains share its batch. `master_seed` is the request's seed (or the
/// shard-lane seed assigned to a seedless request).
pub fn expand_request(request: &SampleRequest, master_seed: u64) -> Vec<ChainRequest> {
    let streams = RngStreams::new(master_seed);
    (0..request.n_samples)
        .map(|j| ChainRequest {
            init: request.clamp.clone(),
            seed: streams.seed(j as u64),
        })
        .collect()
}

/// Runs `gibbs_steps` full Gibbs steps for every chain in `rows` on an
/// already-programmed substrate and returns each chain's final visible
/// configuration (`rows.len() × visible_len`).
///
/// Row `i` of the result depends only on the programmed parameters and
/// `rows[i]` — never on the other rows (see
/// [`Substrate::sample_batch_rows`]) — so any partition of `rows`
/// into separate calls, on any identically-programmed replicas, yields
/// bit-identical rows.
///
/// # Panics
///
/// Panics if `gibbs_steps == 0`, `rows` is empty, or an init row's width
/// differs from the substrate's visible size.
pub fn sample_rows<S: Substrate + ?Sized>(
    substrate: &mut S,
    rows: &[ChainRequest],
    gibbs_steps: usize,
) -> Array2<f64> {
    run_chains(substrate, rows, gibbs_steps, |sub, side, clamp, lanes| {
        Ok(sub.sample_batch_rows(side, clamp, lanes))
    })
    .expect("the infallible seam never faults")
}

/// The fallible twin of [`sample_rows`]: identical chain semantics, but
/// every substrate read goes through the **fallible seam**
/// ([`Substrate::try_sample_batch_rows`]), and — on substrates
/// that declare themselves [`Substrate::is_fallible`] — every returned
/// batch passes the host's binary sanity screen
/// (`ember_core::recovery::screen_samples`) before it is fed back into
/// the next half-step, so a corrupted read is caught at the read that
/// produced it, never silently laundered into downstream bits.
/// Infallible backends (the default) skip the screens: the fault
/// machinery costs nothing on the fault-free hot path.
///
/// On an infallible substrate this is bit-identical to [`sample_rows`].
/// On a fault the per-row RNGs die with the call; the caller reprograms
/// the volatile couplings and re-invokes with the same `rows`, which
/// recreates every chain stream from its seed — a successful retry is
/// therefore bit-identical to a fault-free run.
///
/// # Errors
///
/// Any [`SubstrateFault`] raised by the substrate, plus
/// [`SubstrateFault::CorruptSamples`] from the sanity screen.
///
/// # Panics
///
/// As [`sample_rows`]: empty `rows`, zero `gibbs_steps`, or a clamp
/// width mismatch.
pub fn try_sample_rows<S: Substrate + ?Sized>(
    substrate: &mut S,
    rows: &[ChainRequest],
    gibbs_steps: usize,
) -> Result<Array2<f64>, SubstrateFault> {
    let screened = substrate.is_fallible();
    run_chains(substrate, rows, gibbs_steps, |sub, side, clamp, lanes| {
        let batch = sub.try_sample_batch_rows(side, clamp, lanes)?;
        if screened {
            ember_core::recovery::screen_samples(&batch)?;
        }
        Ok(batch)
    })
}

/// The helper threads one of `shards` shards splits its large groups
/// across, on its share of the cores ([`cores_per_shard`]).
///
/// A split group runs its first block on the shard's own thread and
/// every other block on a helper. Helpers start when a split first needs
/// them and live as long as the pool, so a group pays a hand-off per
/// helper (~25 µs round trip to a parked thread, overlapped with the
/// first block) instead of a thread start and exit (a scoped spawn and
/// join takes ~16–30 µs, and glibc releases an exiting thread's stack
/// pages, so the next one faults them in again). Dropping the pool stops
/// and joins its helpers.
pub(crate) struct SplitPool {
    shard: usize,
    shards: usize,
    helpers: Vec<Helper>,
}

/// One helper thread: blocks in, sampled blocks (or their panics) out.
struct Helper {
    jobs: mpsc::Sender<Job>,
    done: mpsc::Receiver<thread::Result<(Array2<f64>, HardwareCounters)>>,
    thread: JoinHandle<()>,
}

/// One block of a split group: a clone of the shard's programmed replica
/// and the block's chains.
struct Job {
    replica: Box<dyn ReplicableSubstrate>,
    rows: Vec<ChainRequest>,
    gibbs_steps: usize,
}

impl SplitPool {
    /// The pool of shard `shard` of `shards`; no helper runs until a
    /// split needs one.
    pub(crate) fn new(shard: usize, shards: usize) -> Self {
        SplitPool {
            shard,
            shards,
            helpers: Vec::new(),
        }
    }

    /// [`sample_rows`] on as many of the pool's cores as the group's
    /// work pays for ([`split_workers`]).
    pub(crate) fn sample_rows(
        &mut self,
        substrate: &mut dyn ReplicableSubstrate,
        rows: &[ChainRequest],
        gibbs_steps: usize,
    ) -> Array2<f64> {
        let workers = split_workers(
            || cores_per_shard(self.shards),
            rows.len(),
            gibbs_steps,
            substrate.visible_len(),
            substrate.hidden_len(),
        );
        self.split(substrate, rows, gibbs_steps, workers)
    }

    /// [`sample_rows`] on `workers` threads: the rows split into
    /// `workers` contiguous blocks (at most one per row). The first block
    /// runs on `substrate` and every other one on a clone of it, on a
    /// helper. A block whose helper cannot be started runs on `substrate`
    /// after the first. Every block finishes before a panic of one
    /// resumes on the calling thread, so no helper is left holding a
    /// block of this group.
    ///
    /// The rows are [`sample_rows`]'s bit for bit, since each block keeps
    /// its rows' streams. Each clone's counters merge into `substrate`'s,
    /// so the additive counters (phase points, words, samples) are the
    /// serial run's too. The per-call kernel counters count every block's
    /// call: a split group makes `workers` substrate calls per half-step.
    ///
    /// For infallible substrates only: the clones' reads bypass the
    /// fallible seam and its screens.
    ///
    /// # Panics
    ///
    /// As [`sample_rows`], on any block.
    pub(crate) fn split(
        &mut self,
        substrate: &mut dyn ReplicableSubstrate,
        rows: &[ChainRequest],
        gibbs_steps: usize,
        workers: usize,
    ) -> Array2<f64> {
        let workers = workers.min(rows.len());
        if workers <= 1 {
            return sample_rows(substrate, rows, gibbs_steps);
        }
        let block = |b: usize| b * rows.len() / workers..(b + 1) * rows.len() / workers;
        let ready = self.start(workers - 1);
        let handed: Vec<bool> = (1..workers)
            .map(|b| {
                b <= ready
                    && self.helpers[b - 1]
                        .jobs
                        .send(Job {
                            replica: substrate.clone_boxed(),
                            rows: rows[block(b)].to_vec(),
                            gibbs_steps,
                        })
                        .is_ok()
            })
            .collect();
        let first = catch_unwind(AssertUnwindSafe(|| {
            sample_rows(substrate, &rows[block(0)], gibbs_steps)
        }));
        let blocks: Vec<_> = handed
            .iter()
            .enumerate()
            .map(|(i, &handed)| handed.then(|| self.helpers[i].done.recv().ok()).flatten())
            .collect();
        let first = first.unwrap_or_else(|panic| resume_unwind(panic));
        let mut out = Vec::with_capacity(rows.len() * substrate.visible_len());
        out.extend_from_slice(first.as_slice());
        for (b, block_run) in (1..workers).zip(blocks) {
            let samples = match block_run {
                Some(Ok((samples, spent))) => {
                    substrate.counters_mut().merge(&spent);
                    samples
                }
                Some(Err(panic)) => resume_unwind(panic),
                None => sample_rows(substrate, &rows[block(b)], gibbs_steps),
            };
            out.extend_from_slice(samples.as_slice());
        }
        Array2::from_shape_vec((rows.len(), substrate.visible_len()), out)
            .expect("the blocks tile the rows")
    }

    /// Starts helpers until `wanted` run or a start fails; returns how
    /// many of the first `wanted` run.
    fn start(&mut self, wanted: usize) -> usize {
        while self.helpers.len() < wanted {
            match Helper::spawn(self.shard, self.helpers.len() + 1) {
                Some(helper) => self.helpers.push(helper),
                None => break,
            }
        }
        self.helpers.len().min(wanted)
    }
}

impl Drop for SplitPool {
    fn drop(&mut self) {
        for Helper { jobs, done, thread } in self.helpers.drain(..) {
            drop((jobs, done));
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Makes [`Helper::spawn`] fail on this thread, as a refused thread
    /// start would.
    static REFUSE_SPAWN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl Helper {
    /// Starts helper `b` of shard `shard`, or `None` if the thread cannot
    /// be started. It serves blocks until its job channel closes.
    fn spawn(shard: usize, b: usize) -> Option<Helper> {
        #[cfg(test)]
        if REFUSE_SPAWN.get() {
            return None;
        }
        let (jobs, inbox) = mpsc::channel::<Job>();
        let (outbox, done) = mpsc::channel();
        let thread = thread::Builder::new()
            .name(format!("ember-serve-shard-{shard}-split-{b}"))
            .spawn(move || {
                for mut job in inbox {
                    let block = catch_unwind(AssertUnwindSafe(|| {
                        *job.replica.counters_mut() = HardwareCounters::new();
                        let samples = sample_rows(&mut *job.replica, &job.rows, job.gibbs_steps);
                        (samples, *job.replica.counters())
                    }));
                    if outbox.send(block).is_err() {
                        return;
                    }
                }
            })
            .ok()?;
        Some(Helper { jobs, done, thread })
    }
}

/// The chain loop of [`sample_rows`] / [`try_sample_rows`]: a hidden
/// half-step from the initial visible batch, then `gibbs_steps`
/// visible half-steps, each but the last followed by a hidden one. The
/// two differ only in `half_step`; a fault from it ends the run.
fn run_chains<S: Substrate + ?Sized>(
    substrate: &mut S,
    rows: &[ChainRequest],
    gibbs_steps: usize,
    mut half_step: impl FnMut(
        &mut S,
        Side,
        &Array2<f64>,
        &mut [&mut dyn RngCore],
    ) -> Result<Array2<f64>, SubstrateFault>,
) -> Result<Array2<f64>, SubstrateFault> {
    let (mut rngs, mut v) = init_chains(substrate, rows, gibbs_steps);
    let mut h = half_step(substrate, Side::Hidden, &v, &mut rng_lanes(&mut rngs))?;
    for step in 0..gibbs_steps {
        v = half_step(substrate, Side::Visible, &h, &mut rng_lanes(&mut rngs))?;
        if step + 1 < gibbs_steps {
            h = half_step(substrate, Side::Hidden, &v, &mut rng_lanes(&mut rngs))?;
        }
    }
    Ok(v)
}

/// Shared chain setup of [`sample_rows`] / [`try_sample_rows`]: one RNG
/// per chain seeded from its stream, and the quantized initial visible
/// batch.
fn init_chains<S: Substrate + ?Sized>(
    substrate: &S,
    rows: &[ChainRequest],
    gibbs_steps: usize,
) -> (Vec<StdRng>, Array2<f64>) {
    assert!(gibbs_steps >= 1, "need at least one Gibbs step");
    assert!(!rows.is_empty(), "need at least one chain");
    let m = substrate.visible_len();
    let mut rngs: Vec<StdRng> = rows
        .iter()
        .map(|row| StdRng::seed_from_u64(row.seed))
        .collect();

    // Initial visible levels: the clamp, or a random state from the
    // chain's own stream (drawn before the chain consumes it further).
    let mut v0 = Array2::zeros((rows.len(), m));
    for ((row, rng), mut out) in rows
        .iter()
        .zip(rngs.iter_mut())
        .zip(v0.axis_iter_mut(ndarray::Axis(0)))
    {
        match &row.init {
            Some(levels) => {
                assert_eq!(levels.len(), m, "clamp width mismatch");
                out.assign(levels);
            }
            None => {
                for x in out.iter_mut() {
                    *x = f64::from(rng.random_bool(0.5));
                }
            }
        }
    }

    // §3.2 step 3, once for the whole coalesced batch: multi-bit data
    // levels pass through the substrate's DTC model; everything after
    // this point is binary feedback. An exactly-binary gather (random
    // inits, 0/1 clamps — the common serving case) skips the conversion
    // pass outright: every `quantize_batch` implementation is the
    // identity on `{0, 1}` by contract, and the skipped copy keeps the
    // gathered batch bit-packable for the substrate's fast kernel.
    let v = if ember_core::kernels::is_binary(&v0) {
        v0
    } else {
        substrate.quantize_batch(&v0)
    };
    (rngs, v)
}

/// Reborrows each chain's RNG as an object-safe lane slice.
fn rng_lanes(rngs: &mut [StdRng]) -> Vec<&mut dyn RngCore> {
    rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ember_analog::NoiseModel;
    use ember_brim::BrimConfig;
    use ember_core::substrate::{AnnealerSubstrate, BrimSubstrate};
    use ember_core::{GsConfig, SubstrateSpec};
    use ember_rbm::Rbm;
    use ndarray::arr1;

    fn setup() -> (Rbm, Box<dyn ember_substrate::ReplicableSubstrate>) {
        let mut rng = StdRng::seed_from_u64(7);
        let rbm = Rbm::random(6, 4, 0.6, &mut rng);
        let sub = SubstrateSpec::software(GsConfig::default()).fabricate_for(&rbm, &mut rng);
        (rbm, sub)
    }

    #[test]
    fn rows_are_invariant_to_batch_partition() {
        let (_, proto) = setup();
        let rows: Vec<ChainRequest> = (0..10)
            .map(|i| ChainRequest {
                init: (i % 2 == 0).then(|| arr1(&[1.0, 0.0, 1.0, 0.0, 1.0, 0.0])),
                seed: 1000 + i,
            })
            .collect();
        let mut all = proto.clone_boxed();
        let full = sample_rows(&mut *all, &rows, 3);
        // Any partition — here singletons — reproduces the same rows.
        for (i, row) in rows.iter().enumerate() {
            let mut solo = proto.clone_boxed();
            let alone = sample_rows(&mut *solo, std::slice::from_ref(row), 3);
            assert_eq!(full.row(i), alone.row(0), "row {i}");
        }
    }

    #[test]
    fn expand_request_uses_per_chain_streams() {
        let req = SampleRequest::new("m").with_samples(3).with_seed(5);
        let rows = expand_request(&req, 5);
        let streams = RngStreams::new(5);
        assert_eq!(rows.len(), 3);
        for (j, row) in rows.iter().enumerate() {
            assert_eq!(row.seed, streams.seed(j as u64));
            assert!(row.init.is_none());
        }
        let seeds: std::collections::HashSet<u64> = rows.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 3, "chain streams must not collide");
    }

    /// One model on each backend at an odd size: the software node path
    /// under a noisy front end (static variation and coupler noise),
    /// BRIM with a short thermal bath, and the annealer.
    fn backends() -> [(&'static str, Box<dyn ReplicableSubstrate>); 3] {
        let mut rng = StdRng::seed_from_u64(0x5B117);
        let rbm = Rbm::random(13, 9, 0.8, &mut rng);
        let noisy = GsConfig::default().with_noise(NoiseModel::new(0.05, 0.1).unwrap());
        let software = SubstrateSpec::software(noisy).fabricate_for(&rbm, &mut rng);
        let brim = BrimSubstrate::for_rbm(&rbm, BrimConfig::default()).with_thermal_bath(0.02, 12);
        let annealer = AnnealerSubstrate::for_rbm(&rbm);
        [
            ("software", software),
            ("brim", Box::new(brim)),
            ("annealer", Box::new(annealer)),
        ]
    }

    #[derive(Debug, Clone, Copy)]
    enum Init {
        Random,
        Binary,
        Gray,
        /// Random, binary and gray rows in turn.
        Mixed,
    }

    fn chains(n: usize, init: Init, m: usize) -> Vec<ChainRequest> {
        let binary = |r: usize| {
            (0..m)
                .map(|i| f64::from((i + r).is_multiple_of(3)))
                .collect()
        };
        let gray = |r: usize| (0..m).map(|i| ((i * 7 + r) % 11) as f64 / 10.0).collect();
        (0..n)
            .map(|r| {
                let kind = match init {
                    Init::Mixed => [Init::Random, Init::Binary, Init::Gray][r % 3],
                    other => other,
                };
                let init = match kind {
                    Init::Binary => Some(binary(r)),
                    Init::Gray => Some(gray(r)),
                    Init::Random | Init::Mixed => None,
                };
                ChainRequest {
                    init,
                    seed: 0xC4A1 + r as u64,
                }
            })
            .collect()
    }

    /// `sample_rows` on a fresh replica of `proto`, and what it spent.
    fn serial(
        proto: &dyn ReplicableSubstrate,
        rows: &[ChainRequest],
        steps: usize,
    ) -> (Array2<f64>, HardwareCounters) {
        let mut sub = proto.clone_boxed();
        let before = *sub.counters();
        let samples = sample_rows(&mut *sub, rows, steps);
        (samples, sub.counters().delta_since(&before))
    }

    fn bits(a: &Array2<f64>) -> Vec<u64> {
        a.iter().map(|x| x.to_bits()).collect()
    }

    /// Splits every group shape on `proto` at 1, 2, 3, 8 and more
    /// workers than rows: the rows must be the serial rows bit for bit,
    /// the additive counters the serial run's, and the per-call counters
    /// those of one serial call per block.
    fn check_split(name: &str, proto: &dyn ReplicableSubstrate) {
        let m = proto.visible_len();
        let tier = u64::from(ndarray::simd::simd_active());
        let mut pool = SplitPool::new(0, 1);
        for n in [1, 7, 64, 67] {
            for steps in [1, 5] {
                for init in [Init::Random, Init::Binary, Init::Gray, Init::Mixed] {
                    let rows = chains(n, init, m);
                    let (expected, whole) = serial(proto, &rows, steps);
                    for workers in [1, 2, 3, 8, n + 1] {
                        let case =
                            format!("{name}: {n} rows, {steps} steps, {init:?}, W = {workers}");
                        let mut sub = proto.clone_boxed();
                        let before = *sub.counters();
                        let split = pool.split(&mut *sub, &rows, steps, workers);
                        let spent = sub.counters().delta_since(&before);
                        assert_eq!(bits(&split), bits(&expected), "{case}");

                        let additive = |c: &HardwareCounters| {
                            [
                                c.phase_points,
                                c.host_words_transferred,
                                c.positive_samples,
                                c.negative_samples,
                                c.host_mac_ops,
                            ]
                        };
                        assert_eq!(additive(&spent), additive(&whole), "{case}");

                        let w = workers.min(n);
                        let mut per_block = HardwareCounters::new();
                        for b in 0..w {
                            per_block
                                .merge(&serial(proto, &rows[b * n / w..(b + 1) * n / w], steps).1);
                        }
                        assert_eq!(spent, per_block, "{case}");
                        // The annealer's sampling calls are the trait's
                        // default: one substrate call per row.
                        let calls_per_half_step = if name == "annealer" { n } else { w };
                        let calls = (calls_per_half_step * 2 * steps) as u64;
                        assert_eq!(
                            spent.packed_kernel_calls + spent.dense_kernel_calls,
                            calls,
                            "{case}"
                        );
                        assert_eq!(spent.simd_kernel_calls, tier * calls, "{case}");
                    }
                }
            }
        }
        // The helpers started for the widest split serve every later one.
        assert_eq!(pool.helpers.len(), 66);
    }

    #[test]
    fn a_split_group_keeps_the_serial_bits_on_software() {
        let [(name, proto), ..] = backends();
        check_split(name, &*proto);
    }

    #[test]
    fn a_split_group_keeps_the_serial_bits_on_brim() {
        let [_, (name, proto), _] = backends();
        check_split(name, &*proto);
    }

    #[test]
    fn a_split_group_keeps_the_serial_bits_on_the_annealer() {
        let [.., (name, proto)] = backends();
        check_split(name, &*proto);
    }

    #[test]
    fn a_refused_spawn_runs_its_block_on_the_replica() {
        let [(_, proto), ..] = backends();
        let rows = chains(64, Init::Mixed, proto.visible_len());
        let (expected, whole) = serial(&*proto, &rows, 5);
        let mut sub = proto.clone_boxed();
        let before = *sub.counters();
        let mut pool = SplitPool::new(0, 3);
        REFUSE_SPAWN.set(true);
        let split = pool.split(&mut *sub, &rows, 5, 3);
        REFUSE_SPAWN.set(false);
        assert!(pool.helpers.is_empty());
        let spent = sub.counters().delta_since(&before);
        assert_eq!(bits(&split), bits(&expected));
        assert_eq!(spent.phase_points, whole.phase_points);
        assert_eq!(spent.host_words_transferred, whole.host_words_transferred);
        assert_eq!(spent.packed_kernel_calls + spent.dense_kernel_calls, 3 * 10);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_helper_serves_on() {
        let [(_, proto), ..] = backends();
        let good = chains(8, Init::Random, proto.visible_len());
        let mut bad = good.clone();
        // The second block's last init has the wrong width.
        bad[7].init = Some(arr1(&[1.0]));
        let mut pool = SplitPool::new(0, 2);
        let mut sub = proto.clone_boxed();
        let panic = catch_unwind(AssertUnwindSafe(|| pool.split(&mut *sub, &bad, 1, 2)))
            .expect_err("the helper's block panics");
        let message = panic
            .downcast_ref::<String>()
            .expect("an assertion message");
        assert!(message.contains("clamp width mismatch"), "{message}");
        let (expected, _) = serial(&*proto, &good, 1);
        let split = pool.split(&mut *sub, &good, 1, 2);
        assert_eq!(bits(&split), bits(&expected));
        assert_eq!(pool.helpers.len(), 1);
    }

    #[test]
    fn the_worker_rule_splits_only_work_that_pays_for_it() {
        // The wave: one shard on two cores splits a 64-row, 5-step
        // group at 108×1024 two ways.
        assert_eq!(split_workers(|| 2, 64, 5, 108, 1024), 2);
        // A one-core share, a lone row, and work below the floor.
        assert_eq!(split_workers(|| 1, 64, 5, 108, 1024), 1);
        assert_eq!(split_workers(|| 8, 1, 1000, 1024, 1024), 1);
        assert_eq!(split_workers(|| 2, 4, 1, 784, 200), 1);
        // Each worker gets at least the floor.
        assert_eq!(split_workers(|| 8, 2 * SPLIT_FLOOR - 1, 1, 1, 1), 1);
        assert_eq!(split_workers(|| 8, 2 * SPLIT_FLOOR, 1, 1, 1), 2);
        // Never more workers than rows, even past `usize`'s range.
        for rows in 1..=16 {
            assert_eq!(split_workers(|| 64, rows, 1000, 1024, 1024), rows);
            assert_eq!(split_workers(|| 64, rows, usize::MAX, usize::MAX, 2), rows);
        }
        assert_eq!(split_workers(|| 0, 64, 5, 108, 1024), 1);
        // A group too small to split never reads the core count.
        let unread = || -> usize { unreachable!("the core count was read") };
        assert_eq!(split_workers(unread, 1, 1000, 1024, 1024), 1);
        assert_eq!(split_workers(unread, 4, 1, 784, 200), 1);
    }

    #[test]
    fn a_shard_gets_its_share_of_the_cores() {
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(cores_per_shard(1), cores);
        assert_eq!(cores_per_shard(2), (cores / 2).max(1));
        assert_eq!(cores_per_shard(usize::MAX), 1);
        assert_eq!(cores_per_shard(0), cores);
    }

    #[test]
    #[should_panic(expected = "at least one Gibbs step")]
    fn rejects_zero_steps() {
        let (_, mut sub) = setup();
        let rows = [ChainRequest {
            init: None,
            seed: 1,
        }];
        let _ = sample_rows(&mut *sub, &rows, 0);
    }
}
