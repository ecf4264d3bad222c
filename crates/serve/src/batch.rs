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

use ndarray::Array2;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use ember_rbm::RngStreams;
use ember_substrate::{Side, Substrate, SubstrateFault};

use crate::SampleRequest;

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
/// stream `RngStreams::new(master_seed).seed(j)` — the per-chain seed
/// discipline of `ember_rbm::gibbs::sample_model_par`. `master_seed` is
/// the request's seed (or the shard-lane seed assigned to a seedless
/// request).
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
