//! The three workloads and their seeded request streams. Everything a
//! workload sends — model parameters, clamps, seeds, sizes, priorities,
//! training sets and the open-loop arrival schedule — is a function of
//! `--seed` alone.

use std::time::Duration;

use ndarray::{Array1, Array2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct clamp rows each workload draws from: requests differ by
/// seed, sizes and clamp index, and the pool keeps the open loop from
/// generating a fresh 784-wide row per arrival.
pub const CLAMP_POOL: usize = 256;
/// Distinct training sets the mixed workload draws from.
pub const TRAIN_POOL: usize = 8;
/// Clamp density: each visible unit is clamped to 1 with this
/// probability, else 0.
pub const CLAMP_DENSITY: f64 = 0.35;
/// Training data density.
pub const TRAIN_DENSITY: f64 = 0.15;
/// Rows per training request.
pub const TRAIN_ROWS: usize = 64;
/// Minibatch size of a training request.
pub const TRAIN_BATCH: usize = 16;
/// Requests per wave on `wave-108x1024`.
pub const WAVE: usize = 64;
/// Upper end of the lone client's uniform think time before each send.
/// The edge polls its listener every 2 ms; a random phase keeps the
/// closed loop from locking onto that period, which would quantize its
/// latency to whole polls.
pub const THINK_MAX: Duration = Duration::from_millis(2);
/// Fixed offered rate of the open loop, requests per second.
pub const OPEN_LOOP_RPS: f64 = 500.0;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over loopback HTTP, one 1-row 1-step request at a time.
    LoneHttp,
    /// Closed loop in-process, 64 single-row 5-step requests per wave.
    Wave,
    /// Open-loop Poisson arrivals with training writes beside reads.
    Mixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::LoneHttp, Workload::Wave, Workload::Mixed];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoneHttp => "lone-http-784x200",
            Workload::Wave => "wave-108x1024",
            Workload::Mixed => "mixed-openloop-784x200",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency limit behind `slo_ok_ratio`, ms: frozen per workload,
    /// well above its unloaded latency so that the share measures the
    /// tail rather than the median.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::LoneHttp | Workload::Mixed => 10.0,
            Workload::Wave => 25.0,
        }
    }

    /// `(visible, hidden)` model shape.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Workload::Wave => (108, 1024),
            Workload::LoneHttp | Workload::Mixed => (784, 200),
        }
    }
}

/// One sample request as generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOp {
    /// Index into [`Inputs::clamps`].
    pub clamp: usize,
    /// Chains (rows) requested.
    pub n_samples: usize,
    /// Gibbs steps per chain.
    pub gibbs_steps: usize,
    /// The request's seed.
    pub seed: u64,
    /// `true` for the Bulk lane, else Interactive.
    pub bulk: bool,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A sample request.
    Sample(SampleOp),
    /// A CD-1 training request over [`Inputs::train_sets`]`[set]`.
    Train {
        /// Index into [`Inputs::train_sets`].
        set: usize,
        /// Training seed.
        seed: u64,
    },
}

impl Op {
    /// The sample request, if this is one.
    pub fn sample(&self) -> Option<&SampleOp> {
        match self {
            Op::Sample(op) => Some(op),
            Op::Train { .. } => None,
        }
    }
}

/// The seeded data every request refers to by index.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Clamp rows (0/1 at [`CLAMP_DENSITY`]).
    pub clamps: Vec<Array1<f64>>,
    /// Training sets (`TRAIN_ROWS × visible` at [`TRAIN_DENSITY`]).
    pub train_sets: Vec<Array2<f64>>,
}

impl Inputs {
    /// Generates the pools for `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let (m, _) = workload.shape();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A0_0000_0000_0001);
        let clamps = (0..CLAMP_POOL)
            .map(|_| Array1::from_shape_fn(m, |_| f64::from(rng.random_bool(CLAMP_DENSITY))))
            .collect();
        let train_sets = (0..TRAIN_POOL)
            .map(|_| {
                Array2::from_shape_fn((TRAIN_ROWS, m), |_| {
                    f64::from(rng.random_bool(TRAIN_DENSITY))
                })
            })
            .collect();
        Inputs { clamps, train_sets }
    }
}

/// The endless seeded operation stream of one workload. On the open
/// loop each operation also carries its gap after the previous arrival.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    rng: StdRng,
}

impl Stream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        Stream {
            workload,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_0000_0000_0002),
        }
    }

    /// The next operation and its gap: the client's think time before
    /// sending on lone-http (uniform below [`THINK_MAX`]), zero on the
    /// wave, the exponential inter-arrival time (mean `1 /
    /// OPEN_LOOP_RPS`) on the open loop.
    pub fn next_op(&mut self) -> (Op, Duration) {
        let rng = &mut self.rng;
        let clamp = rng.random_range(0..CLAMP_POOL);
        let seed: u64 = rng.random();
        match self.workload {
            Workload::LoneHttp => (
                Op::Sample(SampleOp {
                    clamp,
                    n_samples: 1,
                    gibbs_steps: 1,
                    seed,
                    bulk: false,
                }),
                THINK_MAX.mul_f64(rng.random::<f64>()),
            ),
            Workload::Wave => (
                Op::Sample(SampleOp {
                    clamp,
                    n_samples: 1,
                    gibbs_steps: 5,
                    seed,
                    bulk: false,
                }),
                Duration::ZERO,
            ),
            Workload::Mixed => {
                let u: f64 = rng.random();
                let gap = Duration::from_secs_f64(-(1.0 - u).ln() / OPEN_LOOP_RPS);
                let op = if rng.random_range(0..100u32) == 0 {
                    Op::Train {
                        set: rng.random_range(0..TRAIN_POOL),
                        seed,
                    }
                } else {
                    const SIZES: [usize; 5] = [1, 1, 2, 4, 8];
                    const STEPS: [usize; 2] = [1, 5];
                    Op::Sample(SampleOp {
                        clamp,
                        n_samples: SIZES[rng.random_range(0..SIZES.len())],
                        gibbs_steps: STEPS[rng.random_range(0..STEPS.len())],
                        seed,
                        bulk: rng.random_range(0..4u32) == 0,
                    })
                };
                (op, gap)
            }
        }
    }

    /// The first `count` operations of the stream (with gaps).
    pub fn take(workload: Workload, seed: u64, count: usize) -> Vec<(Op, Duration)> {
        let mut stream = Stream::new(workload, seed);
        (0..count).map(|_| stream.next_op()).collect()
    }
}

/// Whether the response to request `index` is re-computed and checked:
/// a seeded one-in-`every` subset.
pub fn checked(seed: u64, index: u64, every: u64) -> bool {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x.is_multiple_of(every)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_schedule() {
        for w in Workload::ALL {
            assert_eq!(Stream::take(w, 7, 2000), Stream::take(w, 7, 2000), "{w:?}");
            let (a, b) = (Inputs::generate(w, 7), Inputs::generate(w, 7));
            assert_eq!(a.clamps, b.clamps);
            assert_eq!(a.train_sets, b.train_sets);
        }
    }

    #[test]
    fn different_seed_different_stream_and_schedule() {
        for w in Workload::ALL {
            assert_ne!(Stream::take(w, 7, 200), Stream::take(w, 8, 200), "{w:?}");
            assert_ne!(Inputs::generate(w, 7).clamps, Inputs::generate(w, 8).clamps);
        }
        let gaps = |seed| -> Vec<Duration> {
            Stream::take(Workload::Mixed, seed, 200)
                .into_iter()
                .map(|(_, gap)| gap)
                .collect()
        };
        assert_ne!(gaps(7), gaps(8));
    }

    #[test]
    fn open_loop_rate_and_mix_are_as_specified() {
        let ops = Stream::take(Workload::Mixed, 3, 20_000);
        let total: f64 = ops.iter().map(|(_, g)| g.as_secs_f64()).sum();
        let rate = ops.len() as f64 / total;
        assert!(
            (rate - OPEN_LOOP_RPS).abs() < 0.03 * OPEN_LOOP_RPS,
            "rate {rate}"
        );
        let trains = ops.iter().filter(|(op, _)| op.sample().is_none()).count();
        assert!((150..250).contains(&trains), "trains {trains}");
        let bulk = ops
            .iter()
            .filter_map(|(op, _)| op.sample())
            .filter(|s| s.bulk)
            .count();
        assert!((4500..5500).contains(&bulk), "bulk {bulk}");
    }

    #[test]
    fn closed_loops_only_sample_and_think_below_the_bound() {
        let lone = Stream::take(Workload::LoneHttp, 1, 1000);
        assert!(lone
            .iter()
            .all(|(op, gap)| *gap < THINK_MAX && op.sample().is_some()));
        let mean: f64 = lone.iter().map(|(_, g)| g.as_secs_f64()).sum::<f64>() / 1000.0;
        assert!(
            (mean - THINK_MAX.as_secs_f64() / 2.0).abs() < 1e-4,
            "mean {mean}"
        );
        assert!(Stream::take(Workload::Wave, 1, 100)
            .iter()
            .all(|(op, gap)| gap.is_zero() && op.sample().is_some()));
    }
}
