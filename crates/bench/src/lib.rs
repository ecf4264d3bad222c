//! # ember-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`) plus Criterion micro-benchmarks (see `benches/`). The
//! serving stack's end-to-end and per-layer performance is measured by
//! the repository benchmark in `benchmark/`, not here.
//!
//! Every binary accepts:
//!
//! * `--quick` (default) — CI-scale workloads that finish in seconds;
//! * `--full` — paper-scale workloads (Table 1 sizes, more epochs);
//! * `--seed <u64>` — RNG seed (default 2023);
//! * `--json` — also emit machine-readable results on stdout.
//!
//! Each prints the paper's reported values next to the measured ones so
//! the reproduction can be judged line by line.

use ndarray::Array2;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ember_core::{BgfConfig, BoltzmannGradientFollower, GibbsSampler, GsConfig};
use ember_datasets::ImageDataset;
use ember_rbm::{CdTrainer, Mlp, MlpConfig, Rbm};

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Paper-scale (`--full`) vs CI-scale (default).
    pub full: bool,
    /// RNG seed.
    pub seed: u64,
    /// Emit JSON blob at the end.
    pub json: bool,
}

impl RunConfig {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on unknown flags or a malformed seed.
    pub fn from_args() -> Self {
        let mut config = RunConfig {
            full: false,
            seed: 2023,
            json: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => config.full = false,
                "--full" => config.full = true,
                "--json" => config.json = true,
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    config.seed = v.parse().expect("--seed needs an integer");
                }
                other => panic!("unknown flag `{other}` (try --quick/--full/--seed/--json)"),
            }
        }
        config
    }

    /// A seeded RNG for this run.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// Picks between the quick and full value of a parameter.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }
}

/// Prints a boxed section header.
pub fn header(title: &str) {
    let line = "=".repeat(title.len() + 4);
    println!("\n{line}\n| {title} |\n{line}");
}

/// Prints one `name: paper vs measured` comparison row.
pub fn compare_row(name: &str, paper: &str, measured: &str) {
    println!("{name:<28} paper: {paper:<16} measured: {measured}");
}

/// Trains a fresh RBM with CD-k and returns it.
#[allow(clippy::too_many_arguments)]
pub fn train_cd(
    visible: usize,
    hidden: usize,
    data: &Array2<f64>,
    k: usize,
    lr: f64,
    batch: usize,
    epochs: usize,
    rng: &mut StdRng,
) -> Rbm {
    let mut rbm = Rbm::random(visible, hidden, 0.01, rng);
    let trainer = CdTrainer::new(k, lr);
    trainer.train(&mut rbm, data, batch, epochs, rng);
    rbm
}

/// Trains a fresh RBM on the BGF behavioral hardware and returns the
/// machine's effective model.
pub fn train_bgf(
    visible: usize,
    hidden: usize,
    data: &Array2<f64>,
    config: BgfConfig,
    epochs: usize,
    rng: &mut StdRng,
) -> Rbm {
    let init = Rbm::random(visible, hidden, 0.01, rng);
    let mut bgf = BoltzmannGradientFollower::new(init, config, rng);
    for _ in 0..epochs {
        bgf.train_epoch(data, rng);
    }
    bgf.effective_rbm()
}

/// Trains a fresh RBM on the GS accelerator and returns the host model.
pub fn train_gs(
    visible: usize,
    hidden: usize,
    data: &Array2<f64>,
    config: GsConfig,
    batch: usize,
    epochs: usize,
    rng: &mut StdRng,
) -> Rbm {
    let init = Rbm::random(visible, hidden, 0.01, rng);
    let mut gs = GibbsSampler::new(init, config, rng);
    for _ in 0..epochs {
        gs.train_epoch(data, batch, rng);
    }
    gs.rbm().clone()
}

/// RBM-features + logistic-regression-head classification accuracy
/// (the paper's §4.1 evaluation path for image benchmarks).
pub fn rbm_classifier_accuracy(
    rbm: &Rbm,
    train: &ImageDataset,
    test: &ImageDataset,
    head_epochs: usize,
    rng: &mut StdRng,
) -> f64 {
    let train_feats = rbm.hidden_probs_batch(train.images());
    let test_feats = rbm.hidden_probs_batch(test.images());
    let mut head = Mlp::new(rbm.hidden_len(), &[], train.classes(), 0.01, rng);
    let config = MlpConfig {
        learning_rate: 0.3,
        momentum: 0.8,
        weight_decay: 1e-4,
    };
    for _ in 0..head_epochs {
        head.train_epoch(&train_feats, train.labels(), 32, &config, rng);
    }
    head.accuracy(&test_feats, test.labels())
}

/// Default BGF configuration for learning-quality experiments: a packet
/// size that lands near CD's per-sample effective rate on small data.
pub fn bgf_quality_config() -> BgfConfig {
    BgfConfig::default()
        .with_pump_ratio(1.0 / 2048.0)
        .with_negative_sweeps(2)
        .with_particles(20)
}

/// Epoch multiplier for BGF relative to CD in quality experiments: the
/// charge-packet learning rate is deliberately small (stability of the
/// minibatch-1 persistent chains), so the hardware needs more passes to
/// cover the same parameter distance. The hardware has the time budget to
/// spare — each pass is ~29× faster than the host's (Fig. 5).
pub const BGF_EPOCH_FACTOR: usize = 3;

/// Star-rating MAE of a collaborative-filtering RBM on the held-out split,
/// with a least-squares calibration `stars ≈ a + b·P(like)` fitted on the
/// *training* ratings (the binary like-matrix conflates "unrated" with
/// "disliked", so the raw reconstruction probability needs an affine map
/// onto the 1–5 scale; the paper's reference \[57\] uses softmax visibles
/// which build this calibration in).
pub fn movielens_mae(rbm: &Rbm, ml: &ember_datasets::MovieLens, matrix: &Array2<f64>) -> f64 {
    let hidden = rbm.hidden_probs_batch(matrix);
    let recon = rbm.visible_probs_batch(&hidden);

    // Fit stars = a + b·p on the training ratings.
    let (mut sum_p, mut sum_s, mut sum_pp, mut sum_ps) = (0.0, 0.0, 0.0, 0.0);
    let n = ml.train().len() as f64;
    for r in ml.train() {
        let p = recon[[r.item, r.user]];
        let s = r.stars as f64;
        sum_p += p;
        sum_s += s;
        sum_pp += p * p;
        sum_ps += p * s;
    }
    let var_p = sum_pp / n - (sum_p / n) * (sum_p / n);
    let (a, b) = if var_p > 1e-9 {
        let b = (sum_ps / n - sum_p / n * (sum_s / n)) / var_p;
        (sum_s / n - b * sum_p / n, b)
    } else {
        (sum_s / n, 0.0)
    };

    let mut preds = Vec::with_capacity(ml.test().len());
    let mut targets = Vec::with_capacity(ml.test().len());
    for r in ml.test() {
        let p = recon[[r.item, r.user]];
        preds.push((a + b * p).clamp(1.0, 5.0));
        targets.push(r.stars as f64);
    }
    ember_metrics::mean_absolute_error(&preds, &targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_switches_on_full() {
        let quick = RunConfig {
            full: false,
            seed: 0,
            json: false,
        };
        let full = RunConfig {
            full: true,
            ..quick
        };
        assert_eq!(quick.pick(1, 2), 1);
        assert_eq!(full.pick(1, 2), 2);
    }

    #[test]
    fn cd_helper_trains() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Array2::from_shape_fn((20, 6), |(i, _)| (i % 2) as f64);
        let rbm = train_cd(6, 3, &data, 1, 0.1, 10, 5, &mut rng);
        assert_eq!(rbm.visible_len(), 6);
    }

    #[test]
    fn classifier_helper_runs() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = ember_datasets::digits::generate(60, 3).binarized(0.5);
        let split = ember_datasets::train_test_split(&ds, 0.25, &mut rng);
        let rbm = train_cd(784, 16, split.train.images(), 1, 0.1, 10, 2, &mut rng);
        let acc = rbm_classifier_accuracy(&rbm, &split.train, &split.test, 10, &mut rng);
        assert!((0.0..=1.0).contains(&acc));
    }
}
