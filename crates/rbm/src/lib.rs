//! # ember-rbm
//!
//! The Restricted Boltzmann Machine stack (§2.3): the model, its software
//! trainers, deep variants, and the dense neural-network head used for
//! classification experiments.
//!
//! * [`Rbm`] — weights, biases, conditional distributions (Eqs. 4–5), free
//!   energy, and the energy function of Eq. 3.
//! * [`CdTrainer`] — the contrastive-divergence algorithm of Algorithm 1
//!   (CD-k, minibatched stochastic gradient ascent on the log-likelihood).
//! * [`PcdTrainer`] — persistent contrastive divergence (Tieleman 2008),
//!   the software analogue of the BGF's `p` persistent particles.
//! * [`MlTrainer`] — *exact* maximum-likelihood gradients by enumeration,
//!   tractable only for tiny models; the ground-truth reference of the
//!   paper's Appendix A bias study.
//! * [`exact`] — exact partition function / log-likelihood / distribution
//!   for tiny models (used by AIS validation and the KL experiments).
//! * [`gibbs`] — host Gibbs chains, the MCMC reference the substrate
//!   replaces (the trainers draw their chains through their own
//!   half-steps instead).
//! * [`Dbn`] — stacked RBMs with greedy layer-wise pretraining, and
//!   [`Mlp`] — a plain dense network (sigmoid hidden layers + softmax
//!   output) for the DBN-DNN fine-tuning pipeline of Table 1.
//! * [`PatchPipeline`] — the Coates-style single-layer convolutional-RBM
//!   feature pipeline the paper applies to CIFAR10 and SmallNORB.
//!
//! # Example: train a tiny RBM with CD-1
//!
//! ```
//! use ember_rbm::{Rbm, CdTrainer};
//! use ndarray::Array2;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut rbm = Rbm::random(6, 3, 0.01, &mut rng);
//! // Learn a dataset where all pixels are equal (two modes).
//! let data = Array2::from_shape_fn((40, 6), |(i, _)| if i % 2 == 0 { 1.0 } else { 0.0 });
//! let trainer = CdTrainer::new(1, 0.1);
//! for _ in 0..30 {
//!     trainer.train_epoch(&mut rbm, &data, 10, &mut rng);
//! }
//! let recon = rbm.reconstruction_error(&data, &mut rng);
//! assert!(recon < 0.25, "reconstruction error {recon}");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod dbn;
pub mod exact;
pub mod gibbs;
pub mod math;
mod nn;
mod rbm;
mod trainer;

pub use conv::{binarize_patches, extract_patches, PatchPipeline};
pub use dbn::Dbn;
pub use ember_ising::RngStreams;
pub use nn::{Mlp, MlpConfig};
pub use rbm::{Rbm, RbmError};
pub use trainer::{CdTrainer, EpochStats, MlTrainer, PcdTrainer};
