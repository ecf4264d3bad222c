//! # ember-core
//!
//! The paper's primary contribution: two accelerator architectures that
//! augment a (bipartite) Ising-machine substrate for energy-based learning.
//!
//! * [`GibbsSampler`] (GS, §3.2) — the substrate accelerates the *sampling*
//!   steps of the conventional CD-k algorithm (Algorithm 1): visible or
//!   hidden units are clamped through DTCs, the coupling mesh performs the
//!   analog vector-matrix product, a modified-inverter sigmoid unit and a
//!   comparator fed by thermal noise produce the Bernoulli samples. The
//!   host (a TPU in the paper's evaluation) still accumulates expectations
//!   and applies the weight updates, paying host↔substrate communication.
//!
//! * [`BoltzmannGradientFollower`] (BGF, §3.3) — the substrate becomes a
//!   *self-sufficient gradient follower*: weights live inside the coupling
//!   units as differential gate voltages `W = s·(V⁺ − V⁻)` and are
//!   incremented/decremented **in place** by charge-pump packets gated on
//!   `vᵢ·hⱼ` (Fig. 14), with the three algorithmic deviations of Eq. 12:
//!   mid-step updates, hardware nonlinearity `f_ij`, and an effective
//!   minibatch of 1. Negative phases run from `p` persistent particles.
//!   The host only initializes, streams samples, and reads the result once
//!   through ADCs at the end.
//!
//! The conditional-sampling seam itself is the [`substrate`] module: a
//! [`Substrate`] trait with three interchangeable backends
//! ([`SoftwareGibbs`], [`BrimSubstrate`], [`AnnealerSubstrate`]), over
//! which [`GibbsSampler`] and `ember_rbm`'s trainers are generic — the
//! paper's "drop-in replacement" claim as a type.
//!
//! The sampling hot path of every software backend runs on the
//! bit-packed binary-state kernels of the [`kernels`] module: an exactly
//! binary clamp packs into a [`BitMatrix`] and the field GEMM reduces to
//! summing selected weight rows, bit-identical to the dense GEMM that
//! gray DTC levels take (`HardwareCounters` records which kernel served
//! each call).
//!
//! Both are *behavioral* models at the same level as the paper's Matlab
//! models (§4.1): every circuit non-ideality — sigmoid transfer curve,
//! comparator offsets, DTC quantization, charge-sharing nonlinearity,
//! static variation and dynamic noise (§4.5) — flows through
//! [`ember_analog`]'s components.
//!
//! # Example: hardware-in-the-loop training
//!
//! ```
//! use ember_core::{BgfConfig, BoltzmannGradientFollower};
//! use ember_rbm::Rbm;
//! use ndarray::Array2;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let init = Rbm::random(6, 3, 0.01, &mut rng);
//! let mut bgf = BoltzmannGradientFollower::new(init, BgfConfig::default(), &mut rng);
//! let data = Array2::from_shape_fn((30, 6), |(i, _)| (i % 2) as f64);
//! bgf.train_epoch(&data, &mut rng);
//! let trained = bgf.read_out(&mut rng); // one-time ADC read-out
//! assert_eq!(trained.visible_len(), 6);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod gibbs_sampler;
mod gradient_follower;
pub mod kernels;
pub mod recovery;
mod sampler;
pub mod substrate;

pub use config::{BgfConfig, GsConfig};
pub use gibbs_sampler::GibbsSampler;
pub use gradient_follower::BoltzmannGradientFollower;
pub use kernels::BitMatrix;
pub use recovery::{couplings_checksum, screen_samples, verify_programming, RetryPolicy};
pub use sampler::AnalogSampler;
pub use substrate::{
    AnnealerSubstrate, BrimSubstrate, ReplicableSubstrate, SoftwareGibbs, Substrate, SubstrateSpec,
};

// Deprecated compat re-export: `HardwareCounters` moved to
// `ember_substrate` in PR 2 (so trainers can be generic over any
// backend). Use the canonical `ember_substrate::HardwareCounters`
// (also reachable as `ember::substrate::HardwareCounters` and
// `ember_core::substrate::HardwareCounters`); this top-level alias is
// hidden from the docs and kept only so pre-PR-2 downstream code keeps
// compiling.
#[doc(hidden)]
pub use ember_substrate::HardwareCounters;
