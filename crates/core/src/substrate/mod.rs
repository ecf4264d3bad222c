//! Interchangeable sampling backends behind one [`Substrate`] trait.
//!
//! The paper's central claim (§3.2) is that the Ising substrate is a
//! *drop-in replacement* for software Gibbs sampling: the host-side
//! learning loop (Algorithm 1) never needs to know whether the
//! conditional samples come from MCMC arithmetic or from physics. This
//! module is that seam made explicit. The trait itself lives in
//! `ember_substrate` (so `ember_rbm`'s trainers can be generic over it
//! without a dependency cycle); the three concrete backends live here,
//! next to their component models:
//!
//! * [`SoftwareGibbs`] — the analog node path of Fig. 12 (coupling-mesh
//!   summation → sigmoid unit → comparator vs. thermal noise), batched
//!   through the GEMM engine of PR 1. This is the reference backend:
//!   with ideal components it samples the exact conditionals.
//! * [`BrimSubstrate`] — the bipartite BRIM of Fig. 3: clamp one side,
//!   let the coupled ring-oscillator dynamics evolve under flip
//!   injection (the thermal bath), threshold-read the free side. The
//!   sampling here *is* the physics; no sigmoid is ever evaluated.
//! * [`AnnealerSubstrate`] — Metropolis sampling over the bipartite
//!   coupling at unit temperature (`ember_ising::Annealer`), the
//!   software stand-in for an annealing-capable Ising machine and the
//!   hook future quantum/CMOS annealer backends plug into.
//!
//! How each [`Substrate`] method realizes the §3.2 operation list:
//!
//! | §3.2 operation | Trait method | `SoftwareGibbs` | `BrimSubstrate` | `AnnealerSubstrate` |
//! |---|---|---|---|---|
//! | 1–2. program couplings/biases (`m·n + m + n` words) | `program` | realizes `W ⊙ variation` (frozen at fabrication) into the coupling image | spin-domain embedding via `BipartiteBrim::reprogram` | writes `W` into the coupling image |
//! | 3. clamp data through DTCs | `quantize_batch` | `Dtc::convert` per element | identity (clamp units drive rails directly) | identity |
//! | 4–5. settle the free side, read it out | `sample_batch` (`sample_batch_rows`: one RNG stream per row) | field product + sigmoid + comparator | clamp → anneal under flip injection → threshold (rows: from power-on each) | field product + bias → Metropolis sweeps (rows: the trait default) |
//! | 6. alternate sides for k-step Gibbs | callers alternate `Side::Hidden` and `Side::Visible` | — | — | — |
//! | 7–8. host accumulates and updates | host-side | counters track settle phase points + words | phase points = integration steps | phase points = Metropolis sweeps |
//!
//! The two software backends share one programmed coupling image: the
//! realized weights, their transpose and (under a noisy front end) their
//! squares, re-written only when a weight moved, and shared by clones
//! until one of them is programmed with other weights. Its field product
//! runs the bit-packed kernel on an exactly binary clamp and the dense
//! GEMM on gray levels, with the same bits either way.
//!
//! All backends are driven identically — see
//! `examples/substrate_sampling.rs` for the three of them sampling the
//! same RBM through one loop, and `crates/core/tests/substrate_conformance.rs`
//! for the shared distribution-conformance suite.

pub use ember_substrate::{
    ChaosConfig, ChaosSubstrate, HardwareCounters, ReplicableSubstrate, Side, Substrate,
    SubstrateFault,
};

mod annealer;
mod brim;
mod couplings;
mod software;
mod spec;

pub use annealer::AnnealerSubstrate;
pub use brim::BrimSubstrate;
pub use software::SoftwareGibbs;
pub use spec::SubstrateSpec;
