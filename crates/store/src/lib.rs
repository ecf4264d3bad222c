//! # ember-store
//!
//! Durable model lifecycle for the serving stack. The paper's central
//! economic fact (§3.2) is that substrate weights are *volatile* —
//! reprogrammed per minibatch, never durable on the Ising machine — so
//! the host's [`ModelRegistry`](ember_serve::ModelRegistry) is the only
//! place trained state exists. This crate makes that state survive the
//! host too:
//!
//! * [`format`](mod@format) — the `EMBS` snapshot format: versioned, little-endian,
//!   checksummed at two layers (whole-file FNV-1a plus the serving
//!   layer's own [`couplings_checksum`](ember_core::couplings_checksum)
//!   per model version, recomputed from the *decoded* parameters), with
//!   **delta-compressed version chains** so retained history costs
//!   bytes proportional to what actually changed.
//! * [`Storage`] / [`DiskDir`] — atomic publication via temp-file +
//!   `fsync` + `rename`: a kill at any instant leaves the old snapshot
//!   or the new one, never a torn file visible to `list`.
//! * [`ChaosDir`] — a seeded fault-injecting decorator (short writes
//!   under the final name, kill-mid-publish, bit-flips on read) that
//!   the crash-recovery tests drive, the same methodology the serving
//!   layer uses for substrate faults.
//! * [`SnapshotStore`] — sequenced snapshots with newest-first load and
//!   **last-good fallback**: a corrupt newest file is stepped over (and
//!   reported), not fatal.
//! * [`SnapshotDaemon`] — on-publish + periodic background snapshots
//!   with bounded retention, wired into the registry's publish hook.
//! * [`warm_start`] — boot a
//!   [`SamplingService`](ember_serve::SamplingService) from a snapshot
//!   directory; restored parameters are bit-identical, so the
//!   warm-started service answers the same requests with the same
//!   bytes, at any shard count.
//!
//! Rollback completes the lifecycle: the registry retains a bounded
//! version history, [`ModelRegistry::rollback`](ember_serve::ModelRegistry::rollback)
//! republishes a prior version through the normal CAS path, and the
//! HTTP edge exposes it as `POST /v1/models/{name}/rollback`.
//!
//! See `examples/durable_service.rs` for the full loop: serve, publish,
//! snapshot, "crash", warm-start, verify bit-identity, roll back.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod error;
pub mod format;
mod storage;
mod store;

pub use daemon::{DaemonConfig, DaemonStats, SnapshotDaemon};
pub use error::StoreError;
pub use format::{ModelChainImage, RegistryImage};
pub use storage::{ChaosDir, DiskDir, MemDir, ReadFault, Storage, WriteFault};
pub use store::{warm_start, LoadReport, SaveReport, SnapshotStore};
