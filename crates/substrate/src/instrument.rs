use serde::{Deserialize, Serialize};

/// Event counters the performance model (crate `ember-perf`) converts into
/// execution time and energy (§4.2–4.3).
///
/// All counts are cumulative since construction of the owning accelerator.
///
/// The per-call counters (`packed_kernel_calls`, `dense_kernel_calls`,
/// `simd_kernel_calls`) count calls across the [`Substrate`] trait
/// boundary. A caller that splits one batch's rows across several
/// replicas (the serving layer runs a large coalesced group on a
/// shard's share of the cores) makes one call per replica per
/// half-step, so they count every one; the other counters add up to
/// those of one call over the whole batch.
///
/// [`Substrate`]: crate::Substrate
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HardwareCounters {
    /// Positive-phase samples taken (one per training vector).
    pub positive_samples: u64,
    /// Negative-phase anneal/sampling passes.
    pub negative_samples: u64,
    /// Substrate phase points traversed (integration/settle steps); ≈12 ps
    /// each on the physical machine.
    pub phase_points: u64,
    /// In-place charge-pump weight-update events (BGF only; each event is
    /// one gated coupler adjustment).
    pub weight_update_events: u64,
    /// Words moved between host and substrate (coupling programming,
    /// sample read-out, data streaming, final ADC read).
    pub host_words_transferred: u64,
    /// Host-side multiply-accumulate operations (GS: gradient accumulation
    /// and weight update; BGF: none during training).
    pub host_mac_ops: u64,
    /// Batched sampling calls whose hot kernel ran bit-packed (the
    /// `ember_core::kernels` binary GEMM over a `BitMatrix`-packed
    /// state batch, or a packed threshold read on the BRIM).
    pub packed_kernel_calls: u64,
    /// Batched sampling calls served by the dense-GEMM / scalar
    /// fallback kernel (non-binary clamp levels, or the dense kernel
    /// selected explicitly as the measured baseline).
    pub dense_kernel_calls: u64,
    /// Sampling calls whose inner field loops executed on a vector
    /// SIMD tier (AVX2/NEON, `ndarray::simd`). Orthogonal to the
    /// packed/dense split — both kernels run their inner loops on the
    /// active tier — so on a vector tier this equals
    /// `packed_kernel_calls + dense_kernel_calls`, and it stays `0`
    /// when the scalar reference tier is pinned
    /// (`EMBER_FORCE_SCALAR`). The deployment health check that a
    /// fleet is actually on the fast tier.
    pub simd_kernel_calls: u64,
    /// Hard substrate faults raised through the fallible entry points
    /// (`try_program` / `try_sample_batch_rows`): the operation failed outright
    /// and returned a `SubstrateFault` instead of data.
    pub substrate_faults: u64,
    /// Programming events that realized **corrupted** couplings
    /// (stuck-at weight bits): the array was written, but not with the
    /// host's intended values. Detectable by readback checksum.
    pub corrupted_programmings: u64,
    /// Sample read-outs with injected corruption (comparator latches
    /// stuck mid-rail, surfaced as non-binary/NaN cells). Detectable by
    /// the host's sanity screen.
    pub corrupted_reads: u64,
    /// Recovery retries the host executed against this substrate
    /// (host-accounted, like `host_mac_ops`): each retry re-programs
    /// the volatile couplings and re-runs the failed operation.
    pub recovery_retries: u64,
}

impl HardwareCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events accumulated since `earlier` (an older snapshot of this
    /// same counter set): field-wise `self − earlier`. The serving layer
    /// uses this to attribute one coalesced execution's hardware events
    /// to the responses it scatters.
    ///
    /// # Panics
    ///
    /// Panics if any field of `earlier` exceeds the corresponding field
    /// of `self` (i.e. `earlier` is not an earlier snapshot).
    #[must_use]
    pub fn delta_since(&self, earlier: &HardwareCounters) -> HardwareCounters {
        let sub = |now: u64, then: u64, what: &str| {
            now.checked_sub(then)
                .unwrap_or_else(|| panic!("`{what}` went backwards: {now} < {then}"))
        };
        HardwareCounters {
            positive_samples: sub(
                self.positive_samples,
                earlier.positive_samples,
                "positive_samples",
            ),
            negative_samples: sub(
                self.negative_samples,
                earlier.negative_samples,
                "negative_samples",
            ),
            phase_points: sub(self.phase_points, earlier.phase_points, "phase_points"),
            weight_update_events: sub(
                self.weight_update_events,
                earlier.weight_update_events,
                "weight_update_events",
            ),
            host_words_transferred: sub(
                self.host_words_transferred,
                earlier.host_words_transferred,
                "host_words_transferred",
            ),
            host_mac_ops: sub(self.host_mac_ops, earlier.host_mac_ops, "host_mac_ops"),
            packed_kernel_calls: sub(
                self.packed_kernel_calls,
                earlier.packed_kernel_calls,
                "packed_kernel_calls",
            ),
            dense_kernel_calls: sub(
                self.dense_kernel_calls,
                earlier.dense_kernel_calls,
                "dense_kernel_calls",
            ),
            simd_kernel_calls: sub(
                self.simd_kernel_calls,
                earlier.simd_kernel_calls,
                "simd_kernel_calls",
            ),
            substrate_faults: sub(
                self.substrate_faults,
                earlier.substrate_faults,
                "substrate_faults",
            ),
            corrupted_programmings: sub(
                self.corrupted_programmings,
                earlier.corrupted_programmings,
                "corrupted_programmings",
            ),
            corrupted_reads: sub(
                self.corrupted_reads,
                earlier.corrupted_reads,
                "corrupted_reads",
            ),
            recovery_retries: sub(
                self.recovery_retries,
                earlier.recovery_retries,
                "recovery_retries",
            ),
        }
    }

    /// Merges another counter set into this one (used when sharding
    /// training across machines in sweeps).
    pub fn merge(&mut self, other: &HardwareCounters) {
        self.positive_samples += other.positive_samples;
        self.negative_samples += other.negative_samples;
        self.phase_points += other.phase_points;
        self.weight_update_events += other.weight_update_events;
        self.host_words_transferred += other.host_words_transferred;
        self.host_mac_ops += other.host_mac_ops;
        self.packed_kernel_calls += other.packed_kernel_calls;
        self.dense_kernel_calls += other.dense_kernel_calls;
        self.simd_kernel_calls += other.simd_kernel_calls;
        self.substrate_faults += other.substrate_faults;
        self.corrupted_programmings += other.corrupted_programmings;
        self.corrupted_reads += other.corrupted_reads;
        self.recovery_retries += other.recovery_retries;
    }

    /// Total injected/observed fault events of any kind — the one-number
    /// "did anything go wrong on this substrate" check.
    pub fn total_fault_events(&self) -> u64 {
        self.substrate_faults + self.corrupted_programmings + self.corrupted_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = HardwareCounters {
            positive_samples: 1,
            negative_samples: 2,
            phase_points: 3,
            weight_update_events: 4,
            host_words_transferred: 5,
            host_mac_ops: 6,
            packed_kernel_calls: 7,
            dense_kernel_calls: 8,
            simd_kernel_calls: 13,
            substrate_faults: 9,
            corrupted_programmings: 10,
            corrupted_reads: 11,
            recovery_retries: 12,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.positive_samples, 2);
        assert_eq!(a.host_mac_ops, 12);
        assert_eq!(a.packed_kernel_calls, 14);
        assert_eq!(a.dense_kernel_calls, 16);
        assert_eq!(a.simd_kernel_calls, 26);
        assert_eq!(a.substrate_faults, 18);
        assert_eq!(a.corrupted_programmings, 20);
        assert_eq!(a.corrupted_reads, 22);
        assert_eq!(a.recovery_retries, 24);
        assert_eq!(a.total_fault_events(), 18 + 20 + 22);
    }

    #[test]
    fn delta_since_inverts_merge() {
        let earlier = HardwareCounters {
            positive_samples: 1,
            negative_samples: 2,
            phase_points: 3,
            weight_update_events: 4,
            host_words_transferred: 5,
            host_mac_ops: 6,
            packed_kernel_calls: 7,
            dense_kernel_calls: 8,
            simd_kernel_calls: 13,
            substrate_faults: 9,
            corrupted_programmings: 10,
            corrupted_reads: 11,
            recovery_retries: 12,
        };
        let mut now = earlier;
        let delta = HardwareCounters {
            phase_points: 40,
            host_words_transferred: 8,
            packed_kernel_calls: 2,
            simd_kernel_calls: 2,
            substrate_faults: 3,
            recovery_retries: 1,
            ..HardwareCounters::new()
        };
        now.merge(&delta);
        assert_eq!(now.delta_since(&earlier), delta);
        assert_eq!(now.delta_since(&now), HardwareCounters::new());
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn delta_since_rejects_non_snapshot() {
        let a = HardwareCounters {
            phase_points: 1,
            ..HardwareCounters::new()
        };
        let _ = HardwareCounters::new().delta_since(&a);
    }

    #[test]
    fn default_is_zero() {
        let c = HardwareCounters::new();
        assert_eq!(c.phase_points, 0);
        assert_eq!(c, HardwareCounters::default());
    }
}
