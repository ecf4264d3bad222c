//! Log-bucketed latency histograms for the serving data path.
//!
//! Tail latency cannot be summarized by an average: an open-loop flood
//! at 2× capacity shows a p50 that looks healthy while p99.9 has left
//! the building. The service therefore records every accepted sample
//! request's queue-to-answer latency into a [`LatencyHistogram`] — a
//! fixed-size array of logarithmic buckets (4 sub-buckets per octave,
//! ≤ ~19% relative bucket width) covering 1 ns to ~5 s. Recording is a
//! single increment, merging shard histograms is element-wise addition,
//! and quantiles are a cumulative walk; nothing allocates after
//! construction, so the histogram can sit inside the per-shard stats
//! that every request already touches.
//!
//! The same type backs two surfaces: live [`ShardStats`] /
//! [`ServiceStats`](crate::ServiceStats) snapshots and the HTTP edge's
//! `GET /v1/stats` JSON.
//!
//! [`ShardStats`]: crate::ShardStats

use std::fmt;
use std::time::Duration;

/// Sub-buckets per power-of-two octave. 4 gives ≤ 2^(1/4)−1 ≈ 19%
/// relative error at the bucket boundary — plenty for p50/p99/p99.9
/// reporting.
const SUBS_PER_OCTAVE: u64 = 4;

/// Octaves covered: bucket 0 starts at 1 ns; the last octave tops out
/// at 2^32 ns ≈ 4.3 s. Anything slower clamps into the final bucket.
const OCTAVES: usize = 33;

/// Total bucket count.
const BUCKETS: usize = OCTAVES * SUBS_PER_OCTAVE as usize;

/// A fixed-memory logarithmic histogram of durations (nanosecond
/// resolution, ~19% relative bucket width, 1 ns ..= ~4.3 s range).
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use ember_serve::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 5);
/// // p50 lands in the 3 ms bucket; the bound is the bucket's upper edge.
/// assert!(h.p50() >= Duration::from_millis(3));
/// assert!(h.p50() < Duration::from_millis(4));
/// // The 100 ms outlier owns the tail.
/// assert!(h.p99() >= Duration::from_millis(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LatencyHistogram {
    /// Per-bucket counts (log-spaced; see module docs).
    counts: Vec<u64>,
    /// Total recorded samples.
    total: u64,
    /// Sum of recorded nanoseconds (saturating) — for `mean`.
    sum_nanos: u64,
    /// Largest recorded value in nanoseconds.
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }

    /// Bucket index of a nanosecond value (clamped into range).
    fn index(nanos: u64) -> usize {
        let v = nanos.max(1);
        let octave = 63 - v.leading_zeros() as u64;
        // Two bits immediately below the leading bit select the
        // sub-bucket; octaves 0 and 1 have fewer mantissa bits and
        // collapse toward sub-bucket 0 (sub-nanosecond precision is
        // irrelevant here).
        let sub = if octave >= 2 {
            (v >> (octave - 2)) & (SUBS_PER_OCTAVE - 1)
        } else {
            0
        };
        ((octave * SUBS_PER_OCTAVE + sub) as usize).min(BUCKETS - 1)
    }

    /// Upper edge of bucket `idx` in nanoseconds (inclusive bound used
    /// when reporting quantiles).
    fn upper_edge(idx: usize) -> u64 {
        if idx >= BUCKETS - 1 {
            // The final bucket absorbs everything past the range; its
            // only honest upper bound is the observed maximum (the
            // caller clamps against `max_nanos`).
            return u64::MAX;
        }
        let octave = (idx as u64) / SUBS_PER_OCTAVE;
        let sub = (idx as u64) % SUBS_PER_OCTAVE;
        // 2^octave * (1 + (sub+1)/4) == lower edge of the next bucket.
        (1u64 << octave) + ((sub + 1) << octave) / SUBS_PER_OCTAVE
    }

    /// Records one duration.
    pub fn record(&mut self, latency: Duration) {
        self.record_nanos(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one latency expressed in nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.total += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Element-wise accumulation of another histogram (shard → service
    /// roll-up).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean recorded latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos / self.total)
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// The latency at quantile `q` in `[0, 1]` — the upper edge of the
    /// bucket containing the `ceil(q · count)`-th sample, clamped to the
    /// observed maximum. Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(Self::upper_edge(idx).min(self.max_nanos));
            }
        }
        Duration::from_nanos(self.max_nanos)
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> Duration {
        self.quantile(0.999)
    }
}

impl fmt::Display for LatencyHistogram {
    /// Compact single-line summary: `n=…, p50=…, p99=…, p99.9=…, max=…`
    /// with millisecond formatting — what the examples print in their
    /// stats dumps.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "n={}, p50={:.2} ms, p99={:.2} ms, p99.9={:.2} ms, max={:.2} ms",
            self.total,
            ms(self.p50()),
            ms(self.p99()),
            ms(self.p999()),
            ms(self.max()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn quantiles_bound_recorded_values_within_bucket_resolution() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        assert_eq!(h.count(), 1000);
        // p50 ≈ 500 µs within one ~19%-wide bucket (upper-edge bias).
        let p50 = h.p50().as_nanos() as f64;
        assert!((416e3..=640e3).contains(&p50), "p50 = {p50} ns");
        // p99 ≈ 990 µs, same tolerance.
        let p99 = h.p99().as_nanos() as f64;
        assert!((830e3..=1300e3).contains(&p99), "p99 = {p99} ns");
        // The maximum is exact.
        assert_eq!(h.max(), Duration::from_micros(1000));
        // Quantiles never exceed the observed maximum.
        assert!(h.p999() <= h.max());
    }

    #[test]
    fn merge_is_equivalent_to_recording_everything_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500u64 {
            let d = Duration::from_nanos(1 + i * i * 37);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn extreme_values_clamp_instead_of_panicking() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(3600));
        h.record_nanos(u64::MAX);
        assert_eq!(h.count(), 3);
        assert!(h.p999() >= Duration::from_secs(3600));
    }
}
