//! Metric names and units, exact quantiles, process accounting, and the
//! one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("ok_ratio", "ratio"),
    ("slo_ok_ratio", "ratio"),
    ("train_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("http.overhead_ms", "ms"),
    ("http.parse_us", "us"),
    ("http.encode_us", "us"),
    ("http.decode_us", "us"),
    ("http.bytes_per_req", "count"),
    ("http.conns_per_req", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_rows_mean", "count"),
    ("serve.groups_per_req", "count"),
    ("serve.group_ms", "ms"),
    ("serve.shard_busy_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.publish_us", "us"),
    ("substrate.program_us", "us"),
    ("substrate.program_words_per_req", "count"),
    ("substrate.sample_rows_us", "us"),
    ("substrate.phase_points_per_req", "count"),
    ("kernels.pack_us", "us"),
    ("kernels.gemm_us", "us"),
    ("kernels.latch_us", "us"),
    ("kernels.macs_per_req", "count"),
    ("kernels.packed_ratio", "ratio"),
    ("rbm.train_ms", "ms"),
    ("rbm.host_macs_per_train", "count"),
    ("proc.allocs_per_req", "count"),
    ("proc.alloc_bytes_per_req", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("e2e.latency_p99_ms", "ms"),
    ("e2e.latency_samples", "count"),
    ("trace.reconcile", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("host.steal_ratio", "ratio"),
];

/// Exact nearest-rank quantile of raw samples (`q` in `[0, 1]`); `0`
/// for an empty sample.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median of floats (mean of the middle pair on even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of the best eighth of `values` (rounded up): the lowest, or
/// with `higher` the highest. Over a run's segments this is the figure of
/// the host's quiet spells, however much of the run the shared host was
/// slowed by others.
pub fn best_eighth(values: &[f64], higher: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher {
        v.reverse();
    }
    median(&v[..v.len().div_ceil(8)])
}

/// Process CPU time (user + system, all threads) in milliseconds, from
/// `/proc/self/stat` at the kernel's 100 Hz `USER_HZ`.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // Fields 14 and 15 of the line; `fields[0]` is field 3 (state).
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// CPU time the hypervisor took from this machine (all CPUs) in
/// milliseconds, from the `steal` column of `/proc/stat`: on a shared host
/// it explains a run whose wall-clock figures fall behind its CPU time.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line the benchmark ends with.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked output matched its recomputation.
    pub correct: bool,
    /// Operations attempted in the measured run.
    pub attempted: u64,
    /// Operations failed, refused, or answered with wrong bits.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The JSON object for the metrics in `table` (every name must have
    /// been set).
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or_else(|| {
                panic!("metric {name} was not measured");
            });
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn best_eighth_takes_the_right_end() {
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(best_eighth(&v, false), 2.5);
        assert_eq!(best_eighth(&v, true), 28.5);
        assert_eq!(best_eighth(&[3.0, 1.0, 2.0], false), 1.0);
    }

    #[test]
    fn proc_accounting_reads_something() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_ms() > 0.0);
    }

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// with the same unit, and nothing declared goes unprinted.
    #[test]
    fn metric_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = serde_json::parse_value(&text).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(Value::as_seq).expect(key).to_vec();
        let text_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        };
        let declared = |key: &str| -> Vec<(String, String)> {
            list(key)
                .iter()
                .map(|m| (text_of(m, "name"), text_of(m, "unit")))
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        let names: Vec<String> = crate::gen::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.to_json(&END_TO_END);
        let doc = serde_json::parse_value(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
