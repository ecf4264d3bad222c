//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a layer call, or the request that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name (`substrate.program`, `request`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub req: u64,
}

/// A span recorder owned by one thread; tracers of other threads sharing
/// the epoch are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Moves every span of `other` (same epoch) into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(summed self time in ns, span count)`. A span's
    /// self time is its duration minus the durations of its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(children);
            let entry = out.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        out
    }

    /// Mean self time per span of `name`, or per `per` units if given,
    /// in microseconds.
    pub fn self_us(&self, name: &str, per: Option<f64>) -> f64 {
        match self.self_times().get(name) {
            Some(&(ns, count)) => ns as f64 / 1e3 / per.unwrap_or(count as f64).max(1.0),
            None => 0.0,
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let root = tr.record("request", None, 1, t0, t0 + Duration::from_micros(100));
        tr.record(
            "a",
            Some(root),
            1,
            t0 + Duration::from_micros(10),
            t0 + Duration::from_micros(40),
        );
        tr.record(
            "b",
            Some(root),
            1,
            t0 + Duration::from_micros(50),
            t0 + Duration::from_micros(60),
        );
        let st = tr.self_times();
        assert_eq!(st["request"], (60_000, 1));
        assert_eq!(st["a"], (30_000, 1));
        assert_eq!(st["b"], (10_000, 1));
        assert!(tr.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn absorb_reindexes_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.record("x", None, 0, t0, t0);
        let mut b = Tracer::new(t0);
        let root = b.record("y", None, 1, t0, t0);
        b.record("z", Some(root), 1, t0, t0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
