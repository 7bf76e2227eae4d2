//! In-memory span recorder for the traced run.
//!
//! Spans (name, start, end, parent, op id) are recorded around the
//! public calls into each layer, with counts taken at the same
//! boundaries. A layer's self time is its span's duration minus the
//! time its child spans cover; the root span of each op (`op`) keeps
//! whatever no layer claims, reported as `other`. A disabled tracer
//! records nothing and reads no clock, so the same op code runs traced
//! and untraced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::percentile;

/// The root span name of one op.
pub const OP: &str = "op";

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// `(op, counter) -> summed value`.
    counts: BTreeMap<(u64, &'static str), f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Switches recording on or off (the traced run alternates traced
    /// and untraced ops to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of op `op`; close it with [`Tracer::exit`].
    pub fn begin_op(&mut self, op: u64) -> Option<usize> {
        self.op = op;
        self.enter(OP)
    }

    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.spans[idx].end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must nest");
        }
    }

    /// Runs `f` inside a leaf span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Records a root span of op `op` measured elsewhere, e.g. a round
    /// trip timed by a client thread.
    pub fn record_op(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            op,
        });
    }

    /// Adds `value` to counter `name` of the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.entry((self.op, name)).or_insert(0.0) += value;
        }
    }

    /// Per op: summed self time of the spans named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            if span.name == name {
                let own = span
                    .end_ns
                    .saturating_sub(span.start_ns)
                    .saturating_sub(covered);
                *out.entry(span.op).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// Per op: summed duration of the spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(span.op).or_insert(0.0) +=
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e6;
        }
        out
    }

    /// Per op: the summed value of counter `name`.
    pub fn counts(&self, name: &str) -> BTreeMap<u64, f64> {
        self.counts
            .iter()
            .filter(|(&(_, n), _)| n == name)
            .map(|(&(op, _), &v)| (op, v))
            .collect()
    }

    /// The recorded spans as JSON lines (one object per span).
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The median over `ops` of a per-op series (0 where an op has no value).
pub fn p50_over(ops: &[u64], per_op: &BTreeMap<u64, f64>) -> f64 {
    let values: Vec<f64> = ops
        .iter()
        .map(|op| per_op.get(op).copied().unwrap_or(0.0))
        .collect();
    percentile(&values, 50.0)
}

/// The p50 self time over `ops` of each `(metric, span)` pair, plus
/// the `other` residual (self time of the op root span).
pub fn self_p50s(
    tr: &Tracer,
    ops: &[u64],
    pairs: &[(&'static str, &'static str)],
) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = pairs
        .iter()
        .map(|&(metric, span)| (metric, p50_over(ops, &tr.self_ms(span))))
        .collect();
    out.push(("other_ms", p50_over(ops, &tr.self_ms(OP))));
    out
}

/// The tracing overhead: median traced op latency minus median
/// untraced op latency, both from the traced run.
pub fn overhead_ms(traced_ms: &[f64], untraced_ms: &[f64]) -> (&'static str, f64) {
    (
        "trace.overhead_ms",
        percentile(traced_ms, 50.0) - percentile(untraced_ms, 50.0),
    )
}
