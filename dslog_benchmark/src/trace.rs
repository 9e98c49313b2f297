//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The layers carry no instrumentation of their own yet, so one request is
//! traced by replaying it at successively deeper public entry points: over
//! TCP, through `DslogService::query`, through `Dslog::prov_query`, hop by
//! hop through `QueryExec::hop`, and box by box through `TableIndex::probe`.
//! A span's parent is the entry point one level up, and spans of one request
//! share its id. Self time is a span's duration minus its children's.
//!
//! Spans stay in memory and are written when the run ends.

use crate::common::{Ctx, Failures};
use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    pub request: u64,
}

/// Spans kept per run. Past it, durations still feed the metrics; only the
/// span file stops growing.
pub const MAX_SPANS: usize = 60_000;

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Run `f` inside a span; returns its result, the span's index (for
    /// children to name as parent) and its duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<u32>, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let dur = (end - start).as_nanos() as u64;
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return (out, None, dur);
        }
        let start_ns = (start - self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur,
            parent,
            request,
        });
        (out, Some(self.spans.len() as u32 - 1), dur)
    }

    /// Open a span that encloses later ones; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Per span name: how many, total time, and self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        by_name
    }

    /// Write the span file of a run; a failure to write fails the run.
    pub fn write(&self, ctx: &Ctx, failures: &mut Failures) {
        let file = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
        if let Err(e) = std::fs::write(&file, self.to_json(&ctx.workload).compact()) {
            failures.fail(format!("write {}: {e}", file.display()));
        }
    }

    /// The span file: a summary, then every span.
    fn to_json(&self, workload: &str) -> Value {
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("count", Value::count(t.count)),
                        ("total_us", Value::num(t.total_ns as f64 / 1e3)),
                        ("self_us", Value::num(t.self_ns as f64 / 1e3)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::count(s.start_ns)),
                    ("end_ns", Value::count(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::count(u64::from(p))),
                    ),
                    ("request", Value::count(s.request)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("workload", Value::str(workload)),
            ("spans_dropped", Value::count(self.dropped)),
            ("summary", Value::Obj(summary)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let (_, root, _) = t.span("net.query", None, 1, || ());
        let (_, child, _) = t.span("service.query", root, 1, || ());
        t.span("query.api", child, 1, || ());
        // Durations of empty closures are noise; fix them to check the sums.
        t.spans[0].end_ns = t.spans[0].start_ns + 900;
        t.spans[1].end_ns = t.spans[1].start_ns + 600;
        t.spans[2].end_ns = t.spans[2].start_ns + 250;
        let s = t.summary();
        assert_eq!(s["net.query"].self_ns, 300);
        assert_eq!(s["service.query"].self_ns, 350);
        assert_eq!(s["query.api"].self_ns, 250);
        let total_self: u64 = s.values().map(|t| t.self_ns).sum();
        assert_eq!(total_self, 900, "self times add up to the root span");
        let file = t.to_json("serve_point");
        assert_eq!(file.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}
