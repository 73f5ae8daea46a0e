//! Benchmark-side spans around calls into the system's layers.
//!
//! Spans live in memory for the whole traced run and are written out
//! once at the end as Chrome-trace JSON; the recorder reads the clock
//! only at span boundaries, from the benchmark's own code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The wall clock. Every timing in the benchmark starts here; the
/// readings go to the report and the trace, never into a planner input.
pub fn now() -> Instant {
    Instant::now() // lint: allow(wall-clock) — measuring wall time is this program's job
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric the span feeds (e.g. `core.accuracy.build_ms`).
    pub name: &'static str,
    /// Optional detail, such as the network layer a call covered.
    pub label: Option<String>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or search) the span belongs to.
    pub request: usize,
    /// Microseconds since the recorder started.
    pub start_us: f64,
    /// Microseconds since the recorder started (`start_us` while open).
    pub end_us: f64,
}

impl Span {
    /// Span duration, microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its index for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        self.enter_labelled(name, None, parent, request)
    }

    /// [`Tracer::enter`] with a detail label.
    pub fn enter_labelled(
        &mut self,
        name: &'static str,
        label: Option<String>,
        parent: Option<usize>,
        request: usize,
    ) -> usize {
        let now = self.now_us();
        // lint: allow(grow) — spans of a fixed request count, kept until the run ends
        self.spans.push(Span {
            name,
            label,
            parent,
            request,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_us();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_us = now;
        }
    }

    /// [`Tracer::enter`] on an optional recorder (untraced runs pass `None`).
    pub fn enter_opt(
        tracer: &mut Option<&mut Tracer>,
        name: &'static str,
        request: usize,
    ) -> Option<usize> {
        tracer.as_deref_mut().map(|t| t.enter(name, None, request))
    }

    /// [`Tracer::exit`] on an optional recorder.
    pub fn exit_opt(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.exit(id);
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, per request, in
    /// microseconds (requests without such a span are absent).
    pub fn per_request_us(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(span.request).or_insert(0.0) += span.dur_us();
        }
        out
    }

    /// Per-request totals of `name`, as a list of microseconds.
    pub fn samples_us(&self, name: &str) -> Vec<f64> {
        self.per_request_us(name).into_values().collect()
    }

    /// The spans as a Chrome-trace JSON document (complete events, one
    /// lane per request; parent and request ids in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let label = span
                .label
                .as_deref()
                .map_or_else(|| "null".to_string(), |l| format!("\"{l}\""));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{},\"label\":{label}}}}}",
                span.name,
                span.request,
                span.start_us,
                span.dur_us(),
                span.request
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_request() {
        let mut t = Tracer::new();
        let root = t.enter("request", None, 0);
        let a = t.enter("stage", Some(root), 0);
        t.exit(a);
        let b = t.enter_labelled("stage", Some("L1".to_string()), Some(root), 0);
        t.exit(b);
        t.exit(root);
        let other = t.enter("stage", None, 1);
        t.exit(other);
        let per = t.per_request_us("stage");
        assert_eq!(per.len(), 2);
        assert!(per[&0] <= t.spans()[root].dur_us());
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"request\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"label\":\"L1\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }
}
