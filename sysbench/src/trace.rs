//! Spans recorded from outside the program: the benchmark wraps each call
//! into a crate's public function, keeps the spans in memory, and writes
//! them out when the run ends. A layer's self time is its span minus the
//! spans it caused.

use std::collections::BTreeMap;
use std::time::Instant;

use shmls_ir::json::Json;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer function called, e.g. `core.hmls`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (compile, iteration, request) the span belongs to.
    pub op: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
}

/// An in-memory span recorder. Spans opened with [`Tracer::begin`] nest:
/// the innermost open span is the parent of the next one.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the tracer's epoch for an instant taken elsewhere
    /// (client threads stamp requests themselves and [`Tracer::record`]
    /// them afterwards).
    pub fn ns_at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let index = self.open.pop().expect("end() without a matching begin()");
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Time one call as a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Add a span timed elsewhere.
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
        });
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// The trace as a JSON document (times in microseconds).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("start_us".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".to_string(), Json::Num(s.end_ns as f64 / 1e3)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op".to_string(), Json::Num(s.op as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![("spans".to_string(), Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_self_time() {
        let mut t = Tracer::new();
        t.begin("outer", 7);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.span("inner", 7, || std::hint::black_box(2 + 2));
        t.end();
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));

        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["inner"].self_ns, totals["inner"].total_ns);
        assert_eq!(
            totals["outer"].self_ns,
            totals["outer"].total_ns - totals["inner"].total_ns
        );
    }

    #[test]
    fn recorded_spans_round_trip_through_json() {
        let mut t = Tracer::new();
        t.record("serve.request", 3, 1_000, 251_000);
        let doc = Json::parse(&t.to_json().compact()).unwrap();
        let span = &doc.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(span.get("name").unwrap().as_str(), Some("serve.request"));
        assert_eq!(span.get("start_us").unwrap().as_f64(), Some(1.0));
        assert_eq!(span.get("end_us").unwrap().as_f64(), Some(251.0));
        assert_eq!(span.get("parent"), Some(&Json::Null));
        assert_eq!(span.get("op").unwrap().as_u64(), Some(3));
    }
}
