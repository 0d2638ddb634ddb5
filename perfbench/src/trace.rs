//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (seconds since the tracer's origin),
//! the span that caused it and, for request spans, the request id. Spans are
//! kept in memory and written out when the run ends; a disabled tracer
//! records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

/// The span store of one run.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished interval; `None` when tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("no span writer panics");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, None, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.at(Instant::now());
            self.spans.lock().expect("no span writer panics")[id].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {}, \"request\": {}}}",
                    s.name,
                    s.start,
                    s.end,
                    opt(s.parent.map(|p| p as u64)),
                    opt(s.request)
                )
            })
            .collect();
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }
}

/// Total self time in seconds per span name: each span's duration minus the
/// part of its interval that its children cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    let mut totals = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(span.end));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *totals.entry(span.name).or_insert(0.0) += (span.end - span.start) - covered;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("loop", 0.0, 10.0, None),
            // Overlapping children cover [1, 5) once, not twice.
            span("request", 1.0, 4.0, Some(0)),
            span("request", 2.0, 5.0, Some(0)),
            span("request", 7.0, 8.0, Some(0)),
            span("execute", 7.5, 9.0, Some(3)),
        ];
        let totals = self_seconds(&spans);
        assert!((totals["loop"] - 5.0).abs() < 1e-12);
        assert!((totals["request"] - (3.0 + 3.0 + 0.5)).abs() < 1e-12);
        assert!((totals["execute"] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.begin("loop", None);
        tracer.end(id);
        assert_eq!(id, None);
        assert!(tracer.spans().is_empty());
    }
}
