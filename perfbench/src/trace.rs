//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and a parent. Spans stay in memory
//! while the workload runs and are written out once, when it ends. A
//! layer's self time is its span's duration minus the time its child spans
//! cover. A disabled tracer records nothing, so the untraced run pays one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `engine.analyze_all`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Their summed self time, in seconds.
    pub seconds: f64,
}

impl SelfTime {
    /// Mean self time per call in milliseconds (0 for no calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.seconds * 1e3 / self.calls as f64
        }
    }
}

/// Collects the spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin`; a disabled one records nothing.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Every finished span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= (span.end_ns - span.start_ns) as i128;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.seconds += own.max(0) as f64 / 1e9;
        }
        out
    }
}

/// Renders the spans of several threads as Chrome trace-event JSON
/// (`chrome://tracing`, Perfetto). Each span becomes a complete event; its
/// parent index is kept in `args` so the tree survives the export.
pub fn chrome_trace_json(threads: &[(&str, &Tracer)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, (thread, tracer)) in threads.iter().enumerate() {
        for (index, span) in tracer.spans().iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"thread\":\"{thread}\",\"index\":{index},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
            );
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("outer");
        t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.exit();
        t.exit();
        let times = t.self_times();
        let outer = times["outer"];
        let inner = times["inner"];
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(inner.seconds >= 0.019, "{inner:?}");
        assert!(outer.seconds < inner.seconds, "{outer:?} vs {inner:?}");
        let json = chrome_trace_json(&[("main", &t)]);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.enter("x");
        t.exit();
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }
}
