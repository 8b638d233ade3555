//! In-memory span recorder for the traced run.
//!
//! Spans are kept in a vector while the run measures and written out as
//! JSON lines once it ends, so recording costs one `Instant` pair and a
//! push per span. What that costs in total is itself measured (the
//! `obs.trace_overhead_frac` metric).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based, in recording order).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// `tick`, `op` or `probe.<layer>`.
    pub name: String,
    /// The workload operation the span belongs to (tick or request index).
    pub op: u64,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Counts attached to the span (e.g. registry deltas for that tick).
    pub counts: Vec<(&'static str, u64)>,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        op: u64,
        start: Instant,
        end: Instant,
        counts: Vec<(&'static str, u64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let span = Span {
            id,
            parent,
            name: name.into(),
            op,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            counts,
        };
        self.spans.push(span);
        id
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.op,
                s.start_ns,
                s.end_ns
            );
            if !s.counts.is_empty() {
                out.push_str(",\"counts\":{");
                for (i, (k, v)) in s.counts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}
