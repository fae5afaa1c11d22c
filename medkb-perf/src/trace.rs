//! In-memory span recorder for the traced runs.
//!
//! Every timed call into a layer gets a span: a name, start and end, the
//! span that caused it, and the id of the request it belongs to. Spans
//! stay in memory while the workload runs and are written out once, at
//! the end, so recording costs one `Instant::now()` and one push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ekg.enumerate`.
    pub name: &'static str,
    /// The request (or update, or ingest round) the span belongs to.
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced runs measure the program without the recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Tracer::start`].
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span measured elsewhere (e.g. a client-side round trip
    /// whose start and end the load loop already took).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Recorded spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span called `name`, in seconds: its duration
    /// minus the part of its interval its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                s.end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(child_ns[i]) as f64
                    * 1e-9
            })
            .collect()
    }

    /// Total self time of the spans called `name`, per request id.
    pub fn self_time_by_request(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut totals = BTreeMap::new();
        let spans = self.spans.iter().filter(|s| s.name == name);
        for (s, t) in spans.zip(self.self_times(name)) {
            *totals.entry(s.request).or_insert(0.0) += t;
        }
        totals
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let parent = t.start("outer", 7, None);
        t.leaf("inner", 7, Some(parent), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(parent);
        let outer = t.self_times("outer")[0];
        let inner = t.self_times("inner")[0];
        assert!(inner >= 0.005, "{inner}");
        assert!(
            outer < inner,
            "outer self {outer} should exclude inner {inner}"
        );
        t.leaf("inner", 7, None, || ());
        let by_request = t.self_time_by_request("inner");
        assert_eq!(by_request.len(), 1);
        assert!(by_request[&7] >= inner);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.start("x", 1, None);
        t.end(id);
        t.record("y", 1, None, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
