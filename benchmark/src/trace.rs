//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around the calls
//! into each layer's public functions; spans inside the crates are a
//! later change (ROADMAP item 2). A disabled tracer records nothing and
//! reads no clock, so the untraced run pays one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`serving.step`, `frontdoor.poll_once`, ...).
    pub name: &'static str,
    /// Start, nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to, when it belongs to one.
    pub request: Option<u64>,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(Instant::now(), enabled)
    }

    /// A tracer whose timestamps count from `origin`, so two threads'
    /// tracers share one time axis.
    pub fn with_origin(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Appends parentless spans recorded by another tracer of the same
    /// origin (the door thread's).
    pub fn absorb(&mut self, spans: Vec<Span>) {
        debug_assert!(spans.iter().all(|s| s.parent.is_none()));
        self.spans.extend(spans);
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off at a window boundary.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is not known yet (a window, a request).
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        self.record(name, start, start, parent, request)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(end);
        }
    }

    /// Times `f` as a span when enabled; just calls it otherwise.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a Chrome-trace (`chrome://tracing`, Perfetto)
    /// JSON array of complete events; `args` carries parent and request.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            // Requests get a track each so their lifetimes do not stack
            // on the harness thread's call spans.
            let tid = s.request.map_or(0, |r| 1 + r % 64);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{request}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut acc: Vec<(&'static str, u64, usize)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        match acc.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += t;
                e.2 += 1;
            }
            None => acc.push((s.name, t, 1)),
        }
    }
    acc.sort_by_key(|e| std::cmp::Reverse(e.1));
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1
            span(20, 50, Some(0)),  // 2: overlaps 1 by 10
            span(60, 70, Some(0)),  // 3
            span(22, 28, Some(2)),  // 4: grandchild, not root's business
            span(90, 120, Some(0)), // 5: clipped at the parent's end
        ];
        let st = self_times_ns(&spans);
        // Children cover [10,50) + [60,70) + [90,100) = 60 of 100.
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 24);
        assert_eq!(st[4], 6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, None, || 7), 7);
        let id = t.open("w", Instant::now(), None, None);
        t.close(id, Instant::now());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let w = t.open("w", Instant::now(), None, None);
        t.span("x", w, Some(3), || ());
        t.close(w, Instant::now());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, Some(3));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
