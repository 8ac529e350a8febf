//! In-memory spans for the traced run. Every public call the benchmark
//! makes during the traced run is wrapped in a span: name, start, end,
//! parent span and request id. Spans stay in memory until the run ends
//! and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `router`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

/// Per-name totals over all spans of that name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Number of spans.
    pub calls: usize,
    /// Sum of self times, in seconds.
    pub self_s: f64,
}

impl Totals {
    /// Mean self time per call, in seconds (`0` without calls).
    pub fn mean_s(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_s / self.calls as f64
        }
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans that follow with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// The instant the tracer's clock started.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a root span timed elsewhere (e.g. on another thread), in
    /// seconds since [`Tracer::origin`].
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            request: self.request,
        });
    }

    /// Call counts and self-time sums per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<stats::Interval>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&children) {
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_s += stats::self_time((span.start, span.end), kids);
        }
        out
    }

    /// Writes every span as one JSON object per line, preceded by a
    /// header line describing the run.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_count_calls_and_subtract_children() {
        let mut t = Tracer::new();
        t.set_request(7);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        t.record("remote", 0.0, 0.5);
        let totals = t.totals();
        assert_eq!(totals["outer"].calls, 1);
        assert_eq!(totals["inner"].calls, 2);
        assert!(totals["inner"].self_s >= 0.04);
        // The outer span did almost nothing itself.
        assert!(totals["outer"].self_s < 0.01, "{:?}", totals["outer"]);
        assert!((totals["remote"].mean_s() - 0.5).abs() < 1e-12);
        assert!(t.spans.iter().all(|s| s.request == 7));
    }
}
