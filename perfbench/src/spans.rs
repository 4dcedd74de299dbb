//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers, and the per-layer self time derived from them.
//!
//! Spans are kept in memory while the run measures and written once, as
//! JSONL, when it ends. A span's self time is its duration minus the
//! part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The layer the span is billed to, e.g. `runner` or `serve.queue`.
    pub layer: &'static str,
    /// What was called, e.g. `Experiment::run fig10`.
    pub name: String,
    /// Request id; spans of one request share it (0 = none).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder. A disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval given in tracer nanoseconds and
    /// returns its id (0 when disabled).
    pub fn record_ns(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<u64>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span list lock");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            layer,
            name: name.into(),
            req,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Runs `f` inside a span. `f` receives the span's id so that it can
    /// parent spans of its own; the id is reserved before `f` runs.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.record_ns(layer, name, parent, 0, 0, 0);
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        let mut spans = self.spans.lock().expect("span list lock");
        let slot = &mut spans[(id - 1) as usize];
        slot.start_ns = self.ns(start);
        slot.end_ns = self.ns(end);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock").len()
    }

    /// Self seconds per layer: each span's duration minus the union of
    /// its children's intervals, clipped to the span.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list lock");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.layer,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let root = t.record_ns("runner", "run", None, 0, 0, 100);
        t.record_ns("experiment", "a", Some(root), 0, 10, 40);
        t.record_ns("experiment", "b", Some(root), 0, 30, 60);
        let selfs = t.self_seconds();
        assert!((selfs["runner"] - 50e-9).abs() < 1e-15);
        assert!((selfs["experiment"] - 60e-9).abs() < 1e-15);
    }
}
