//! Spans recorded by the benchmark's own code around each call into the system: name,
//! start, end, parent span and request id, kept in memory and written out at the end.
//! Nothing inside the served programs is traced.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Ids are unique across recorders made with distinct
/// `thread` numbers.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing from `origin`, numbering its spans in the `thread` id range.
    pub fn new(origin: Instant, thread: u64) -> Self {
        Recorder {
            origin,
            next: thread << 40,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id, for a parent whose children finish before it does.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Record a finished span under a reserved `id`.
    pub fn finish(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        (start, end): (Instant, Instant),
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Record a finished leaf span.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        interval: (Instant, Instant),
    ) {
        let id = self.reserve();
        self.finish(id, name, parent, request, interval);
    }
}

/// Per span name: count, mean duration and mean self time (duration minus the part of
/// its interval covered by child spans), both in microseconds.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| by_id.get(&p)) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            *covered.entry(parent.id).or_insert(0) += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let own = duration.saturating_sub(covered.get(&span.id).copied().unwrap_or(0));
        let entry = out.entry(span.name).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += duration as f64 / 1e3;
        entry.2 += own as f64 / 1e3;
    }
    for entry in out.values_mut() {
        entry.1 /= entry.0 as f64;
        entry.2 /= entry.0 as f64;
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut rec = Recorder::new(origin, 1);
        let root = rec.reserve();
        rec.leaf("call", Some(root), 7, (at(10), at(70)));
        rec.leaf("verify", Some(root), 7, (at(70), at(80)));
        rec.finish(root, "request", None, 7, (at(0), at(100)));
        let summary = summarize(&rec.spans);
        let (n, duration, own) = summary["request"];
        assert_eq!(n, 1);
        assert!((duration - 100.0).abs() < 1e-9);
        assert!((own - 30.0).abs() < 1e-9);
        assert!((summary["call"].2 - 60.0).abs() < 1e-9);
    }
}
