//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out once when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the `id` of the span that caused it
/// (0 for none); spans of one request share the request's `id` through
/// that link. `items` counts what the interval processed.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub id: u64,
    pub items: u64,
}

/// Span recorder; inert (records nothing) when the run is untraced.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
    next_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
            next_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Nanoseconds of `at` since the tracer was created.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        items: u64,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                id,
                items,
            });
        }
        id
    }

    /// Times `f` as one span under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> (T, std::time::Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, items);
        (out, end - start)
    }

    pub fn len(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    /// Writes the spans as one JSON array.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self.spans.as_deref().unwrap_or_default();
        let write = || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            writeln!(out, "[")?;
            for (i, s) in spans.iter().enumerate() {
                let comma = if i + 1 < spans.len() { "," } else { "" };
                writeln!(
                    out,
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{},\"items\":{}}}{comma}",
                    s.name, s.start_ns, s.end_ns, s.parent, s.id, s.items
                )?;
            }
            writeln!(out, "]")?;
            out.flush()
        };
        write().map_err(|e| format!("{}: {e}", path.display()))
    }
}
