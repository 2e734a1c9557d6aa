//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans of one session share its id; they are kept in memory
//! while the benchmark runs and written out as JSON lines at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call (or loop of calls) into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span, `0` for a session root.
    pub parent: u64,
    /// Session the span belongs to.
    pub session: u64,
    /// Layer call, e.g. `core.knn.classify_batch`.
    pub name: &'static str,
    /// Start, nanoseconds from the tracer's creation.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Work items the span covered (frames, rows, snapshots).
    pub items: u64,
}

/// Span store; recording is a no-op when tracing is off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span starting now; [`Tracer::close`] sets its duration.
    /// Returns its id (`0` when tracing is off).
    pub fn open(&mut self, name: &'static str, session: u64, parent: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let start = Instant::now();
        self.record(name, session, parent, start, 0)
    }

    /// Ends the span `id` now, crediting it with `items`.
    pub fn close(&mut self, id: u64, items: u64) {
        if id == 0 {
            return;
        }
        let now = Instant::now().saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = &mut self.spans[id as usize - 1];
        span.dur_ns = now.saturating_sub(span.start_ns);
        span.items = items;
    }

    /// Records a span that started at `start` and ends now; returns its
    /// id (`0` when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        session: u64,
        parent: u64,
        start: Instant,
        items: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let end = Instant::now();
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            session,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            items,
        });
        id
    }

    /// Appends spans recorded by another tracer (a generator thread's),
    /// renumbering their ids and re-basing their start times.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u64;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for mut s in other.spans {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s.start_ns += shift;
            self.spans.push(s);
        }
    }

    /// Total duration and items of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns, n + s.items))
    }

    /// Nanoseconds per item over every span named `name` (`0.0` if none).
    pub fn ns_per_item(&self, name: &str) -> f64 {
        let (ns, items) = self.total(name);
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64
        }
    }

    /// Per-span durations of `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e3).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"session\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"items\":{}}}",
                s.id, s.parent, s.session, s.name, s.start_ns, s.dur_ns, s.items
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.record("x", 1, 0, Instant::now(), 3), 0);
        assert_eq!(t.total("x"), (0, 0));
    }

    #[test]
    fn spans_share_session_and_nest() {
        let mut t = Tracer::new(true);
        let root = t.record("session", 7, 0, Instant::now(), 1);
        let child = t.record("call", 7, root, Instant::now(), 32);
        assert_eq!((root, child), (1, 2));
        let open = t.open("session", 7, 0);
        t.close(open, 5);
        assert_eq!(t.total("session").1, 6);
        assert_eq!(t.total("call").1, 32);
        let mut other = Tracer::new(true);
        let r = other.record("session", 8, 0, Instant::now(), 1);
        other.record("call", 8, r, Instant::now(), 4);
        t.absorb(other);
        assert_eq!(t.spans[4].parent, 4, "absorbed parents are renumbered");
        assert_eq!(t.total("call").1, 36);
        assert_eq!(t.spans[4].session, 8);
    }
}
