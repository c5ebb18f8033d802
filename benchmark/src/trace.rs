//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each public call it makes into a
//! layer. Spans nest on the calling thread (the parent is the innermost
//! open span), carry the request they belong to, and are written out when
//! the run ends. A span's self time is its duration minus the time its
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `exec.executor`.
    pub name: &'static str,
    /// Qualifier such as the scheduler spec (`""` when none).
    pub label: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (solve, build or served request) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, label: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, label, start_ns, end_ns: u64::MAX, parent, request });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.open(name, label, request);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records an already measured interval (used for intervals another
    /// thread reported, such as a served request's queue wait).
    pub fn record(
        &mut self,
        name: &'static str,
        label: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = self.open.last().copied();
        let span = Span { name, label, start_ns: at(start), end_ns: at(end), parent, request };
        self.spans.push(span);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name` with `label`.
    pub fn durations_us(&self, name: &str, label: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.label == label && s.end_ns != u64::MAX)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals (children of one thread never overlap, but
    /// recorded intervals may, so the union is taken explicitly).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Total and self time per `(name, label)`, in milliseconds.
    pub fn summary(&self) -> BTreeMap<(&'static str, &'static str), (usize, f64, f64)> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<(&'static str, &'static str), (usize, f64, f64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry((s.name, s.label)).or_default();
            e.0 += 1;
            e.1 += s.duration_ns() as f64 / 1e6;
            e.2 += self_ns as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines, with self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.label, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("outer", "", 0, |t| {
            t.span("inner", "", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let selfs = t.self_times_ns();
        let outer = &t.spans()[0];
        let inner = &t.spans()[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(selfs[0], outer.duration_ns() - inner.duration_ns());
        assert_eq!(selfs[1], inner.duration_ns());
    }
}
