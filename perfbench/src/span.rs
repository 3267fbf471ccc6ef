//! Benchmark-side spans around the calls this benchmark makes into each
//! public layer.
//!
//! A span is `(id, parent, call, name, start, end)` in host nanoseconds
//! since the tracer's epoch; the spans of one client call share its
//! `call` id. Spans are buffered per owner (a client, the main thread) and
//! handed to the shared [`Tracer`] when the owner finishes, so recording
//! takes no lock on the hot path. Nothing here reaches into the program:
//! the spans bracket public calls from the outside.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Root span: everything from `Simulation::new` to the start of `run`.
pub const ROOT_SETUP: u64 = 1;
/// Root span: `Simulation::run`.
pub const ROOT_RUN: u64 = 2;
/// Root span: the post-run wire codec timings.
pub const ROOT_WIRE: u64 = 3;
/// First id handed out for ordinary spans.
const FIRST_ID: u64 = 16;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, or 0 for a root.
    pub parent: u64,
    /// The client call this span belongs to, or 0.
    pub call: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Shared sink and clock for one traced repetition.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(FIRST_ID),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Host nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs from `Recorder::drop`, so it must not panic: every update is
    /// one append, which leaves the list valid even after a panic.
    fn submit(&self, buf: &mut Vec<Span>) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(buf);
    }

    /// Takes every submitted span, sorted by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span: its id (for children) and start time.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

/// A per-owner span buffer; inert (one branch per call) when tracing is
/// off.
#[derive(Debug, Default)]
pub struct Recorder {
    tracer: Option<Arc<Tracer>>,
    buf: Vec<Span>,
}

impl Recorder {
    pub fn new(tracer: Option<&Arc<Tracer>>) -> Recorder {
        Recorder {
            tracer: tracer.cloned(),
            buf: Vec::new(),
        }
    }

    /// Opens a span; `None` when tracing is off.
    #[inline]
    pub fn open(&self) -> Option<Open> {
        let t = self.tracer.as_ref()?;
        Some(Open {
            id: t.next_id(),
            start_ns: t.now(),
        })
    }

    /// Opens a span with a fixed, well-known id (the roots).
    pub fn open_root(&self, id: u64) -> Option<Open> {
        let t = self.tracer.as_ref()?;
        Some(Open {
            id,
            start_ns: t.now(),
        })
    }

    /// Closes `open` (a no-op for `None`).
    #[inline]
    pub fn close(&mut self, open: Option<Open>, name: &'static str, parent: u64, call: u64) {
        let (Some(o), Some(t)) = (open, &self.tracer) else {
            return;
        };
        self.buf.push(Span {
            id: o.id,
            parent,
            call,
            name,
            start_ns: o.start_ns,
            end_ns: t.now(),
        });
    }

    /// Hands the buffered spans to the tracer.
    pub fn flush(&mut self) {
        if let Some(t) = &self.tracer {
            t.submit(&mut self.buf);
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Span time not covered by any child span.
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Totals and self time per span name. A span's self time is its
/// duration minus the union of its children's intervals (clipped to the
/// span), so overlapping children — two scheduler threads polling at
/// once — are not counted twice.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| union_within(kids, s.start_ns, s.end_ns));
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.duration_ns();
        a.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"call\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.call, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            call: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            // Overlapping children cover [10, 40) and [60, 70): 40ns.
            span(2, 1, "child", 10, 30),
            span(3, 1, "child", 20, 40),
            span(4, 1, "child", 60, 70),
            // A grandchild only reduces its own parent's self time.
            span(5, 4, "leaf", 60, 65),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["root"].self_ns, 60);
        assert_eq!(agg["root"].total_ns, 100);
        assert_eq!(agg["child"].count, 3);
        assert_eq!(agg["child"].total_ns, 50);
        assert_eq!(agg["child"].self_ns, 45);
        assert_eq!(agg["leaf"].self_ns, 5);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(1, 0, "p", 10, 20), span(2, 1, "c", 0, 15)];
        assert_eq!(aggregate(&spans)["p"].self_ns, 5);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut r = Recorder::new(None);
        let o = r.open();
        assert!(o.is_none());
        r.close(o, "x", 0, 0);
        assert!(r.buf.is_empty());
    }

    #[test]
    fn recorder_on_links_children_to_parents() {
        let t = Tracer::new();
        let mut r = Recorder::new(Some(&t));
        let outer = r.open();
        let inner = r.open();
        r.close(inner, "inner", outer.unwrap().id, 7);
        r.close(outer, "outer", 0, 7);
        r.flush();
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.call, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
