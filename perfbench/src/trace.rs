//! In-memory spans around calls into the program's layers.
//!
//! A span records its name, start, end, parent span and request id. The
//! benchmark opens spans from its own code around each public layer
//! call; nothing inside the program is instrumented. Spans stay in
//! memory and are written out once, when the run ends. A layer's self
//! time is its spans' duration minus the part covered by child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `word2vec.train`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Request (or delta) id the span belongs to; 0 when none.
    pub request: u64,
}

/// A span collector. Disabled tracers record nothing and cost one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates a span id for a span that will be recorded later (so
    /// children can name it as their parent before it closes).
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span under an id from [`open`](Tracer::open).
    pub fn close(&self, id: u64, parent: u64, name: &'static str, start: u64, request: u64) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            start,
            end,
            request,
        });
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id for its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.open();
        let start = self.now();
        let out = f(id);
        self.close(id, parent, name, start, request);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as tab-separated lines
    /// (`id parent name start_ns end_ns request`).
    pub fn write_tsv<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns\trequest")?;
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start, s.end, s.request
            )?;
        }
        Ok(())
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of one span: its duration minus what its direct children
/// cover.
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let child: Vec<(u64, u64)> = children.iter().map(|c| (c.start, c.end)).collect();
    (span.end - span.start) - covered(child, span.start, span.end)
}

/// Per-name totals over all spans: `(count, total ns, self ns)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut kids: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let children = kids.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += self_time(s, children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, "fit", 0, 100);
        let a = span(2, 1, "a", 10, 40);
        let b = span(3, 1, "b", 30, 60); // overlaps a by 10
        let c = span(4, 1, "c", 90, 120); // runs past the parent
        assert_eq!(self_time(&root, &[&a, &b, &c]), 100 - 50 - 10);
        assert_eq!(self_time(&a, &[]), 30);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span(1, 0, "fit", 0, 100),
            span(2, 1, "w2v", 10, 90),
            span(3, 0, "fit", 200, 250),
        ];
        let t = totals(&spans);
        assert_eq!(t["fit"], (2, 150, 20 + 50));
        assert_eq!(t["w2v"], (1, 80, 80));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 0, |id| id + 5), 5);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", 0, 7, |id| t.span("inner", id, 7, |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, inner);
        assert_eq!(spans[1].request, 7);
    }
}
