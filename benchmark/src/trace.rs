//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! the library's public functions; nothing inside the library is
//! instrumented. One span is `{id, parent, name, start_ns, end_ns}`;
//! the id is the span's index. Spans live in a preallocated `Vec` and
//! are written out once, when the workload's process ends.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans preallocated by a recording tracer. The largest traced pass
/// (`fig5_paper`: nine simulations of 20 000 `place` calls) records
/// about 190 000; beyond the capacity the `Vec` grows, which only costs
/// one copy inside the traced pass.
const SPAN_CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Records nested spans on one thread. A tracer made with [`Tracer::off`]
/// records nothing and [`Tracer::span`] is then a plain call, so the
/// untraced pass runs the same workload code.
pub struct Tracer {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            inner: RefCell::default(),
        }
    }

    pub fn recording() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::with_capacity(SPAN_CAPACITY),
                open: Vec::with_capacity(16),
            }),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span. Pair with [`Tracer::exit`].
    pub fn enter(&self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
        let id = inner.spans.len() as u32;
        inner.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        inner.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let id = inner.open.pop().expect("exit without a matching enter");
        inner.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans, in start order. Every span must be closed.
    pub fn into_spans(self) -> Vec<Span> {
        let inner = self.inner.into_inner();
        assert!(inner.open.is_empty(), "span left open");
        inner.spans
    }
}

/// Seconds one recorded span costs the code around it: two clock reads
/// and a push, measured over spans that enclose nothing.
pub fn span_cost_s() -> f64 {
    const SPANS: usize = 100_000;
    let t = Tracer::recording();
    let t0 = Instant::now();
    for _ in 0..SPANS {
        t.span("calibrate", || std::hint::black_box(()));
    }
    t0.elapsed().as_secs_f64() / SPANS as f64
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, each clipped to the parent. Children are
/// visited in start order (which is recording order), so adjacent and
/// overlapping children are both covered exactly once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut covered_until: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let lo = s.start_ns.max(covered_until[p]);
        let hi = s.end_ns.min(spans[p].end_ns);
        if hi > lo {
            covered[p] += hi - lo;
            covered_until[p] = hi;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Index of the root span above each span.
pub fn roots(spans: &[Span]) -> Vec<u32> {
    let mut root = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // A parent is always recorded before its children.
        root[i] = if s.parent == NO_PARENT {
            i as u32
        } else {
            root[s.parent as usize]
        };
    }
    root
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Whether each span is called `name` or lies beneath a span that is.
pub fn under(spans: &[Span], name: &str) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        inside[i] = s.name == name || (s.parent != NO_PARENT && inside[s.parent as usize]);
    }
    inside
}

/// Calls, total and self time by span name, over the spans `keep`
/// accepts by index.
pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(usize) -> bool,
) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if !keep(i) {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += self_ns;
    }
    out
}

/// Largest relative gap, over all root spans, between a root's duration
/// and the sum of the self times beneath it. Zero when every child lies
/// inside its parent; the traced pass asserts it stays under 2 %.
pub fn accounting_gap(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let root = roots(spans);
    let mut sum: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, self_ns) in selfs.iter().enumerate() {
        *sum.entry(root[i]).or_default() += self_ns;
    }
    sum.iter()
        .map(|(&r, &total)| {
            let dur = spans[r as usize].dur_ns().max(1) as f64;
            (total as f64 - dur).abs() / dur
        })
        .fold(0.0, f64::max)
}

/// Durations, in nanoseconds, of the spans called `name` that `keep`
/// accepts by index.
pub fn durations(spans: &[Span], name: &str, keep: impl Fn(usize) -> bool) -> Vec<f64> {
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && keep(*i))
        .map(|(_, s)| s.dur_ns() as f64)
        .collect()
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            crate::json::quote(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 > a 10..60 > b 20..30
        let spans = [
            span(NO_PARENT, "root", 0, 100),
            span(0, "a", 10, 60),
            span(1, "b", 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        assert_eq!(accounting_gap(&spans), 0.0);
    }

    #[test]
    fn self_time_handles_adjacent_children() {
        // Two children that share an edge leave exactly the gaps.
        let spans = [
            span(NO_PARENT, "root", 0, 100),
            span(0, "a", 10, 40),
            span(0, "a", 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30]);
        let totals = totals_by_name(&spans, |_| true);
        assert_eq!(
            totals["a"],
            NameTotal {
                calls: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
        assert_eq!(totals["root"].self_ns, 40);
    }

    #[test]
    fn overlapping_or_escaping_children_are_clipped() {
        // The second child overlaps the first and runs past the parent.
        let spans = [
            span(NO_PARENT, "root", 0, 100),
            span(0, "a", 10, 50),
            span(0, "b", 30, 120),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn under_marks_a_subtree_and_totals_can_leave_it_out() {
        let spans = [
            span(NO_PARENT, "sim", 0, 100),
            span(0, "run", 0, 40),
            span(1, "place", 10, 20),
            span(0, "probe", 40, 100),
            span(3, "place", 50, 90),
        ];
        let probe = under(&spans, "probe");
        assert_eq!(probe, vec![false, false, false, true, true]);
        assert_eq!(totals_by_name(&spans, |i| !probe[i])["place"].total_ns, 10);
        assert_eq!(totals_by_name(&spans, |i| probe[i])["place"].total_ns, 40);
        assert_eq!(durations(&spans, "place", |i| !probe[i]), vec![10.0]);
    }

    #[test]
    fn roots_follow_parents_and_gap_is_per_root() {
        let spans = [
            span(NO_PARENT, "r1", 0, 10),
            span(0, "x", 0, 10),
            span(NO_PARENT, "r2", 10, 30),
            span(2, "x", 12, 20),
        ];
        assert_eq!(roots(&spans), vec![0, 0, 2, 2]);
        assert_eq!(accounting_gap(&spans), 0.0);
    }

    #[test]
    fn recording_tracer_nests_and_off_tracer_records_nothing() {
        let t = Tracer::recording();
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[0].name), (NO_PARENT, "outer"));
        assert_eq!((spans[1].parent, spans[1].name), (0, "inner"));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::off();
        assert_eq!(off.span("outer", || 3), 3);
        assert!(off.into_spans().is_empty());
    }
}
