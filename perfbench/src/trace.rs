//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! the program's public functions; nothing is recorded inside the
//! program. Each traced operation is one root span (`op`) whose children
//! are the layer spans. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of one traced operation.
pub const OP: &str = "op";

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The traced operation (root span) this span belongs to.
    pub op: usize,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on a stack; single-threaded by design (the traced run
/// replays its inputs sequentially).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`exit`](Self::exit). Opening [`OP`]
    /// starts a new traced operation.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        if self.stack.is_empty() {
            self.op = id;
        }
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let now = self.now();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per span: (duration, part of it covered by its children).
fn child_coverage(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.dur(), covered(s.start_ns, s.end_ns, kids)))
        .collect()
}

/// Summed self time (ns) per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, (dur, cov)) in spans.iter().zip(child_coverage(spans)) {
        *out.entry(s.name).or_insert(0) += dur - cov;
    }
    out
}

/// Share of each root span's duration covered by its child (layer)
/// spans, in recording order.
pub fn op_coverage(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .zip(child_coverage(spans))
        .filter(|(s, _)| s.parent.is_none())
        .map(|(_, (dur, cov))| {
            if dur == 0 {
                1.0
            } else {
                cov as f64 / dur as f64
            }
        })
        .collect()
}

/// Summed duration (ns) of the root spans.
pub fn op_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum()
}

/// The span dump: one JSON object per line.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100] ⊃ a [10,40] ⊃ b [20,30]; c [50,90]
        let spans = [
            span(0, None, OP, 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "b", 20, 30),
            span(3, Some(0), "c", 50, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t[OP], 30);
        assert_eq!(t["a"], 20);
        assert_eq!(t["b"], 10);
        assert_eq!(t["c"], 40);
        assert_eq!(op_coverage(&spans), vec![0.7]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // children [10,50] and [30,70] overlap on [30,50]: union 60
        let spans = [
            span(0, None, OP, 0, 100),
            span(1, Some(0), "a", 10, 50),
            span(2, Some(0), "a", 30, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t[OP], 40);
        assert_eq!(t["a"], 80);
        assert!((op_coverage(&spans)[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(0, None, OP, 100, 200),
            span(1, Some(0), "a", 50, 120),
            span(2, Some(0), "b", 180, 260),
            span(3, Some(0), "c", 300, 400),
        ];
        assert_eq!(self_times(&spans)[OP], 60);
        assert!((op_coverage(&spans)[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn adjacent_and_contained_children() {
        let spans = [
            span(0, None, OP, 0, 100),
            span(1, Some(0), "a", 0, 50),
            span(2, Some(0), "b", 50, 100),
            span(3, Some(0), "c", 20, 30),
        ];
        assert_eq!(self_times(&spans)[OP], 0);
        assert_eq!(op_coverage(&spans), vec![1.0]);
    }

    #[test]
    fn tracer_links_parents_and_operations() {
        let mut t = Tracer::default();
        for _ in 0..2 {
            let op = t.enter(OP);
            t.time("leaf", || std::hint::black_box(1 + 1));
            let mid = t.enter("mid");
            t.time("leaf", || ());
            t.exit(mid);
            t.exit(op);
        }
        let s = t.spans();
        assert_eq!(s.len(), 8);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, None);
        assert_eq!(s[7].op, 4);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(op_coverage(s).len(), 2);
        assert_eq!(dump(s).lines().count(), 8);
    }
}
