//! In-memory spans recorded by the benchmark around each call into a layer.
//!
//! The program under test carries no tracing of its own: a span covers one
//! call from the benchmark into a layer's public function. Each thread
//! records into its own [`SpanLog`]; logs are merged and written out when
//! the run ends. A disabled log records nothing and costs one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run (thread number in the high bits).
    pub id: u64,
    /// The enclosing span, or 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to; spans of one request share it.
    pub op: u64,
    /// Layer call, e.g. `ali.send_receive`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder; `SpanLog::off()` records nothing.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    thread: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder for thread number `thread`, timing from `epoch`.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Self {
        SpanLog {
            on: enabled,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id (0 when disabled).
    pub fn open(&mut self, name: &'static str, parent: u64, op: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = (self.thread << 40) | (self.spans.len() as u64 + 1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Closes span `id`; a no-op for 0 or an unknown id.
    pub fn close(&mut self, id: u64) {
        if id == 0 || id >> 40 != self.thread {
            return;
        }
        let end = self.now_ns();
        let index = (id & ((1 << 40) - 1)) as usize - 1;
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Hands the recorded spans over, leaving the log empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Count, total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// A span's self time is its duration minus the union of its children's
/// intervals (clipped to the span).
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Renders spans as JSON lines, one object per span.
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "call", 10, 50),
            span(3, 1, "call", 40, 70),
            span(4, 1, "decode", 90, 120),
        ];
        let t = totals_by_name(&spans);
        // Children cover [10,70) and [90,100): 70 ns of the op's 100.
        assert_eq!(t["op"].self_ns, 30);
        assert_eq!(t["call"].count, 2);
        assert_eq!(t["call"].total_ns, 70);
        assert_eq!(t["decode"].self_ns, 30);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::off();
        let id = log.open("x", 0, 1);
        log.close(id);
        assert_eq!(id, 0);
        assert!(log.take().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut log = SpanLog::new(true, Instant::now(), 3);
        let root = log.open("op", 0, 7);
        log.within("inner", root, 7, || ());
        log.close(root);
        let spans = log.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.op == 7));
        assert!(to_json_lines(&spans).lines().count() == 2);
    }
}
