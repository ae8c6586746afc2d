//! Host-time spans recorded by the benchmark around its own calls into the
//! program, plus a `gpu-sim` trace sink that turns kernel events into child
//! spans of the `execute` call that launched them.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the part of its interval that its child
//! spans cover, so the self times of one op's spans add up to the op's total.

use gpu_sim::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. `begin`/`end` nest like a stack on one thread.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.now_ns();
        self.push(name, op, now, now)
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in stack order");
        self.spans[id].end_ns = now;
        self.spans[id].dur_ns()
    }

    /// Adds an already-closed span under the innermost open span.
    pub fn child(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) -> usize {
        let parent = self.open.last().copied();
        self.closed(parent, name, op, start_ns, end_ns)
    }

    /// Adds an already-closed span under `parent` (spans of ops that are in
    /// flight together cannot nest as a stack).
    pub fn closed(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.push(name, op, start_ns, end_ns.max(start_ns));
        self.open.pop();
        self.spans[id].parent = parent;
        id
    }

    fn push(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the union of its children's intervals
    /// (clipped to the span), in span order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, k)| s.dur_ns() - covered(s.start_ns, s.end_ns, k))
            .collect()
    }

    /// Total time of the spans sharing each name.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.dur_ns();
        }
        out
    }

    /// Checks that for every root span the self times of its whole tree sum
    /// to its duration — i.e. that children stay inside their parents and
    /// do not overlap each other.
    pub fn check_balance(&self) -> Result<(), String> {
        let own = self.self_ns();
        let mut root_of = vec![0usize; self.spans.len()];
        let mut tree_self: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = match s.parent {
                Some(p) => root_of[p],
                None => i,
            };
            *tree_self.entry(root_of[i]).or_default() += own[i];
        }
        for (root, sum) in tree_self {
            let s = &self.spans[root];
            if sum != s.dur_ns() {
                return Err(format!(
                    "op {} span {}: self times sum to {sum} ns, span lasts {} ns",
                    s.op,
                    s.name,
                    s.dur_ns()
                ));
            }
        }
        Ok(())
    }

    /// The spans as JSON lines (name, op, parent, start/end/self ns).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// One kernel launch as the sink saw it on the host clock.
#[derive(Clone, Debug)]
pub struct KernelSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A `gpu-sim` trace sink that timestamps events on the host clock. The
/// simulator emits `KernelBegin`/`KernelEnd` after it has run the kernel,
/// so a kernel's host time is the gap from the event before its
/// `KernelBegin` (or the last [`KernelSink::mark`]) to its `KernelEnd`.
pub struct KernelSink {
    epoch: Instant,
    last_ns: u64,
    begin_ns: u64,
    kernels: Vec<KernelSpan>,
}

impl KernelSink {
    pub fn new(epoch: Instant) -> Self {
        KernelSink {
            epoch,
            last_ns: 0,
            begin_ns: 0,
            // Reserved up front so recording allocates nothing inside the
            // calls whose allocations are counted.
            kernels: Vec::with_capacity(64),
        }
    }

    /// Sets the boundary the next kernel's host time is measured from.
    pub fn mark(&mut self, now_ns: u64) {
        self.last_ns = now_ns;
    }

    /// Takes the kernel spans recorded since the last call.
    pub fn take(&mut self) -> Vec<KernelSpan> {
        self.kernels.drain(..).collect()
    }
}

impl TraceSink for KernelSink {
    fn event(&mut self, ev: TraceEvent) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        match ev {
            TraceEvent::KernelBegin { .. } => {
                self.begin_ns = self.last_ns;
                return;
            }
            TraceEvent::KernelEnd { name, .. } => self.kernels.push(KernelSpan {
                name,
                start_ns: self.begin_ns,
                end_ns: now,
            }),
            _ => {}
        }
        self.last_ns = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    fn recorder(spans: Vec<Span>) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // op [0, 100): upload [0, 20), execute [20, 90) with kernels
        // [25, 40) and [40, 80), download [90, 100).
        let r = recorder(vec![
            span("op", 0, 100, None),
            span("upload", 0, 20, Some(0)),
            span("execute", 20, 90, Some(0)),
            span("k1", 25, 40, Some(2)),
            span("k2", 40, 80, Some(2)),
            span("download", 90, 100, Some(0)),
        ]);
        assert_eq!(r.self_ns(), vec![0, 20, 15, 15, 40, 10]);
        r.check_balance().unwrap();
        assert_eq!(r.total_ns()["execute"], 70);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let r = recorder(vec![
            span("p", 10, 50, None),
            span("a", 5, 30, Some(0)),
            span("b", 20, 40, Some(0)),
        ]);
        // Children cover [10, 40) of the parent: 30 ns.
        assert_eq!(r.self_ns()[0], 10);
        // Overlapping children double-count their shared part, which the
        // balance check reports.
        assert!(r.check_balance().is_err());
    }

    #[test]
    fn recorder_nests_and_closes_in_order() {
        let mut r = Spans::new(Instant::now());
        let op = r.begin("op", 7);
        let inner = r.begin("inner", 7);
        r.end(inner);
        let now = r.now_ns();
        r.child("kernel", 7, now, now);
        r.end(op);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[2].parent, Some(0));
        assert!(r.self_ns().iter().all(|&s| s <= r.spans()[0].dur_ns()));
        r.check_balance().unwrap();
        assert_eq!(r.to_jsonl().lines().count(), 3);
    }
}
