//! The benchmark's own spans, recorded around each call it makes into a
//! layer of the program. Spans stay in memory and are written out as
//! chrome-trace JSON when a traced run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval. `parent` indexes the enclosing span in the same
/// list.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or cell name, e.g. `graph.open` or `cell.forest.mst-bc`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root (a cell).
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span list.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// An empty list timing against `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            list: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Spans::end`] and for children.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.list.len() - 1
    }

    /// Close span `id` and return its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let end = self.now_ns();
        let span = &mut self.list[id];
        span.end_ns = end;
        Duration::from_nanos(span.ns())
    }

    /// Time `f` as a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Forget spans from index `from` on (untraced runs keep nothing).
    pub fn truncate(&mut self, from: usize) {
        self.list.truncate(from);
    }

    /// Total duration of the direct children of span `id` named `name`, in
    /// seconds.
    pub fn child_seconds(&self, id: usize, name: &str) -> f64 {
        self.list[id..]
            .iter()
            .filter(|s| s.parent == Some(id) && s.name == name)
            .map(|s| s.ns() as f64 / 1e9)
            .sum()
    }
}

/// Coverage of every root span: the share of its wall that its direct
/// children cover. Children of one parent run one after another, so their
/// durations add up without overlap. Returned as `(root index, share)`.
pub fn coverage(spans: &[Span]) -> Vec<(usize, f64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.ns();
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| {
            let share = if s.ns() == 0 {
                1.0
            } else {
                covered[i] as f64 / s.ns() as f64
            };
            (i, share)
        })
        .collect()
}

/// Self time of root spans: wall not covered by any child, summed over
/// roots, in seconds.
pub fn unattributed_seconds(spans: &[Span]) -> f64 {
    coverage(spans)
        .iter()
        .map(|&(i, share)| spans[i].ns() as f64 * (1.0 - share).max(0.0) / 1e9)
        .sum()
}

/// The minimum share of any root's wall that layer spans cover must reach
/// this for a traced run to pass.
pub const MIN_COVERAGE: f64 = 0.95;

/// Chrome-trace JSON (complete `X` events, microsecond timestamps), for
/// `chrome://tracing` or Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.parent.map_or(-1, |p| p as i64)
        );
    }
    out.push_str("\n]}\n");
    out
}
