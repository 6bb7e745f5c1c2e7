//! Drained traces and their exporters: structural validation, chrome-trace
//! JSON, and a compact text summary.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{Phase, SpanKind};

/// One registered recording thread.
#[derive(Debug, Clone)]
pub struct TraceThread {
    /// Stable per-process trace thread id (registration order).
    pub tid: u32,
    /// The thread's OS name at registration time.
    pub name: String,
    /// Events overwritten in this thread's ring before the collector
    /// reached them, for this drain. `Trace::dropped` is the sum.
    pub dropped: u64,
}

/// One decoded event from a drained ring.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Recording thread's trace id.
    pub tid: u32,
    /// Per-thread sequence number (program order on that thread).
    pub seq: u64,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Begin/End/Instant.
    pub phase: Phase,
    /// Raw span-kind id; decode with [`TraceEvent::span_kind`].
    pub kind: u16,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

impl TraceEvent {
    /// The event's kind, if it is in the known taxonomy.
    pub fn span_kind(&self) -> Option<SpanKind> {
        SpanKind::from_u16(self.kind)
    }

    fn kind_name(&self) -> String {
        match self.span_kind() {
            Some(k) => k.name().to_owned(),
            None => format!("kind-{}", self.kind),
        }
    }
}

/// The result of one [`crate::drain`]: all events published since the
/// previous drain, per-thread metadata, and the overwrite count.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every thread that has registered a ring (even if idle this drain).
    pub threads: Vec<TraceThread>,
    /// Drained events; within one `tid` they are in program order.
    pub events: Vec<TraceEvent>,
    /// Events overwritten in some ring before the collector reached them.
    pub dropped: u64,
}

impl Trace {
    /// True when no events were drained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of `kind` in `phase`.
    pub fn count(&self, kind: SpanKind, phase: Phase) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == kind as u16 && e.phase == phase)
            .count()
    }

    /// Component-wise sums of the `(a, b)` args over all `End` events of
    /// `kind`. Step spans carry `(modeled_max, wall_ns)` there, so this is
    /// the bridge for exact trace↔stats consistency checks.
    pub fn sum_end_args(&self, kind: SpanKind) -> (u64, u64) {
        self.events
            .iter()
            .filter(|e| e.kind == kind as u16 && e.phase == Phase::End)
            .fold((0u64, 0u64), |(a, b), e| {
                (a.wrapping_add(e.a), b.wrapping_add(e.b))
            })
    }

    /// Check that on every thread Begin/End events pair up like brackets:
    /// each `End` matches the innermost open `Begin` of the same kind, and
    /// no span is left open. Returns a description of the first violation.
    pub fn validate_nesting(&self) -> Result<(), String> {
        let mut stacks: HashMap<u32, Vec<u16>> = HashMap::new();
        for e in self.per_thread_order() {
            let stack = stacks.entry(e.tid).or_default();
            match e.phase {
                Phase::Begin => stack.push(e.kind),
                Phase::End => match stack.pop() {
                    Some(open) if open == e.kind => {}
                    Some(open) => {
                        return Err(format!(
                            "tid {}: end of {:?} closes open {:?} (seq {})",
                            e.tid,
                            e.kind_name(),
                            SpanKind::from_u16(open)
                                .map(|k| k.name().to_owned())
                                .unwrap_or_else(|| format!("kind-{open}")),
                            e.seq
                        ));
                    }
                    None => {
                        return Err(format!(
                            "tid {}: end of {} with no open span (seq {})",
                            e.tid,
                            e.kind_name(),
                            e.seq
                        ));
                    }
                },
                Phase::Instant => {}
            }
        }
        for (tid, stack) in stacks {
            if let Some(open) = stack.last() {
                return Err(format!(
                    "tid {tid}: span {} still open at end of trace",
                    SpanKind::from_u16(*open)
                        .map(|k| k.name().to_owned())
                        .unwrap_or_else(|| format!("kind-{open}"))
                ));
            }
        }
        Ok(())
    }

    /// Per-kind list of individual span wall durations (nanoseconds, in
    /// completion order) from matched Begin/End pairs — the raw material
    /// for the percentile columns in [`Trace::summary`].
    pub fn span_duration_lists(&self) -> HashMap<u16, Vec<u64>> {
        let mut stacks: HashMap<u32, Vec<(u16, u64)>> = HashMap::new();
        let mut out: HashMap<u16, Vec<u64>> = HashMap::new();
        for e in self.per_thread_order() {
            let stack = stacks.entry(e.tid).or_default();
            match e.phase {
                Phase::Begin => stack.push((e.kind, e.ts_ns)),
                Phase::End => {
                    if let Some((kind, began)) = stack.pop() {
                        if kind == e.kind {
                            out.entry(kind)
                                .or_default()
                                .push(e.ts_ns.saturating_sub(began));
                        }
                    }
                }
                Phase::Instant => {}
            }
        }
        out
    }

    fn per_thread_order(&self) -> Vec<&TraceEvent> {
        let mut evs: Vec<&TraceEvent> = self.events.iter().collect();
        evs.sort_by_key(|e| (e.tid, e.seq));
        evs
    }

    /// Serialize to chrome://tracing / Perfetto `traceEvents` JSON.
    /// Timestamps are microseconds with nanosecond precision.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for t in &self.threads {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                t.tid,
                json_string(&t.name)
            );
        }
        for e in self.per_thread_order() {
            if !first {
                out.push(',');
            }
            first = false;
            let ph = match e.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let _ = write!(
                out,
                "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\
                 \"name\":{}",
                ph,
                e.tid,
                e.ts_ns / 1000,
                e.ts_ns % 1000,
                json_string(&e.kind_name())
            );
            if e.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(out, ",\"args\":{{\"a\":{},\"b\":{}}}}}", e.a, e.b);
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped\":{}}}}}",
            self.dropped
        );
        out
    }

    /// A compact text table: per-kind span counts, total wall time, and
    /// p50/p90/p99 duration percentiles, plus thread and drop bookkeeping.
    pub fn summary(&self) -> String {
        // Nearest-rank percentile over a sorted duration list.
        fn pct(sorted: &[u64], q: f64) -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        }
        let mut rows: Vec<(u16, Vec<u64>)> = self
            .span_duration_lists()
            .into_iter()
            .map(|(kind, mut list)| {
                list.sort_unstable();
                (kind, list)
            })
            .collect();
        rows.sort_by_key(|(_, list)| std::cmp::Reverse(list.iter().sum::<u64>()));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events on {} thread(s), {} dropped",
            self.events.len(),
            self.threads.len(),
            self.dropped
        );
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: ring overflow — {} event(s) overwritten before collection; \
                 durations and counts below are lower bounds (raise MSF_TRACE_CAP)",
                self.dropped
            );
            for t in &self.threads {
                if t.dropped > 0 {
                    let _ = writeln!(out, "  tid {} ({}): {} dropped", t.tid, t.name, t.dropped);
                }
            }
        }
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>14} {:>12} {:>12} {:>12}",
            "span", "count", "total", "p50", "p90", "p99"
        );
        for (kind, list) in rows {
            let name = SpanKind::from_u16(kind)
                .map(|k| k.name().to_owned())
                .unwrap_or_else(|| format!("kind-{kind}"));
            let total_ns: u64 = list.iter().sum();
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>12.3}ms {:>10.3}ms {:>10.3}ms {:>10.3}ms",
                name,
                list.len(),
                total_ns as f64 / 1e6,
                pct(&list, 0.50) as f64 / 1e6,
                pct(&list, 0.90) as f64 / 1e6,
                pct(&list, 0.99) as f64 / 1e6
            );
        }
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u32, seq: u64, ts: u64, phase: Phase, kind: SpanKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            tid,
            seq,
            ts_ns: ts,
            phase,
            kind: kind as u16,
            a,
            b,
        }
    }

    fn trace(events: Vec<TraceEvent>) -> Trace {
        Trace {
            threads: vec![
                TraceThread {
                    tid: 0,
                    name: "main".into(),
                    dropped: 0,
                },
                TraceThread {
                    tid: 1,
                    name: "msf-pool-0".into(),
                    dropped: 0,
                },
            ],
            events,
            dropped: 0,
        }
    }

    #[test]
    fn nesting_accepts_bracketed_spans_across_threads() {
        let t = trace(vec![
            ev(0, 0, 10, Phase::Begin, SpanKind::Run, 0, 0),
            ev(1, 0, 11, Phase::Begin, SpanKind::Rank, 1, 2),
            ev(0, 1, 12, Phase::Begin, SpanKind::FindMin, 0, 0),
            ev(0, 2, 20, Phase::End, SpanKind::FindMin, 5, 6),
            ev(1, 1, 21, Phase::End, SpanKind::Rank, 0, 0),
            ev(0, 3, 30, Phase::End, SpanKind::Run, 0, 0),
        ]);
        t.validate_nesting().unwrap();
        assert_eq!(t.sum_end_args(SpanKind::FindMin), (5, 6));
        let d = t.span_duration_lists();
        assert_eq!(d[&(SpanKind::FindMin as u16)], vec![8]);
        assert_eq!(d[&(SpanKind::Run as u16)], vec![20]);
    }

    #[test]
    fn nesting_rejects_crossed_and_unclosed_spans() {
        let crossed = trace(vec![
            ev(0, 0, 1, Phase::Begin, SpanKind::Run, 0, 0),
            ev(0, 1, 2, Phase::Begin, SpanKind::FindMin, 0, 0),
            ev(0, 2, 3, Phase::End, SpanKind::Run, 0, 0),
            ev(0, 3, 4, Phase::End, SpanKind::FindMin, 0, 0),
        ]);
        assert!(crossed.validate_nesting().is_err());

        let unclosed = trace(vec![ev(0, 0, 1, Phase::Begin, SpanKind::Run, 0, 0)]);
        assert!(unclosed.validate_nesting().is_err());

        let stray_end = trace(vec![ev(0, 0, 1, Phase::End, SpanKind::Compact, 0, 0)]);
        assert!(stray_end.validate_nesting().is_err());
    }

    #[test]
    fn chrome_json_is_valid_and_carries_names() {
        let t = trace(vec![
            ev(0, 0, 1500, Phase::Begin, SpanKind::Compact, 3, 0),
            ev(0, 1, 2500, Phase::End, SpanKind::Compact, 7, 9),
            ev(1, 0, 1700, Phase::Instant, SpanKind::Iteration, 1, 1),
        ]);
        let json = t.chrome_json();
        assert!(json.contains("\"compact-graph\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"msf-pool-0\""));
    }

    #[test]
    fn summary_lists_kinds_with_counts() {
        let t = trace(vec![
            ev(0, 0, 0, Phase::Begin, SpanKind::FindMin, 0, 0),
            ev(0, 1, 1000, Phase::End, SpanKind::FindMin, 0, 0),
        ]);
        let s = t.summary();
        assert!(s.contains("find-min"));
        assert!(s.contains("2 events"));
    }

    #[test]
    fn summary_reports_duration_percentiles() {
        // Ten sequential find-min spans of 1ms..10ms: nearest-rank
        // percentiles are p50 = 5ms, p90 = 9ms, p99 = 10ms.
        let mut evs = Vec::new();
        let mut ts = 0u64;
        for ms in 1..=10u64 {
            evs.push(ev(
                0,
                evs.len() as u64,
                ts,
                Phase::Begin,
                SpanKind::FindMin,
                0,
                0,
            ));
            ts += ms * 1_000_000;
            evs.push(ev(
                0,
                evs.len() as u64,
                ts,
                Phase::End,
                SpanKind::FindMin,
                0,
                0,
            ));
        }
        let t = trace(evs);
        let lists = t.span_duration_lists();
        assert_eq!(lists[&(SpanKind::FindMin as u16)].len(), 10);
        let s = t.summary();
        let row = s.lines().find(|l| l.contains("find-min")).expect("row");
        assert!(row.contains("5.000ms"), "p50 in {row:?}");
        assert!(row.contains("9.000ms"), "p90 in {row:?}");
        assert!(row.contains("10.000ms"), "p99 in {row:?}");
    }
}
