//! `msf-obs`: the observability subsystem.
//!
//! Per-thread lock-free event rings plus a span/phase tracing API, designed so
//! that the *disabled* path costs one relaxed atomic load and a branch — cheap
//! enough to leave compiled into every Borůvka step loop and every MST-BC
//! grower permanently.
//!
//! Architecture:
//!
//! - Each thread that records an event lazily registers a fixed-capacity
//!   [`ring`] of POD [`Event`] records. The owning thread writes slots with
//!   plain (relaxed) stores and publishes them with a single release store of
//!   the ring cursor — no CAS, no locks on the hot path.
//! - A single collector ([`drain`]) walks all registered rings at run end and
//!   produces a [`Trace`]. Rings are flight recorders: on overflow the oldest
//!   events are overwritten and counted in [`Trace::dropped`].
//! - Spans are RAII guards ([`SpanGuard`]) emitting paired `Begin`/`End`
//!   events; [`Trace::validate_nesting`] checks the pairing per thread.
//! - Exporters ([`Trace::chrome_json`], [`Trace::summary`]) turn a trace into
//!   a chrome://tracing / Perfetto `traceEvents` JSON file or a compact text
//!   table.
//!
//! Gating: tracing starts disabled. The first call to [`enabled`] (or an
//! explicit [`init_from_env`]) consults the `MSF_TRACE` environment variable
//! (`1`/`true`/`on` enable); [`set_enabled`] overrides it
//! programmatically. Ring capacity is `MSF_TRACE_CAP` events per thread
//! (default 16384), frozen once the first ring is allocated.

// `unsafe` is denied crate-wide; the single exception is the allocation
// counter in [`alloc`], which must implement `GlobalAlloc` (an unsafe trait)
// to wrap the system allocator. That module carries its own scoped allow.
#![deny(unsafe_code)]

pub mod alloc;
mod export;
pub mod metrics;
pub mod profile;
mod ring;

pub use export::{Trace, TraceEvent, TraceThread};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One trace record. 4 machine words, POD; `tsc_ns` is nanoseconds since the
/// process-local trace epoch (the first enable), `kind` packs a [`Phase`] and
/// a [`SpanKind`], and `a`/`b` are kind-specific arguments (see DESIGN §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the trace epoch.
    pub tsc_ns: u64,
    /// `(phase as u32) << 16 | span kind id` — see [`Phase`] and [`SpanKind`].
    pub kind: u32,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

/// What an [`Event`] marks: the start or end of a span, or a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Phase {
    /// Span start. Paired with a later [`Phase::End`] on the same thread.
    Begin = 1,
    /// Span end, matching the innermost open [`Phase::Begin`].
    End = 2,
    /// A point event with no duration.
    Instant = 3,
}

impl Phase {
    fn from_u16(v: u16) -> Option<Phase> {
        match v {
            1 => Some(Phase::Begin),
            2 => Some(Phase::End),
            3 => Some(Phase::Instant),
            _ => None,
        }
    }
}

/// The fixed span taxonomy. Kinds are stable u16 ids so events stay POD; the
/// exported names below are what chrome://tracing displays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum SpanKind {
    /// One whole `minimum_spanning_forest` call. begin: `a` = algorithm
    /// index, `b` = configured threads.
    Run = 1,
    /// One-time setup before the step loop (e.g. Bor-EL edge-list build).
    Setup = 2,
    /// One Borůvka iteration. begin: `a` = iteration index, `b` = live
    /// vertices entering it.
    Iteration = 3,
    /// The find-min step. end: `a` = modeled_max, `b` = wall nanoseconds.
    FindMin = 4,
    /// The connect-components step. end args as for [`SpanKind::FindMin`].
    Connect = 5,
    /// The compact-graph step. end args as for [`SpanKind::FindMin`].
    Compact = 6,
    /// A sequential base-case solve (MST-BC leaves, filter kernels).
    BaseCase = 7,
    /// One MST-BC Prim grower task. begin: `a` = grower rank, `b` = growers
    /// in the round. (Id 8 is retired.)
    Rank = 9,
    /// The edge-filtering stage of Bor-FAL+filter. end: `a` = edges kept,
    /// `b` = edges dropped.
    Filter = 10,
    /// One served request in the `msf serve` daemon. begin: `a` = request
    /// id (the profiler keys per-request sample attribution on it), `b` =
    /// protocol opcode. end: `a` = 1 if the request succeeded, `b` = wall
    /// nanoseconds.
    Serve = 11,
}

impl SpanKind {
    /// Every kind, for iteration in tests and exporters.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Run,
        SpanKind::Setup,
        SpanKind::Iteration,
        SpanKind::FindMin,
        SpanKind::Connect,
        SpanKind::Compact,
        SpanKind::BaseCase,
        SpanKind::Rank,
        SpanKind::Filter,
        SpanKind::Serve,
    ];

    /// The display name used in chrome-trace output and summaries.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Setup => "setup",
            SpanKind::Iteration => "iteration",
            SpanKind::FindMin => "find-min",
            SpanKind::Connect => "connect-components",
            SpanKind::Compact => "compact-graph",
            SpanKind::BaseCase => "base-case",
            SpanKind::Rank => "rank",
            SpanKind::Filter => "filter",
            SpanKind::Serve => "serve",
        }
    }

    /// Inverse of `self as u16`; `None` for ids outside the taxonomy.
    pub fn from_u16(v: u16) -> Option<SpanKind> {
        SpanKind::ALL.iter().copied().find(|k| *k as u16 == v)
    }
}

#[inline]
fn pack(phase: Phase, kind: SpanKind) -> u32 {
    ((phase as u32) << 16) | kind as u32
}

pub(crate) fn unpack(kind: u32) -> (Option<Phase>, u16) {
    (Phase::from_u16((kind >> 16) as u16), kind as u16)
}

// ---- enable gate -------------------------------------------------------

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);

/// Is tracing currently enabled? In the steady state this is one relaxed
/// atomic load and a branch; the first call after process start (or after
/// nobody has configured tracing yet) lazily consults `MSF_TRACE`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Resolve the enable state from the environment (`MSF_TRACE`, with
/// `MSF_TRACE_CAP` for ring capacity) unless [`set_enabled`] already
/// decided it. Returns the resulting state.
#[cold]
pub fn init_from_env() -> bool {
    if STATE.load(Ordering::Relaxed) == STATE_UNKNOWN {
        let cfg = ObsConfig::from_env();
        ring::set_default_capacity(cfg.ring_capacity);
        set_enabled(cfg.enabled);
    }
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Turn tracing on or off for the whole process. Enabling also anchors the
/// trace epoch (timestamp zero) if this is the first enable.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Programmatic configuration for tracing; the struct equivalent of the
/// `MSF_TRACE` / `MSF_TRACE_CAP` environment variables.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Whether span recording is on.
    pub enabled: bool,
    /// Per-thread ring capacity in events. Frozen at first ring allocation;
    /// later changes are ignored.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: ring::DEFAULT_CAPACITY,
        }
    }
}

impl ObsConfig {
    /// Read `MSF_TRACE` and `MSF_TRACE_CAP` from the environment.
    pub fn from_env() -> ObsConfig {
        let enabled = std::env::var("MSF_TRACE")
            .map(|v| matches!(v.trim(), "1" | "true" | "on" | "TRUE" | "ON"))
            .unwrap_or(false);
        let ring_capacity = std::env::var("MSF_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|c| c.clamp(16, 1 << 24))
            .unwrap_or(ring::DEFAULT_CAPACITY);
        ObsConfig {
            enabled,
            ring_capacity,
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---- span API ----------------------------------------------------------

/// RAII guard for an open span. Dropping it emits the matching `End` event
/// (with zero args); [`SpanGuard::end_with`] ends it with explicit args.
/// When both tracing and profiling are disabled the guard is inert and its
/// drop is a dead branch. The guard tracks the two subsystems separately:
/// tracing records Begin/End events into the ring, profiling pushes/pops a
/// frame on the thread's live span stack — either can be on without the
/// other.
#[must_use = "dropping the guard immediately ends the span"]
#[derive(Debug)]
pub struct SpanGuard {
    kind: SpanKind,
    armed: bool,
    profiled: bool,
}

impl SpanGuard {
    /// End the span now, attaching kind-specific arguments to the `End`
    /// event (e.g. modeled cost and wall nanoseconds for step spans).
    pub fn end_with(mut self, a: u64, b: u64) {
        if self.armed {
            self.armed = false;
            ring::record(pack(Phase::End, self.kind), a, b);
        }
        if self.profiled {
            self.profiled = false;
            profile::pop();
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            ring::record(pack(Phase::End, self.kind), 0, 0);
        }
        if self.profiled {
            profile::pop();
        }
    }
}

/// Open a span of the given kind. `a`/`b` are attached to the `Begin` event;
/// `a` is also the frame tag on the profiler's span stack (see
/// [`profile`]). Disabled path: two relaxed loads, two branches, and an
/// inert guard.
#[inline]
pub fn span(kind: SpanKind, a: u64, b: u64) -> SpanGuard {
    let armed = enabled();
    let profiled = profile::enabled();
    if armed {
        ring::record(pack(Phase::Begin, kind), a, b);
    }
    if profiled {
        profile::push(kind, a);
    }
    SpanGuard {
        kind,
        armed,
        profiled,
    }
}

/// Record a point event (no duration).
#[inline]
pub fn instant(kind: SpanKind, a: u64, b: u64) {
    if enabled() {
        ring::record(pack(Phase::Instant, kind), a, b);
    }
}

/// Open a span with 0, 1 or 2 arguments:
/// `span!(SpanKind::Compact, iter)` — non-u64 args are `as u64`-cast.
#[macro_export]
macro_rules! span {
    ($kind:expr) => {
        $crate::span($kind, 0, 0)
    };
    ($kind:expr, $a:expr) => {
        $crate::span($kind, $a as u64, 0)
    };
    ($kind:expr, $a:expr, $b:expr) => {
        $crate::span($kind, $a as u64, $b as u64)
    };
}

/// Drain every registered ring into a [`Trace`] and advance the collector's
/// bookmarks, so a second drain returns only newer events. Meant to run at
/// quiescence (after the traced run finishes); events recorded concurrently
/// with a drain may land in either trace.
pub fn drain() -> Trace {
    ring::drain_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag, rings and epoch are process-global, so every test in
    // this crate that toggles tracing serializes on this lock.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn kind_roundtrip_and_names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_u16(k as u16), Some(k));
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(SpanKind::from_u16(0), None);
        assert_eq!(SpanKind::from_u16(999), None);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for k in SpanKind::ALL {
            for p in [Phase::Begin, Phase::End, Phase::Instant] {
                let (phase, id) = unpack(pack(p, k));
                assert_eq!(phase, Some(p));
                assert_eq!(id, k as u16);
            }
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = locked();
        set_enabled(false);
        let _ = drain();
        {
            let _s = span(SpanKind::Run, 1, 2);
            instant(SpanKind::Iteration, 3, 4);
        }
        let t = drain();
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn spans_pair_up_and_carry_args() {
        let _g = locked();
        set_enabled(true);
        let _ = drain();
        {
            let outer = span(SpanKind::Run, 7, 2);
            {
                let _inner = span!(SpanKind::Iteration, 0u32, 100u32);
            }
            outer.end_with(42, 43);
        }
        set_enabled(false);
        let t = drain();
        assert_eq!(t.events.len(), 4);
        t.validate_nesting().expect("well nested");
        assert_eq!(t.count(SpanKind::Run, Phase::Begin), 1);
        assert_eq!(t.count(SpanKind::Iteration, Phase::End), 1);
        assert_eq!(t.sum_end_args(SpanKind::Run), (42, 43));
        // Events from one thread come back in program order.
        let kinds: Vec<_> = t.events.iter().map(|e| (e.kind, e.phase)).collect();
        assert_eq!(
            kinds,
            vec![
                (SpanKind::Run as u16, Phase::Begin),
                (SpanKind::Iteration as u16, Phase::Begin),
                (SpanKind::Iteration as u16, Phase::End),
                (SpanKind::Run as u16, Phase::End),
            ]
        );
    }

    #[test]
    fn threads_get_distinct_rings() {
        let _g = locked();
        set_enabled(true);
        let _ = drain();
        let _main = span(SpanKind::Run, 0, 0);
        std::thread::spawn(|| {
            let _s = span!(SpanKind::Rank, 1u32, 2u32);
        })
        .join()
        .unwrap();
        drop(_main);
        set_enabled(false);
        let t = drain();
        let tids: std::collections::HashSet<_> = t.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2);
        t.validate_nesting().expect("each thread well nested");
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let _g = locked();
        set_enabled(true);
        let _ = drain();
        let cap = ring::capacity_for_current_thread();
        for i in 0..(cap as u64 + 37) {
            instant(SpanKind::Iteration, i, 0);
        }
        set_enabled(false);
        let t = drain();
        let mine: Vec<_> = t
            .events
            .iter()
            .filter(|e| e.span_kind() == Some(SpanKind::Iteration))
            .collect();
        assert_eq!(mine.len(), cap);
        assert!(t.dropped >= 37);
        // The per-ring attribution sums to the total and names a culprit.
        let per_ring: u64 = t.threads.iter().map(|th| th.dropped).sum();
        assert_eq!(per_ring, t.dropped);
        assert!(t.threads.iter().any(|th| th.dropped >= 37));
        // The text summary surfaces the overflow loudly.
        let summary = t.summary();
        assert!(summary.contains("WARNING: ring overflow"), "{summary}");
        assert!(summary.contains("dropped"), "{summary}");
        // The survivors are the newest `cap` events, in order.
        assert_eq!(mine.first().unwrap().a, 37);
        assert_eq!(mine.last().unwrap().a, cap as u64 + 36);
    }

    #[test]
    fn env_value_parsing() {
        // ObsConfig::from_env is exercised indirectly; the value grammar is
        // what matters and must stay stable.
        for on in ["1", "true", "on", "TRUE", "ON"] {
            assert!(matches!(on.trim(), "1" | "true" | "on" | "TRUE" | "ON"));
        }
        for off in ["0", "false", "off", "", "yes"] {
            assert!(!matches!(off.trim(), "1" | "true" | "on" | "TRUE" | "ON"));
        }
    }
}
