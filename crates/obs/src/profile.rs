//! A continuous sampling profiler that samples the **live span stack**
//! instead of native backtraces.
//!
//! Every thread that opens spans maintains a fixed-depth current-span-stack
//! ([`SpanStack`]): [`crate::span`] pushes one packed frame, the guard's end
//! pops it. A dedicated sampler thread snapshots every registered stack at a
//! configurable rate and folds the samples into a weighted stack trie with
//! one shard per sampled thread. Because the frames *are* span-kind ids, a
//! sample is symbolized by construction — no frame-pointer walking, no
//! symbol tables, no `unsafe`.
//!
//! The design contract mirrors [`crate::metrics`]:
//!
//! - **Disabled path**: one relaxed atomic load and a branch per span
//!   (`MSF_PROFILE=hz` / [`set_enabled`], the same tri-state gate).
//! - **Enabled push/pop**: a seqlock-lite write on the owner's own stack —
//!   a handful of relaxed stores bracketed by two sequence-number stores,
//!   no lock, no CAS, no allocation (after the first push registers the
//!   stack). The sampler is the only reader; a read that races a push/pop
//!   observes an odd or changed sequence number and drops that sample
//!   (counted in `profile.dropped`) instead of recording a torn stack.
//! - **Merge-off-path**: the fold state lives behind a mutex touched only
//!   by the sampler tick and by start/stop/fetch — never by the threads
//!   being profiled.
//!
//! Frames pack the span kind (high 16 bits) with the span's first argument
//! (low 48 bits). The tag is dropped when folding into the trie — folded
//! frames are span-kind names — except for [`crate::SpanKind::Serve`]
//! frames, whose tag is the daemon's request id: samples landing under a
//! serve span are additionally retained per request id (bounded), so the
//! daemon can dump the sampled stacks of one slow request ([`take_request`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::LazyCounter;
use crate::SpanKind;

/// Maximum tracked span depth per thread. Deeper spans still balance their
/// push/pop (depth keeps counting) but are not stored or sampled; nothing
/// in the portfolio nests anywhere near this deep.
pub const MAX_DEPTH: usize = 32;

static SAMPLES: LazyCounter = LazyCounter::new("profile.samples");
static DROPPED: LazyCounter = LazyCounter::new("profile.dropped");
static WAKEUPS: LazyCounter = LazyCounter::new("profile.wakeups");

// ---- enable gate (same tri-state idiom as tracing and metrics) ---------

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);

/// Is span-stack maintenance enabled? Steady state: one relaxed load and a
/// branch. The first call lazily consults `MSF_PROFILE` (a sample rate in
/// Hz; `0`, `off`, or unset leave it off) and, when set, also starts the
/// sampler thread.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Resolve the enable state from `MSF_PROFILE` unless [`set_enabled`] or
/// [`start`] already decided it. A positive rate starts the sampler.
#[cold]
pub fn init_from_env() -> bool {
    if STATE.load(Ordering::Relaxed) == STATE_UNKNOWN {
        let hz = std::env::var("MSF_PROFILE")
            .ok()
            .and_then(|v| match v.trim() {
                "" | "0" | "off" | "false" => None,
                t => t.parse::<u64>().ok(),
            })
            .unwrap_or(0);
        if hz > 0 {
            let _ = start(hz);
        } else {
            set_enabled(false);
        }
    }
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Turn span-stack maintenance on or off. [`start`]/[`stop`] call this;
/// toggling it alone does not start or stop the sampler thread.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ---- per-thread span stacks --------------------------------------------

/// One thread's current-span-stack: a seqlock-lite fixed array of packed
/// frames. The owning thread is the only writer; the sampler is the only
/// reader. All cells are plain atomics, so a racing read is at worst stale
/// or torn (and the sequence check discards torn reads) — never UB.
#[repr(align(128))]
struct SpanStack {
    tid: u32,
    name: String,
    /// Odd while the owner is mutating; bumped twice per push/pop.
    seq: AtomicU64,
    /// Current depth; may exceed [`MAX_DEPTH`] (excess frames unstored).
    depth: AtomicU64,
    /// `frames[0..depth]`: `(kind as u64) << 48 | (tag & 0xffff_ffff_ffff)`.
    frames: [AtomicU64; MAX_DEPTH],
}

const TAG_BITS: u64 = 48;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;

#[inline]
fn pack_frame(kind: SpanKind, tag: u64) -> u64 {
    ((kind as u64) << TAG_BITS) | (tag & TAG_MASK)
}

#[inline]
fn frame_kind(frame: u64) -> u16 {
    (frame >> TAG_BITS) as u16
}

#[inline]
fn frame_tag(frame: u64) -> u64 {
    frame & TAG_MASK
}

impl SpanStack {
    fn new(tid: u32, name: String) -> SpanStack {
        SpanStack {
            tid,
            name,
            seq: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            frames: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Owner-only: push one frame. The crossbeam seqlock write protocol:
    /// odd sequence (relaxed) + release fence before the data stores, then
    /// an even release store publishing them.
    #[inline]
    fn push(&self, frame: u64) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        if (d as usize) < MAX_DEPTH {
            self.frames[d as usize].store(frame, Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Owner-only: pop one frame.
    #[inline]
    fn pop(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Sampler-only: snapshot the stack into `out`. Returns `None` when the
    /// read raced a mutation (odd or changed sequence number).
    fn sample(&self, out: &mut Vec<u64>) -> Option<()> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None;
        }
        let depth = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
        out.clear();
        for f in &self.frames[..depth] {
            out.push(f.load(Ordering::Relaxed));
        }
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) != s1 {
            return None;
        }
        Some(())
    }
}

fn stacks() -> &'static Mutex<Vec<Arc<SpanStack>>> {
    static STACKS: OnceLock<Mutex<Vec<Arc<SpanStack>>>> = OnceLock::new();
    STACKS.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<SpanStack>> = const { std::cell::OnceCell::new() };
}

fn register() -> Arc<SpanStack> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let stack = Arc::new(SpanStack::new(tid, name));
    stacks()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&stack));
    stack
}

/// Pre-register the calling thread's span stack under its current OS thread
/// name. Pool workers call this at startup so their stacks exist (and carry
/// the pool names) before the first profiled span; any other thread
/// registers lazily on its first push.
pub fn register_current_thread() {
    LOCAL.with(|cell| {
        cell.get_or_init(register);
    });
}

/// Push one frame onto the calling thread's stack. Callers must have
/// checked [`enabled`] — [`crate::span`] does.
#[inline]
pub(crate) fn push(kind: SpanKind, tag: u64) {
    LOCAL.with(|cell| cell.get_or_init(register).push(pack_frame(kind, tag)));
}

/// Pop the calling thread's innermost frame.
#[inline]
pub(crate) fn pop() {
    LOCAL.with(|cell| {
        if let Some(stack) = cell.get() {
            stack.pop();
        }
    });
}

// ---- the fold state -----------------------------------------------------

/// One node of the weighted stack trie. Children are a linear vector —
/// fan-out is bounded by the span taxonomy, so a scan beats hashing.
#[derive(Debug, Clone, Default)]
struct TrieNode {
    kind: u16,
    /// Samples whose innermost stored frame is this node.
    count: u64,
    children: Vec<TrieNode>,
}

impl TrieNode {
    fn fold(&mut self, path: &[u16]) {
        let mut node = self;
        for &kind in path {
            let idx = match node.children.iter().position(|c| c.kind == kind) {
                Some(i) => i,
                None => {
                    node.children.push(TrieNode {
                        kind,
                        ..TrieNode::default()
                    });
                    node.children.len() - 1
                }
            };
            node = &mut node.children[idx];
        }
        node.count += 1;
    }

    fn collapse(&self, prefix: &mut Vec<u16>, out: &mut BTreeMap<Vec<u16>, u64>) {
        for child in &self.children {
            prefix.push(child.kind);
            if child.count > 0 {
                *out.entry(prefix.clone()).or_default() += child.count;
            }
            child.collapse(prefix, out);
            prefix.pop();
        }
    }
}

/// Per-sampled-thread shard of the fold.
#[derive(Debug, Clone, Default)]
struct Shard {
    name: String,
    samples: u64,
    root: TrieNode,
}

/// Bounded retention of samples per serve-request id.
const MAX_TRACKED_REQUESTS: usize = 128;
const MAX_PATHS_PER_REQUEST: usize = 64;

#[derive(Debug, Default)]
struct FoldState {
    hz: u64,
    started: Option<Instant>,
    wall_ns: u64,
    samples: u64,
    dropped: u64,
    wakeups: u64,
    /// Indexed by stack tid.
    shards: Vec<Shard>,
    /// Serve-request id → sampled stack paths under that request's span.
    requests: HashMap<u64, HashMap<Vec<u16>, u64>>,
}

impl FoldState {
    fn reset(&mut self, hz: u64) {
        *self = FoldState {
            hz,
            started: Some(Instant::now()),
            ..FoldState::default()
        };
    }

    fn fold_sample(&mut self, tid: u32, name: &str, frames: &[u64]) {
        self.samples += 1;
        let path: Vec<u16> = frames.iter().map(|&f| frame_kind(f)).collect();
        let shard_idx = tid as usize;
        if self.shards.len() <= shard_idx {
            self.shards.resize(shard_idx + 1, Shard::default());
        }
        let shard = &mut self.shards[shard_idx];
        if shard.name.is_empty() {
            shard.name = name.to_owned();
        }
        shard.samples += 1;
        shard.root.fold(&path);
        // Per-request attribution: the outermost serve frame keys retention.
        if let Some(serve) = frames
            .iter()
            .find(|&&f| frame_kind(f) == SpanKind::Serve as u16)
        {
            let id = frame_tag(*serve);
            let fresh = !self.requests.contains_key(&id);
            if !fresh || self.requests.len() < MAX_TRACKED_REQUESTS {
                let paths = self.requests.entry(id).or_default();
                if paths.len() < MAX_PATHS_PER_REQUEST || paths.contains_key(&path) {
                    *paths.entry(path).or_default() += 1;
                }
            }
        }
    }

    fn report(&self) -> ProfileReport {
        let mut paths = BTreeMap::new();
        for shard in &self.shards {
            shard.root.collapse(&mut Vec::new(), &mut paths);
        }
        let wall_ns = self.wall_ns
            + self
                .started
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0);
        let mut threads: Vec<(String, u64)> = self
            .shards
            .iter()
            .filter(|s| s.samples > 0)
            .map(|s| (s.name.clone(), s.samples))
            .collect();
        threads.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ProfileReport {
            hz: self.hz,
            samples: self.samples,
            dropped: self.dropped,
            wakeups: self.wakeups,
            wall_ns,
            threads,
            paths,
        }
    }
}

fn fold() -> &'static Mutex<FoldState> {
    static FOLD: OnceLock<Mutex<FoldState>> = OnceLock::new();
    FOLD.get_or_init(|| Mutex::new(FoldState::default()))
}

fn lock_fold() -> std::sync::MutexGuard<'static, FoldState> {
    fold().lock().unwrap_or_else(|e| e.into_inner())
}

// ---- the sampler thread -------------------------------------------------

struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

fn sampler() -> &'static Mutex<Option<Sampler>> {
    static SAMPLER: OnceLock<Mutex<Option<Sampler>>> = OnceLock::new();
    SAMPLER.get_or_init(|| Mutex::new(None))
}

static RUNNING: AtomicBool = AtomicBool::new(false);

/// Is a sampler thread currently running?
pub fn is_running() -> bool {
    RUNNING.load(Ordering::Relaxed)
}

/// Start profiling at `hz` samples per second (clamped to `[1, 10000]`):
/// reset the fold state, enable span-stack maintenance, and spawn the
/// sampler thread. Errors if a sampler is already running.
pub fn start(hz: u64) -> Result<(), String> {
    let mut guard = sampler().lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_some() {
        return Err("profiler is already running".into());
    }
    let hz = hz.clamp(1, 10_000);
    lock_fold().reset(hz);
    set_enabled(true);
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("msf-profiler".into())
        .spawn(move || sampler_main(hz, &thread_stop))
        .map_err(|e| format!("cannot spawn the sampler thread: {e}"))?;
    RUNNING.store(true, Ordering::Relaxed);
    *guard = Some(Sampler { stop, handle });
    Ok(())
}

/// Stop profiling: disable the gate, join the sampler, and return the
/// final report. Idempotent — stopping an idle profiler returns whatever
/// the fold state last held.
pub fn stop() -> ProfileReport {
    let mut guard = sampler().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(s) = guard.take() {
        s.stop.store(true, Ordering::Relaxed);
        let _ = s.handle.join();
        RUNNING.store(false, Ordering::Relaxed);
    }
    set_enabled(false);
    let mut fold = lock_fold();
    if let Some(t) = fold.started.take() {
        fold.wall_ns += t.elapsed().as_nanos() as u64;
    }
    fold.requests.clear();
    fold.report()
}

/// Snapshot the current report without stopping the sampler (the daemon's
/// `profile fetch` op).
pub fn snapshot_report() -> ProfileReport {
    lock_fold().report()
}

/// Remove and return the sampled stacks retained for one serve-request id:
/// `(path of span-kind ids, samples)` pairs. `None` when the profiler is
/// not running or nothing was sampled under that request's serve span.
pub fn take_request(id: u64) -> Option<Vec<(Vec<u16>, u64)>> {
    if !is_running() {
        return None;
    }
    let paths = lock_fold().requests.remove(&id)?;
    let mut out: Vec<(Vec<u16>, u64)> = paths.into_iter().collect();
    out.sort();
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn sampler_main(hz: u64, stop: &AtomicBool) {
    let period_ns = 1_000_000_000 / hz;
    let start = Instant::now();
    let mut tick = 0u64;
    let mut frames: Vec<u64> = Vec::with_capacity(MAX_DEPTH);
    while !stop.load(Ordering::Relaxed) {
        tick += 1;
        // Absolute schedule: tick k fires at start + k·period, so oversleep
        // on one tick does not stretch the whole run's cadence.
        let next = Duration::from_nanos(period_ns.saturating_mul(tick));
        WAKEUPS.inc();
        {
            // Snapshot the registry (clone the Arcs) so stack reads happen
            // outside the registry lock.
            let registered: Vec<Arc<SpanStack>> =
                stacks().lock().unwrap_or_else(|e| e.into_inner()).clone();
            let mut fold = lock_fold();
            fold.wakeups += 1;
            for stack in &registered {
                match stack.sample(&mut frames) {
                    Some(()) if !frames.is_empty() => {
                        fold.fold_sample(stack.tid, &stack.name, &frames);
                        SAMPLES.inc();
                    }
                    Some(()) => {} // idle thread: no open spans, no sample
                    None => {
                        fold.dropped += 1;
                        DROPPED.inc();
                    }
                }
            }
        }
        let elapsed = start.elapsed();
        if next > elapsed {
            std::thread::sleep(next - elapsed);
        }
    }
}

// ---- the report and its exporters ---------------------------------------

/// One profile: sample-weighted span-stack paths plus sampler bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Configured sample rate.
    pub hz: u64,
    /// Non-empty stacks recorded.
    pub samples: u64,
    /// Samples discarded because the read raced a push/pop.
    pub dropped: u64,
    /// Sampler ticks.
    pub wakeups: u64,
    /// Wall nanoseconds the sampler was (or has been) running.
    pub wall_ns: u64,
    /// `(thread name, samples)` per sampled thread, most-sampled first.
    pub threads: Vec<(String, u64)>,
    /// `stack path (outermost first, span-kind ids) → samples`, merged
    /// across all per-thread shards. A `BTreeMap` keeps every export
    /// deterministic.
    paths: BTreeMap<Vec<u16>, u64>,
}

fn kind_name(kind: u16) -> String {
    SpanKind::from_u16(kind)
        .map(|k| k.name().to_owned())
        .unwrap_or_else(|| format!("kind-{kind}"))
}

/// Render one `(path, weight)` list as collapsed-stack lines. Shared by the
/// report exporter and the daemon's slow-request log.
pub fn render_folded(paths: &[(Vec<u16>, u64)]) -> String {
    let mut out = String::new();
    for (path, weight) in paths {
        let names: Vec<String> = path.iter().map(|&k| kind_name(k)).collect();
        let _ = writeln!(out, "{} {}", names.join(";"), weight);
    }
    out
}

impl ProfileReport {
    /// Total weighted samples across all paths.
    pub fn total_samples(&self) -> u64 {
        self.paths.values().sum()
    }

    /// Weighted samples whose stack contains `kind` (counted once per
    /// sample): the inclusive weight of a frame, the number a flamegraph
    /// shows for it. Divide by [`ProfileReport::hz`] for estimated seconds.
    pub fn inclusive_samples(&self, kind: SpanKind) -> u64 {
        self.paths
            .iter()
            .filter(|(path, _)| path.contains(&(kind as u16)))
            .map(|(_, w)| w)
            .sum()
    }

    /// Weighted samples whose *innermost* frame is `kind` — self time.
    pub fn self_samples(&self, kind: SpanKind) -> u64 {
        self.paths
            .iter()
            .filter(|(path, _)| path.last() == Some(&(kind as u16)))
            .map(|(_, w)| w)
            .sum()
    }

    /// Collapsed-stack (flamegraph.pl-compatible) export: one line per
    /// distinct stack, `frame;frame;frame weight`, deterministically
    /// ordered. Frame names are span-kind names.
    pub fn folded(&self) -> String {
        let paths: Vec<(Vec<u16>, u64)> = self.paths.iter().map(|(p, &w)| (p.clone(), w)).collect();
        render_folded(&paths)
    }

    /// A top-N table of frames by inclusive samples, with self samples and
    /// estimated wall seconds alongside.
    pub fn top(&self, n: usize) -> String {
        let mut kinds: Vec<u16> = Vec::new();
        for path in self.paths.keys() {
            for &k in path {
                if !kinds.contains(&k) {
                    kinds.push(k);
                }
            }
        }
        let mut rows: Vec<(u16, u64, u64)> = kinds
            .into_iter()
            .map(|k| {
                let kind = SpanKind::from_u16(k);
                let incl = match kind {
                    Some(kind) => self.inclusive_samples(kind),
                    None => 0,
                };
                let slf = match kind {
                    Some(kind) => self.self_samples(kind),
                    None => 0,
                };
                (k, incl, slf)
            })
            .collect();
        rows.sort_by_key(|&(k, incl, _)| (std::cmp::Reverse(incl), k));
        rows.truncate(n);
        let total = self.total_samples().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} samples at {} Hz over {:.3}s ({} dropped, {} wakeups)",
            self.samples,
            self.hz,
            self.wall_ns as f64 / 1e9,
            self.dropped,
            self.wakeups
        );
        if !self.threads.is_empty() {
            let list: Vec<String> = self
                .threads
                .iter()
                .map(|(name, n)| format!("{name} ({n})"))
                .collect();
            let _ = writeln!(out, "threads: {}", list.join(", "));
        }
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>7} {:>10} {:>10}",
            "frame", "inclusive", "%", "self", "est-secs"
        );
        for (k, incl, slf) in rows {
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>6.1}% {:>10} {:>10.3}",
                kind_name(k),
                incl,
                100.0 * incl as f64 / total as f64,
                slf,
                incl as f64 / self.hz.max(1) as f64
            );
        }
        out
    }

    /// The hottest frame by inclusive samples, if any sample was taken.
    pub fn hottest(&self) -> Option<SpanKind> {
        SpanKind::ALL
            .iter()
            .copied()
            .max_by_key(|&k| self.inclusive_samples(k))
            .filter(|&k| self.inclusive_samples(k) > 0)
    }

    /// Self-rendered SVG flamegraph (no external tooling): an icicle layout,
    /// root frames on top, rectangle width proportional to inclusive
    /// samples. Hover shows exact counts via `<title>`.
    pub fn svg(&self) -> String {
        const WIDTH: f64 = 1200.0;
        const ROW: f64 = 17.0;
        const PAD: f64 = 2.0;

        // Rebuild the trie from the merged paths so sibling order and
        // x-offsets are deterministic.
        let mut root = TrieNode::default();
        for (path, &w) in &self.paths {
            let mut node = &mut root;
            for &kind in path {
                let idx = match node.children.iter().position(|c| c.kind == kind) {
                    Some(i) => i,
                    None => {
                        node.children.push(TrieNode {
                            kind,
                            ..TrieNode::default()
                        });
                        node.children.len() - 1
                    }
                };
                node = &mut node.children[idx];
            }
            node.count += w;
        }
        fn inclusive(node: &TrieNode) -> u64 {
            node.count + node.children.iter().map(inclusive).sum::<u64>()
        }
        fn depth_of(node: &TrieNode) -> usize {
            1 + node.children.iter().map(depth_of).max().unwrap_or(0)
        }
        let total = inclusive(&root).max(1);
        let rows = depth_of(&root).max(2) - 1;
        let height = 40.0 + rows as f64 * ROW;

        let mut out = String::new();
        let _ = writeln!(
            out,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
             font-family=\"monospace\" font-size=\"11\">"
        );
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"16\" text-anchor=\"middle\">msf span-stack profile: {} samples \
             at {} Hz</text>",
            WIDTH / 2.0,
            self.samples,
            self.hz
        );
        // Fixed palette indexed by kind id: stable colors across runs.
        const PALETTE: [&str; 8] = [
            "#e4572e", "#f3a712", "#a8c686", "#669bbc", "#d1495b", "#9b5de5", "#f15bb5", "#00b4a0",
        ];
        fn color(kind: u16) -> &'static str {
            PALETTE[kind as usize % PALETTE.len()]
        }
        fn emit(
            out: &mut String,
            node: &TrieNode,
            x: f64,
            depth: usize,
            total: u64,
            hz: u64,
        ) -> f64 {
            let incl = inclusive(node);
            let w = WIDTH * incl as f64 / total as f64;
            if w < 0.3 {
                return w;
            }
            let y = 28.0 + depth as f64 * ROW;
            let name = kind_name(node.kind);
            let _ = writeln!(
                out,
                "<g><rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
                 fill=\"{}\" stroke=\"white\" stroke-width=\"0.5\"><title>{} — {} samples \
                 ({:.1}%, ~{:.3}s)</title></rect>",
                x,
                y,
                w,
                ROW - 1.0,
                color(node.kind),
                name,
                incl,
                100.0 * incl as f64 / total as f64,
                incl as f64 / hz.max(1) as f64
            );
            if w > 40.0 {
                let shown = name.chars().take((w / 7.0) as usize).collect::<String>();
                let _ = writeln!(
                    out,
                    "<text x=\"{:.2}\" y=\"{:.2}\" fill=\"#1a1a1a\">{shown}</text>",
                    x + PAD,
                    y + ROW - 5.0
                );
            }
            out.push_str("</g>\n");
            let mut cx = x;
            for child in &node.children {
                cx += emit(out, child, cx, depth + 1, total, hz);
            }
            w
        }
        let mut x = 0.0;
        for child in &root.children {
            x += emit(&mut out, child, x, 0, total, self.hz);
        }
        out.push_str("</svg>\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_packing_roundtrips() {
        for kind in SpanKind::ALL {
            let f = pack_frame(kind, 0x1234_5678_9abc);
            assert_eq!(frame_kind(f), kind as u16);
            assert_eq!(frame_tag(f), 0x1234_5678_9abc);
        }
        // Tags wider than 48 bits truncate without touching the kind.
        let f = pack_frame(SpanKind::Serve, u64::MAX);
        assert_eq!(frame_kind(f), SpanKind::Serve as u16);
        assert_eq!(frame_tag(f), TAG_MASK);
    }

    #[test]
    fn stack_push_pop_and_sample() {
        let stack = SpanStack::new(900, "test".into());
        let mut frames = Vec::new();
        stack.sample(&mut frames).expect("quiescent read");
        assert!(frames.is_empty());
        stack.push(pack_frame(SpanKind::Run, 1));
        stack.push(pack_frame(SpanKind::FindMin, 2));
        stack.sample(&mut frames).expect("quiescent read");
        assert_eq!(frames.len(), 2);
        assert_eq!(frame_kind(frames[0]), SpanKind::Run as u16);
        assert_eq!(frame_kind(frames[1]), SpanKind::FindMin as u16);
        stack.pop();
        stack.sample(&mut frames).expect("quiescent read");
        assert_eq!(frames.len(), 1);
        stack.pop();
        stack.pop(); // underflow saturates
        stack.sample(&mut frames).expect("quiescent read");
        assert!(frames.is_empty());
    }

    #[test]
    fn deep_stacks_truncate_but_stay_balanced() {
        let stack = SpanStack::new(901, "deep".into());
        for i in 0..(MAX_DEPTH + 10) {
            stack.push(pack_frame(SpanKind::Iteration, i as u64));
        }
        let mut frames = Vec::new();
        stack.sample(&mut frames).expect("quiescent read");
        assert_eq!(frames.len(), MAX_DEPTH);
        for _ in 0..10 {
            stack.pop();
        }
        stack.sample(&mut frames).expect("quiescent read");
        assert_eq!(frames.len(), MAX_DEPTH, "pops balance the excess pushes");
        for _ in 0..MAX_DEPTH {
            stack.pop();
        }
        stack.sample(&mut frames).expect("quiescent read");
        assert!(frames.is_empty());
    }

    #[test]
    fn trie_folds_and_collapses() {
        let mut root = TrieNode::default();
        let run = SpanKind::Run as u16;
        let fm = SpanKind::FindMin as u16;
        let cc = SpanKind::Connect as u16;
        root.fold(&[run, fm]);
        root.fold(&[run, fm]);
        root.fold(&[run, cc]);
        root.fold(&[run]);
        let mut paths = BTreeMap::new();
        root.collapse(&mut Vec::new(), &mut paths);
        assert_eq!(paths[&vec![run, fm]], 2);
        assert_eq!(paths[&vec![run, cc]], 1);
        assert_eq!(paths[&vec![run]], 1);
    }

    #[test]
    fn report_exports_are_consistent() {
        let mut paths = BTreeMap::new();
        paths.insert(vec![SpanKind::Run as u16, SpanKind::FindMin as u16], 30u64);
        paths.insert(vec![SpanKind::Run as u16, SpanKind::Compact as u16], 10);
        paths.insert(vec![SpanKind::Run as u16], 10);
        let report = ProfileReport {
            hz: 100,
            samples: 50,
            dropped: 0,
            wakeups: 60,
            wall_ns: 500_000_000,
            threads: vec![("main".into(), 50)],
            paths,
        };
        assert_eq!(report.total_samples(), 50);
        assert_eq!(report.inclusive_samples(SpanKind::Run), 50);
        assert_eq!(report.inclusive_samples(SpanKind::FindMin), 30);
        assert_eq!(report.self_samples(SpanKind::Run), 10);
        assert_eq!(report.hottest(), Some(SpanKind::Run));
        let folded = report.folded();
        assert!(folded.contains("run;find-min 30"), "{folded}");
        assert!(folded.contains("run;compact-graph 10"), "{folded}");
        assert!(folded.contains("run 10"), "{folded}");
        let top = report.top(10);
        assert!(top.contains("find-min"), "{top}");
        let svg = report.svg();
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.contains("find-min"), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn sampler_round_trip_catches_a_sleeping_span() {
        let _g = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let report = std::thread::spawn(|| {
            start(997).expect("start profiler");
            {
                let _span = crate::span(SpanKind::Run, 7, 0);
                std::thread::sleep(Duration::from_millis(120));
            }
            stop()
        })
        .join()
        .expect("profiled thread");
        assert!(!is_running());
        let run = report.inclusive_samples(SpanKind::Run);
        assert!(run > 0, "a 120ms span at 997 Hz must be sampled");
        // Generous reconciliation: wall × hz within a factor of four.
        let expect = 0.120 * 997.0;
        assert!(
            (run as f64) > expect / 4.0 && (run as f64) < expect * 4.0,
            "got {run} samples, expected ~{expect}"
        );
    }

    #[test]
    fn start_twice_errors_and_stop_is_idempotent() {
        let _g = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        start(97).expect("first start");
        assert!(start(97).is_err(), "second start must refuse");
        let _ = stop();
        let _ = stop();
        assert!(!is_running());
    }
}
