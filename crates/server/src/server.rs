//! The daemon: bind, accept, dispatch, drain.
//!
//! One OS thread per connection, synchronous request/response per frame —
//! the daemon's unit of concurrency is the *job*, not the socket, and jobs
//! are already multiplexed by the admission gate (large) and the epoch
//! batcher (small) onto the shared work-stealing pool. An async runtime
//! would add a dependency and buy nothing: connection counts are small
//! (clients are benchmark harnesses and scripts, not web traffic) and every
//! interesting wait happens inside a compute, where the pool owns the CPUs.
//!
//! Shutdown is cooperative: SIGTERM/SIGINT (or a `Shutdown` frame) sets one
//! atomic flag; the accept loop stops accepting, connection threads finish
//! the request in flight and hang up, the batcher drains, and the process
//! exits `0` — or `1` when any request suffered a *hard failure* (a handler
//! panic, or a paranoid certification that rejected a served forest). Soft
//! failures (unknown graph, bad path, malformed frame) are protocol errors
//! answered in-band and never affect the exit code.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use msf_core::certify::certify_msf_with;
use msf_core::job::MsfJob;
use msf_core::{Algorithm, MsfConfig};
use msf_obs::metrics::{LazyCounter, LazyHistogram};
use msf_obs::{self as obs, SpanKind};

use crate::admission::{Admission, AdmissionConfig, Admitted};
use crate::batch::Batcher;
use crate::proto::{
    read_frame, write_frame, CertifyReply, ComputeReply, InfoReply, Op, Request, Response,
    FLAG_NO_CACHE, FLAG_PARANOID,
};
use crate::registry::{Registry, ResidentGraph};

static REQUESTS: LazyCounter = LazyCounter::new("serve.requests");
static ERRORS: LazyCounter = LazyCounter::new("serve.errors");
static HARD_FAILURES: LazyCounter = LazyCounter::new("serve.hard_failures");
static CONNECTIONS: LazyCounter = LazyCounter::new("serve.connections");
static COMPUTE_NS: LazyHistogram = LazyHistogram::new("serve.compute_ns");
static SLOW_REQUESTS: LazyCounter = LazyCounter::new("serve.slow_requests");

/// The cache key prefix for first-round Borůvka intermediates. Valid for
/// every algorithm: under the `(weight, id)` total order the round's hooks
/// are in the unique MSF regardless of what finishes the job.
const ROUND_PREFIX: &str = "boruvka1";

/// Where to listen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A Unix domain socket at this path (created on bind, removed on exit).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7070` (port 0 picks a free port; the
    /// resolved address is printed on the ready line).
    Tcp(String),
}

impl Listen {
    /// Parse `unix:PATH` or `HOST:PORT`.
    pub fn parse(s: &str) -> Result<Listen, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: address needs a path".into());
            }
            Ok(Listen::Unix(PathBuf::from(path)))
        } else if s.contains(':') {
            Ok(Listen::Tcp(s.to_string()))
        } else {
            Err(format!(
                "bad address '{s}': expected unix:PATH or HOST:PORT"
            ))
        }
    }
}

/// Daemon configuration; [`Default`] matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Algorithm when a request leaves the slug empty.
    pub default_algorithm: Algorithm,
    /// Processor count when a request asks for 0.
    pub default_threads: usize,
    /// Registry capacity in estimated bytes.
    pub registry_bytes: u64,
    /// Admission gate knobs.
    pub admission: AdmissionConfig,
    /// Re-certify every served forest before replying, regardless of the
    /// request's flags.
    pub paranoid: bool,
    /// Slow-request threshold: requests taking longer than this get their
    /// sampled stacks (when the profiler is running) and metrics deltas
    /// dumped to stderr with the request id. `None` disables the log.
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            default_algorithm: Algorithm::BorFal,
            default_threads: msf_pool::width(),
            registry_bytes: u64::MAX,
            admission: AdmissionConfig::default(),
            paranoid: false,
            slow_ms: None,
        }
    }
}

/// Shared daemon state: the registry, the gates, and the failure ledger.
pub struct Server {
    cfg: ServerConfig,
    /// The resident-graph registry.
    pub registry: Registry,
    /// The large-job admission gate.
    pub admission: Admission,
    batcher: Batcher,
    shutdown: AtomicBool,
    hard_failures: AtomicU64,
    next_request: AtomicU64,
}

impl Server {
    /// Build the daemon state (does not bind).
    pub fn new(cfg: ServerConfig) -> Server {
        Server {
            registry: Registry::new(cfg.registry_bytes),
            admission: Admission::new(cfg.admission),
            batcher: Batcher::new(),
            shutdown: AtomicBool::new(false),
            hard_failures: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
            cfg,
        }
    }

    /// Ask the daemon to drain and exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown was requested (by signal or frame).
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal_received()
    }

    /// Hard failures so far (drives the exit code).
    pub fn hard_failures(&self) -> u64 {
        self.hard_failures.load(Ordering::SeqCst)
    }

    fn note_hard_failure(&self) {
        self.hard_failures.fetch_add(1, Ordering::SeqCst);
        HARD_FAILURES.inc();
    }

    /// Handle one decoded request. Panics in algorithm code are caught by
    /// the connection loop, not here.
    pub fn handle(&self, req: &Request) -> Response {
        REQUESTS.inc();
        let req_id = self.next_request.fetch_add(1, Ordering::Relaxed) + 1;
        // The serve span's begin `a` is the request id: the sampling
        // profiler keys per-request sample attribution on it (the id rides
        // in the stack frame's tag bits), so a slow request's sampled
        // stacks can be pulled out by id after the span closes.
        let span = obs::span(SpanKind::Serve, req_id, req.op as u64);
        let slow_ms = self.cfg.slow_ms;
        let metrics_before = slow_ms
            .filter(|_| obs::metrics::enabled())
            .map(|_| obs::metrics::snapshot());
        let start = Instant::now();
        let resp = self.dispatch(req);
        let ok = !matches!(resp, Response::Error { .. });
        if !ok {
            ERRORS.inc();
        }
        let wall = start.elapsed();
        span.end_with(ok as u64, wall.as_nanos() as u64);
        if let Some(limit) = slow_ms {
            if wall.as_millis() as u64 > limit {
                SLOW_REQUESTS.inc();
                self.log_slow_request(req, req_id, wall, metrics_before.as_ref());
            } else {
                // Keep the profiler's per-request retention bounded: fast
                // requests discard their sampled stacks immediately.
                let _ = obs::profile::take_request(req_id);
            }
        }
        resp
    }

    /// Dump one slow request to stderr: id, op, wall time, the profiler's
    /// sampled stacks for the request (when the sampler is running), and
    /// the counters that moved while it ran.
    fn log_slow_request(
        &self,
        req: &Request,
        req_id: u64,
        wall: Duration,
        before: Option<&obs::metrics::MetricsSnapshot>,
    ) {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "msf-serve: slow request #{req_id}: op {:?} graph '{}' took {:.1}ms (limit {}ms)",
            req.op,
            req.graph,
            wall.as_secs_f64() * 1e3,
            self.cfg.slow_ms.unwrap_or(0)
        );
        match obs::profile::take_request(req_id) {
            Some(paths) => {
                let _ = writeln!(out, "  sampled stacks:");
                for line in obs::profile::render_folded(&paths).lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "  sampled stacks: none (profiler not running or no samples landed)"
                );
            }
        }
        if let Some(before) = before {
            let after = obs::metrics::snapshot();
            let mut any = false;
            for (name, v) in &after.counters {
                let was = before.counter(name).unwrap_or(0);
                if *v > was {
                    if !any {
                        let _ = writeln!(out, "  counter deltas:");
                        any = true;
                    }
                    let _ = writeln!(out, "    {name} +{}", v - was);
                }
            }
            if !any {
                let _ = writeln!(out, "  counter deltas: none");
            }
        }
        eprint!("{out}");
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req.op {
            Op::Ping => Response::Pong,
            Op::Shutdown => {
                self.request_shutdown();
                Response::ShuttingDown
            }
            Op::Stats => {
                // One source of truth: fold the pool's native counters into
                // the registry, then render everything the registry knows.
                msf_pool::publish_metrics();
                Response::Stats {
                    text: obs::metrics::snapshot().prometheus_text(),
                }
            }
            Op::Load => {
                if req.graph.is_empty() || req.path.is_empty() {
                    return Response::Error {
                        message: "load needs both a graph name and a path".into(),
                    };
                }
                match self.registry.load(&req.graph, &req.path) {
                    Ok((g, fresh)) => Response::Loaded {
                        vertices: g.graph.num_vertices() as u64,
                        edges: g.graph.num_edges() as u64,
                        bytes: g.bytes(),
                        fresh,
                    },
                    Err(message) => Response::Error { message },
                }
            }
            Op::Evict => Response::Evicted {
                was_resident: self.registry.evict(&req.graph),
            },
            Op::Info => match self.registry.get(&req.graph) {
                Ok((g, _)) => Response::Info(InfoReply {
                    vertices: g.graph.num_vertices() as u64,
                    edges: g.graph.num_edges() as u64,
                    density: g.graph.density(),
                    resident: self.registry.resident_bytes_of(&req.graph).is_some(),
                    resident_bytes: g.bytes(),
                }),
                Err(message) => Response::Error { message },
            },
            Op::Compute => self.compute(req, false),
            Op::Certify => self.compute(req, true),
            Op::Profile => {
                // The action rides in `algorithm`, the rate in `threads`
                // (0 = a default gentle enough to leave running).
                let hz = if req.threads == 0 {
                    97
                } else {
                    req.threads as u64
                };
                match req.algorithm.as_str() {
                    "start" => match obs::profile::start(hz) {
                        Ok(()) => Response::Profile {
                            running: true,
                            folded: String::new(),
                            samples: 0,
                            dropped: 0,
                            wakeups: 0,
                        },
                        Err(message) => Response::Error { message },
                    },
                    "stop" => {
                        let report = obs::profile::stop();
                        Response::Profile {
                            running: false,
                            folded: report.folded(),
                            samples: report.samples,
                            dropped: report.dropped,
                            wakeups: report.wakeups,
                        }
                    }
                    "fetch" => {
                        let report = obs::profile::snapshot_report();
                        Response::Profile {
                            running: obs::profile::is_running(),
                            folded: report.folded(),
                            samples: report.samples,
                            dropped: report.dropped,
                            wakeups: report.wakeups,
                        }
                    }
                    other => Response::Error {
                        message: format!(
                            "unknown profile action '{other}' (expected start, stop, or fetch)"
                        ),
                    },
                }
            }
        }
    }

    /// The compute/certify path: resolve the graph, cost the job, pass the
    /// admission gate, run (batched or permitted), optionally certify.
    fn compute(&self, req: &Request, certify_op: bool) -> Response {
        let algorithm = if req.algorithm.is_empty() {
            self.cfg.default_algorithm
        } else {
            match Algorithm::parse(&req.algorithm) {
                Some(a) => a,
                None => {
                    return Response::Error {
                        message: format!("unknown algorithm '{}'", req.algorithm),
                    }
                }
            }
        };
        let threads = if req.threads == 0 {
            self.cfg.default_threads
        } else {
            req.threads as usize
        };
        let resident = match self.registry.get(&req.graph) {
            Ok((g, _)) => g,
            Err(message) => return Response::Error { message },
        };
        let job = MsfJob::with_config(algorithm, MsfConfig::with_threads(threads));
        let units = job.estimate(&resident.graph).units as u64;
        let paranoid = self.cfg.paranoid || req.flags & FLAG_PARANOID != 0;
        let no_cache = req.flags & FLAG_NO_CACHE != 0;

        let run = {
            let resident = Arc::clone(&resident);
            move || run_job(&resident, &job, no_cache)
        };
        let outcome = match self.admission.admit(units) {
            Admitted::Rejected { queued, max } => return Response::Overloaded { queued, max },
            Admitted::Small => self.batcher.run(run.clone()).unwrap_or_else(run),
            Admitted::Large(_permit) => run(),
        };
        let (mut result, round_cache_hit, wall_ns) = outcome;
        COMPUTE_NS.record(wall_ns);
        if !round_cache_hit && !no_cache {
            // The round this compute cached counts against the capacity.
            self.registry.charge(&resident);
        }

        // Test-only fault injection (the `MSF_TEST_SLOW_PHASE_NS` idiom):
        // drop one forest edge so the paranoid certification path has a
        // lie to catch. CI uses this to prove the daemon exits nonzero
        // after serving — well, refusing to serve — a broken forest.
        if std::env::var_os("MSF_TEST_BREAK_FOREST").is_some() {
            result.edges.pop();
        }

        // certify ops always prove; compute ops prove under --paranoid or
        // the request flag.
        let want_proof = certify_op || paranoid;
        let certificate = if want_proof {
            let t0 = Instant::now();
            match certify_msf_with(&resident.graph, &result, threads) {
                Ok(cert) => Some((cert, t0.elapsed().as_nanos() as u64)),
                Err(violation) => {
                    // A served forest failed its own proof: the daemon is
                    // lying to clients. That is a hard failure.
                    self.note_hard_failure();
                    return Response::Error {
                        message: format!(
                            "paranoid certification rejected the served forest: {violation}"
                        ),
                    };
                }
            }
        } else {
            None
        };

        if certify_op {
            let (cert, cert_ns) = certificate.expect("certify ops always prove");
            Response::Certified(CertifyReply {
                forest_edges: cert.forest_edges as u64,
                trees: cert.trees as u32,
                cycle_queries: cert.cycle_queries as u64,
                cut_checks: cert.cut_checks as u64,
                checksum: result.checksum(),
                wall_ns: wall_ns + cert_ns,
            })
        } else {
            Response::Computed(ComputeReply {
                algorithm: algorithm.slug().to_string(),
                vertices: resident.graph.num_vertices() as u64,
                edges: resident.graph.num_edges() as u64,
                forest_edges: result.edges.len() as u64,
                components: result.components,
                total_weight: result.total_weight,
                checksum: result.checksum(),
                wall_ns,
                round_cache_hit,
                certified: certificate.is_some(),
            })
        }
    }
}

/// Run one job against a resident graph, serving the first Borůvka round
/// from the intermediate cache. Returns (result, cache hit, wall ns).
fn run_job(
    resident: &ResidentGraph,
    job: &MsfJob,
    no_cache: bool,
) -> (msf_core::MsfResult, bool, u64) {
    let t0 = Instant::now();
    let (round, hit) = resident.first_round(ROUND_PREFIX, no_cache);
    let result = job.run_from_round(&resident.graph, &round);
    (result, hit, t0.elapsed().as_nanos() as u64)
}

// ---- signal handling ---------------------------------------------------

static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT arrived.
pub fn signal_received() -> bool {
    SIGNAL_FLAG.load(Ordering::SeqCst)
}

extern "C" fn on_signal(_sig: i32) {
    // Only an atomic store: the one async-signal-safe thing worth doing.
    SIGNAL_FLAG.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers that set the drain flag. Uses libc's
/// `signal(2)` through a direct FFI declaration — std already links libc on
/// every unix target, so this adds no dependency.
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

// ---- the accept/drain loop ---------------------------------------------

/// A bound listener in either domain.
enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

/// A connected stream in either domain.
pub enum Stream {
    /// Unix domain.
    Unix(UnixStream),
    /// TCP.
    Tcp(TcpStream),
}

impl From<UnixStream> for Stream {
    fn from(s: UnixStream) -> Stream {
        Stream::Unix(s)
    }
}

impl From<TcpStream> for Stream {
    fn from(s: TcpStream) -> Stream {
        Stream::Tcp(s)
    }
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Bind, announce readiness on stdout, serve until shutdown, drain, and
/// return the process exit code (0 clean, 1 after hard failures).
pub fn serve(cfg: ServerConfig) -> Result<i32, String> {
    serve_with(cfg, &[])
}

/// [`serve`], loading `(name, path)` graphs into the registry before the
/// ready line is printed — "listening" then implies "preloads resident".
pub fn serve_with(cfg: ServerConfig, preload: &[(String, String)]) -> Result<i32, String> {
    install_signal_handlers();
    obs::metrics::set_enabled(true);
    let server = Arc::new(Server::new(cfg));
    for (name, path) in preload {
        let (g, _) = server.registry.load(name, path)?;
        eprintln!(
            "preloaded {name}: {} vertices, {} edges",
            g.graph.num_vertices(),
            g.graph.num_edges()
        );
    }
    let cfg = &server.cfg;
    let listener = match &cfg.listen {
        Listen::Unix(path) => {
            // A stale socket file from a dead daemon refuses the bind.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)
                .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
            println!("msf-serve listening on unix:{}", path.display());
            Listener::Unix(l, path.clone())
        }
        Listen::Tcp(addr) => {
            let l = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = l.local_addr().map_err(|e| e.to_string())?;
            println!("msf-serve listening on tcp:{local}");
            Listener::Tcp(l)
        }
    };
    // Flush the ready line so scripts blocking on it wake immediately.
    let _ = io::stdout().flush();

    let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    match &listener {
        Listener::Unix(l, _) => l
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?,
        Listener::Tcp(l) => l
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?,
    }

    while !server.shutting_down() {
        let accepted = match &listener {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        match accepted {
            Ok(stream) => {
                CONNECTIONS.inc();
                let server = Arc::clone(&server);
                let handle = std::thread::Builder::new()
                    .name("msf-serve-conn".into())
                    .spawn(move || connection_loop(&server, stream))
                    .expect("spawn connection thread");
                let mut workers = workers.lock().unwrap();
                workers.push(handle);
                // Opportunistically reap finished threads so a long-lived
                // daemon doesn't accumulate handles.
                workers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }

    // Drain: connection threads see the flag via their read timeouts,
    // finish the request in flight, and exit.
    for handle in workers.lock().unwrap().drain(..) {
        let _ = handle.join();
    }
    server.batcher.shutdown();
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }

    let failures = server.hard_failures();
    if failures > 0 {
        eprintln!("msf-serve: {failures} hard failure(s) during this run");
        Ok(1)
    } else {
        Ok(0)
    }
}

/// Serve one already-accepted connection to completion (EOF, protocol
/// error, or drain). Public so embedders — tests, the serve-mode bench —
/// can drive the daemon over their own listener.
pub fn serve_connection(server: &Server, stream: impl Into<Stream>) {
    connection_loop(server, stream.into())
}

/// Per-connection loop: frame in, response out, until EOF, protocol error,
/// or drain.
fn connection_loop(server: &Server, mut stream: Stream) {
    // Short read timeouts let idle connections notice the drain flag.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        match read_frame(&mut stream) {
            Ok(Some(payload)) => {
                let resp = match Request::decode(&payload) {
                    Ok(req) => {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                server.handle(&req)
                            }));
                        match outcome {
                            Ok(resp) => resp,
                            Err(_) => {
                                server.note_hard_failure();
                                Response::Error {
                                    message: format!(
                                        "internal panic while handling {:?} — this is a server bug",
                                        req.op
                                    ),
                                }
                            }
                        }
                    }
                    Err(e) => Response::Error {
                        message: format!("malformed request: {e}"),
                    },
                };
                if write_frame(&mut stream, &resp.encode()).is_err() {
                    return; // peer hung up mid-reply
                }
            }
            Ok(None) => return, // clean EOF
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if server.shutting_down() {
                    return;
                }
            }
            Err(_) => return, // truncated frame or transport error
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_parses_both_domains() {
        assert_eq!(
            Listen::parse("unix:/tmp/msf.sock").unwrap(),
            Listen::Unix(PathBuf::from("/tmp/msf.sock"))
        );
        assert_eq!(
            Listen::parse("127.0.0.1:7070").unwrap(),
            Listen::Tcp("127.0.0.1:7070".into())
        );
        assert!(Listen::parse("unix:").is_err());
        assert!(Listen::parse("nonsense").is_err());
    }

    #[test]
    fn handle_answers_ping_stats_and_errors_inline() {
        obs::metrics::set_enabled(true);
        let server = Server::new(ServerConfig::default());
        assert_eq!(server.handle(&Request::op(Op::Ping)), Response::Pong);
        match server.handle(&Request::op(Op::Stats)) {
            Response::Stats { text } => {
                assert!(
                    text.contains("serve_requests"),
                    "scrape includes serve counters: {text}"
                )
            }
            other => panic!("expected stats, got {other:?}"),
        }
        let mut req = Request::op(Op::Compute);
        req.graph = "missing".into();
        match server.handle(&req) {
            Response::Error { message } => assert!(message.contains("unknown graph")),
            other => panic!("expected error, got {other:?}"),
        }
        for gone in ["bor-dense", "sf-hook"] {
            req.algorithm = gone.into();
            match server.handle(&req) {
                Response::Error { message } => {
                    assert_eq!(message, format!("unknown algorithm '{gone}'"))
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
        assert_eq!(
            server.hard_failures(),
            0,
            "soft errors are not hard failures"
        );
    }

    /// A round cached by a compute counts against `--registry-bytes`: with a
    /// cap that fits two edge lists but not a round besides, computing the
    /// more recent graph evicts the other.
    #[test]
    fn cached_round_is_charged_and_evicts_the_lru_graph() {
        let dir = std::env::temp_dir().join(format!("msf-server-charge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A 6-cycle with chords: its first round leaves edges to contract.
        let g = msf_graph::EdgeList::from_triples(
            6,
            (0..6u32)
                .map(|i| (i, (i + 1) % 6, f64::from(i)))
                .chain((0..3u32).map(|i| (i, i + 3, 10.0 + f64::from(i)))),
        );
        let [a, b] = ["a.gr", "b.gr"].map(|name| {
            let path = dir.join(name);
            msf_graph::io::write_dimacs(&g, std::fs::File::create(&path).unwrap()).unwrap();
            path.to_str().unwrap().to_string()
        });
        let round = msf_core::job::boruvka_round(&g).bytes();
        let loaded = Registry::new(u64::MAX).put("g", g).bytes();
        let cap = 2 * loaded + round / 2;
        let server = Server::new(ServerConfig {
            registry_bytes: cap,
            ..ServerConfig::default()
        });
        server.registry.load("a", &a).unwrap();
        server.registry.load("b", &b).unwrap();
        assert_eq!(server.registry.resident_bytes(), 2 * loaded);
        let mut req = Request::op(Op::Compute);
        req.graph = "b".into();
        assert!(matches!(server.handle(&req), Response::Computed(_)));
        assert!(server.registry.resident_bytes() <= cap);
        assert_eq!(
            server.registry.resident_bytes_of("a"),
            None,
            "a is the LRU graph"
        );
        assert_eq!(server.registry.resident_bytes_of("b"), Some(loaded + round));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_frame_sets_the_drain_flag() {
        let server = Server::new(ServerConfig::default());
        assert!(!server.shutting_down());
        assert_eq!(
            server.handle(&Request::op(Op::Shutdown)),
            Response::ShuttingDown
        );
        assert!(server.shutting_down());
    }
}
