//! `msf` — command-line minimum spanning forest solver.
//!
//! ```sh
//! msf compute <graph.gr|graph.msfb> [--algo bor-fal] [--threads 8] [--verify] [--out forest.txt] [--trace t.json]
//! msf certify <graph.gr|graph.msfb> [--algo bor-fal] [--threads 8]
//! msf trace <graph.gr|graph.msfb> [--algo bor-fal] [--threads 8] [--out trace.json] [--strict]
//! msf fuzz [--cases 500] [--seed 2026] [--corpus DIR] [--max-n 96] [--inject-failure]
//! msf generate <kind> [params…] --out graph.gr [--weights uniform|small-int|exponential|bimodal]
//! msf convert <input> <output> [--to bin|dimacs]
//! msf info <graph.gr|graph.msfb>
//! msf bench [--scale smoke|default|paper|large] [--seed 2026] [--repeats K] [--certify] [--json] [--out BENCH.json]
//! msf regress --baseline OLD.json --candidate NEW.json [--threshold PCT] [--min-wall SECS]
//! msf serve --listen <unix:PATH|HOST:PORT> [--paranoid] [--preload NAME=PATH]…
//! msf client <addr> <op> [args…]
//! ```
//!
//! Graphs are DIMACS-style (`p sp n m` + `a u v w` lines, 1-indexed) or the
//! `.msfb` binary format — every command that reads a graph sniffs the
//! magic and picks the loader, so binary files work everywhere a DIMACS
//! file does (and load via `mmap`, not a parse). `msf convert` moves
//! between the two; `msf generate rmat`/`powerlaw` stream straight to
//! binary when the output path ends in `.msfb`. The forest output lists
//! one selected input edge per line as `u v w`.
//! `certify` proves a computed forest minimum from the cycle property alone
//! (no reference run); `fuzz` differential-tests the whole algorithm
//! portfolio on generated graphs, shrinking any failure to a minimal DIMACS
//! reproducer in the corpus directory; `trace` runs one algorithm with the
//! observability rings on and exports a `chrome://tracing` / Perfetto JSON
//! plus a per-span-kind text summary (`--strict` exits nonzero if any ring
//! overflowed and dropped events). `MSF_TRACE=1` turns tracing on for any
//! subcommand; `--trace PATH` does the same and writes the chrome JSON.
//! `bench --json` emits a schema-versioned report with per-phase histogram
//! summaries and allocator statistics; `regress` compares two such reports
//! and exits nonzero when the candidate regressed.

use std::fs::File;
use std::io::{BufWriter, Write};

use msf_core::{fuzz, minimum_spanning_forest, verify, Algorithm, MsfConfig};
use msf_graph::generators::{
    assign_weights, geometric_knn, mesh2d, mesh2d_random, mesh3d_random, powerlaw_graph,
    powerlaw_to_binary, random_graph, rmat_graph, rmat_to_binary, structured, GeneratorConfig,
    PowerLawConfig, RmatConfig, StructuredKind, WeightScheme,
};
use msf_graph::{binfmt, io, EdgeList};
use msf_primitives::obs;

/// Count heap traffic at the allocator (gated by `MSF_ALLOC_STATS`, forced
/// on by `msf bench`); disabled it is one relaxed load over plain `System`.
#[global_allocator]
static ALLOC: obs::alloc::CountingAllocator = obs::alloc::CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         msf compute <graph> [--algo NAME] [--threads P] [--verify] [--out FILE] [--trace FILE]\n  \
         msf certify <graph> [--algo NAME] [--threads P]\n  \
         msf trace <graph> [--algo NAME] [--threads P] [--out FILE] [--strict]\n  \
         msf profile [--hz N] [--out FILE] [--svg FILE] [--top N] [--assert-agree PCT]\n      \
         -- <compute|certify|trace|bench|fuzz args...>\n  \
         msf fuzz [--cases N] [--seed S] [--corpus DIR] [--max-n N] [--inject-failure]\n  \
         msf generate <random n m | mesh side | 2d60 side | 3d40 side | geometric n k | str0..str3 n\n                \
         | rmat scale edge_factor | powerlaw n m>\n      \
         [--seed S] [--weights uniform|small-int|exponential|bimodal] --out FILE\n      \
         (rmat/powerlaw stream to binary when FILE ends in .msfb)\n  \
         msf convert <input> <output> [--to bin|dimacs]\n  \
         msf info <graph>\n  \
         msf bench [--scale smoke|default|paper|large] [--seed S] [--repeats K] [--certify]\n      \
         [--json] [--out FILE] [--trace FILE]\n  \
         msf regress --baseline OLD.json --candidate NEW.json [--threshold PCT] [--min-wall SECS]\n      \
         [--out FILE]\n  \
         msf serve --listen <unix:PATH|HOST:PORT> [--algo NAME] [--threads P] [--paranoid]\n      \
         [--registry-bytes N] [--large-threshold U] [--max-inflight U] [--max-queued N]\n      \
         [--slow-ms MS] [--preload NAME=PATH]...\n  \
         msf client <addr> <ping|load NAME PATH|compute NAME|certify NAME|info NAME|evict NAME\n      \
         |stats|profile start|stop|fetch|shutdown> [--algo NAME] [--threads P] [--hz N]\n      \
         [--paranoid] [--no-cache]\n\n\
         --algorithm is accepted everywhere --algo is\n\
         <graph> is DIMACS (.gr) or msfb binary — detected by content, not extension\n\
         algorithms: prim kruskal boruvka bor-el bor-al bor-alm bor-fal bor-fal-filter mst-bc\n            \
         bor-write-min filter-kruskal"
    );
    std::process::exit(2);
}

/// Drain the event rings and write the chrome-trace JSON; nesting violations
/// are fatal (a malformed trace means an instrumentation bug, not bad input).
/// With `strict`, dropped events (ring overflow) are fatal too.
fn finish_trace(path: &str, strict: bool) {
    let trace = obs::drain();
    if let Err(e) = trace.validate_nesting() {
        eprintln!("TRACE NESTING VIOLATION: {e}");
        std::process::exit(1);
    }
    std::fs::write(path, trace.chrome_json()).expect("write trace JSON");
    eprintln!("{}", trace.summary());
    eprintln!("chrome trace written to {path} (load in chrome://tracing or ui.perfetto.dev)");
    if strict && trace.dropped > 0 {
        eprintln!(
            "--strict: {} events were dropped to ring overflow; failing",
            trace.dropped
        );
        std::process::exit(1);
    }
}

fn parse_algo(s: &str) -> Option<Algorithm> {
    Algorithm::parse(s)
}

/// Load a graph from either format, sniffing the binary magic. Binary
/// files validate on open (mmap) and then materialize the edge list the
/// kernels consume; text files stream through the DIMACS parser.
///
/// Any failure — missing file, unreadable path, truncated or malformed
/// content — is a clean one-line diagnostic and exit 2 (the CLI's usage
/// exit code), never a panic: scripts distinguish "bad input" (2) from
/// "algorithm failed" (1).
fn load(path: &str) -> EdgeList {
    msf_server::registry::load_graph_file(path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    // Resolve MSF_TRACE/MSF_TRACE_CAP up front so the per-span check is the
    // steady-state one-load branch from the very first algorithm run.
    obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compute") => compute(&args[1..]),
        Some("certify") => certify(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some("fuzz") => fuzz_cmd(&args[1..]),
        Some("generate") => generate(&args[1..]),
        Some("convert") => convert(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("regress") => regress_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("client") => client_cmd(&args[1..]),
        _ => usage(),
    }
}

/// `msf serve` — run the persistent daemon until SIGTERM/SIGINT or a
/// shutdown frame; the exit code is 1 when any request hard-failed (handler
/// panic or a paranoid certification rejecting a served forest).
fn serve_cmd(args: &[String]) {
    let mut cfg = msf_server::ServerConfig::default();
    let mut preload: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                let addr = args.get(i).unwrap_or_else(|| usage());
                cfg.listen = msf_server::Listen::parse(addr).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--algo" | "--algorithm" => {
                i += 1;
                cfg.default_algorithm = args
                    .get(i)
                    .and_then(|s| parse_algo(s))
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                cfg.default_threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--registry-bytes" => {
                i += 1;
                cfg.registry_bytes = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--large-threshold" => {
                i += 1;
                cfg.admission.large_threshold = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-inflight" => {
                i += 1;
                cfg.admission.max_inflight_units = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-queued" => {
                i += 1;
                cfg.admission.max_queued = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--paranoid" => cfg.paranoid = true,
            "--slow-ms" => {
                i += 1;
                cfg.slow_ms = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--preload" => {
                i += 1;
                let spec = args.get(i).unwrap_or_else(|| usage());
                match spec.split_once('=') {
                    Some((name, path)) => preload.push((name.into(), path.into())),
                    None => {
                        eprintln!("--preload wants NAME=PATH, got '{spec}'");
                        std::process::exit(2);
                    }
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    match msf_server::server::serve_with(cfg, &preload) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// `msf client <addr> <op> …` — one request against a running daemon.
/// Exit codes: 0 ok, 1 server-side error, 3 rejected by admission control,
/// 2 usage/transport problems.
fn client_cmd(args: &[String]) {
    use msf_server::proto::Response;
    let addr = args.first().unwrap_or_else(|| usage());
    let op = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
    let mut client = msf_server::Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(2);
    });
    let rest = &args[2..];
    let mut algo = String::new();
    let mut threads = 0u32;
    let mut hz = 0u32;
    let mut paranoid = false;
    let mut no_cache = false;
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--algo" | "--algorithm" => {
                i += 1;
                algo = rest.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--hz" => {
                i += 1;
                hz = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--paranoid" => paranoid = true,
            "--no-cache" => no_cache = true,
            s => positional.push(s),
        }
        i += 1;
    }
    let sent = match (op, positional.as_slice()) {
        ("ping", []) => client.ping(),
        ("load", [name, path]) => client.load(name, path),
        ("compute", [name]) => client.compute(name, &algo, threads, paranoid, no_cache),
        ("certify", [name]) => client.certify(name, &algo, threads),
        ("info", [name]) => client.info(name),
        ("evict", [name]) => client.evict(name),
        ("stats", []) => client.stats(),
        ("shutdown", []) => client.shutdown(),
        ("profile", [action]) => client.profile(action, hz),
        _ => usage(),
    };
    let resp = sent.unwrap_or_else(|e| {
        eprintln!("request failed: {e}");
        std::process::exit(2);
    });
    match resp {
        Response::Error { message } => {
            eprintln!("server error: {message}");
            std::process::exit(1);
        }
        Response::Overloaded { queued, max } => {
            eprintln!("rejected by admission control: {queued}/{max} jobs queued");
            std::process::exit(3);
        }
        Response::Pong => println!("pong"),
        Response::ShuttingDown => println!("server is draining"),
        Response::Loaded {
            vertices,
            edges,
            bytes,
            fresh,
        } => println!(
            "loaded: {vertices} vertices, {edges} edges, ~{bytes} bytes resident{}",
            if fresh { "" } else { " (already resident)" }
        ),
        Response::Evicted { was_resident } => println!(
            "evicted: {}",
            if was_resident {
                "was resident"
            } else {
                "was not resident"
            }
        ),
        Response::Stats { text } => print!("{text}"),
        Response::Info(r) => println!(
            "info: {} vertices, {} edges, density {:.3}, resident={} (~{} bytes)",
            r.vertices, r.edges, r.density, r.resident, r.resident_bytes
        ),
        Response::Computed(r) => println!(
            "computed [{}]: {} forest edges, {} trees, weight {:.6}, checksum {:016x}, \
             {:.3} ms{}{}",
            r.algorithm,
            r.forest_edges,
            r.components,
            r.total_weight,
            r.checksum,
            r.wall_ns as f64 / 1e6,
            if r.round_cache_hit {
                ", round-cache hit"
            } else {
                ""
            },
            if r.certified { ", certified" } else { "" }
        ),
        Response::Certified(r) => println!(
            "certified: {} forest edges in {} trees, {} cycle queries, checksum {:016x}, \
             {:.3} ms",
            r.forest_edges,
            r.trees,
            r.cycle_queries,
            r.checksum,
            r.wall_ns as f64 / 1e6
        ),
        Response::Profile {
            running,
            folded,
            samples,
            dropped,
            wakeups,
        } => {
            eprintln!(
                "profiler {}: {samples} samples, {dropped} dropped, {wakeups} wakeups",
                if running { "running" } else { "stopped" }
            );
            // The collapsed stacks go to stdout so they pipe straight into
            // flamegraph.pl or a file.
            print!("{folded}");
        }
    }
}

fn trace_cmd(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let mut algo = Algorithm::BorFal;
    let mut threads = msf_pool::width();
    let mut out_path = String::from("trace.json");
    let mut strict = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--algo" | "--algorithm" => {
                i += 1;
                algo = args
                    .get(i)
                    .and_then(|s| parse_algo(s))
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--strict" => strict = true,
            _ => usage(),
        }
        i += 1;
    }
    let g = load(path);
    obs::set_enabled(true);
    let _ = obs::drain(); // discard anything recorded before this run
    let result = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(threads));
    eprintln!(
        "{algo}: {} vertices, {} edges -> {} forest edges, weight {:.6}, {} trees, {:.3}s",
        g.num_vertices(),
        g.num_edges(),
        result.edges.len(),
        result.total_weight,
        result.components,
        result.stats.total_seconds
    );
    finish_trace(&out_path, strict);
}

/// `msf profile [--hz N] [--out FILE] [--svg FILE] [--top N]
/// [--assert-agree PCT] -- <subcommand args...>` — run any other subcommand
/// under the span-stack sampling profiler and report where the time went.
///
/// The inner command runs in-process (same dispatch as `msf <subcommand>`),
/// so the profiler sees the real pool workers. Metrics are force-enabled so
/// the instrumented `phase.*.wall_ns` histograms accumulate alongside the
/// samples; the agreement table at the end cross-checks the two for every
/// phase that held ≥5% of the run, and `--assert-agree PCT` turns
/// disagreement beyond PCT percent into exit code 1.
fn profile_cmd(args: &[String]) {
    let mut hz = 997u64;
    let mut out_path: Option<String> = None;
    let mut svg_path: Option<String> = None;
    let mut top = 10usize;
    let mut assert_agree: Option<f64> = None;
    let mut inner: Option<&[String]> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--hz" => {
                i += 1;
                hz = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--svg" => {
                i += 1;
                svg_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--top" => {
                i += 1;
                top = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--assert-agree" => {
                i += 1;
                assert_agree = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--" => {
                inner = Some(&args[i + 1..]);
                break;
            }
            _ => usage(),
        }
        i += 1;
    }
    let inner = inner.filter(|a| !a.is_empty()).unwrap_or_else(|| usage());

    obs::metrics::set_enabled(true);
    obs::metrics::reset_for_test(); // the agreement check wants this run only
    obs::profile::start(hz).unwrap_or_else(|e| {
        eprintln!("cannot start the profiler: {e}");
        std::process::exit(2);
    });
    match inner[0].as_str() {
        "compute" => compute(&inner[1..]),
        "certify" => certify(&inner[1..]),
        "trace" => trace_cmd(&inner[1..]),
        "bench" => bench(&inner[1..]),
        "fuzz" => fuzz_cmd(&inner[1..]),
        other => {
            eprintln!(
                "msf profile cannot wrap '{other}' (try compute, certify, trace, bench, or fuzz)"
            );
            std::process::exit(2);
        }
    }
    let report = obs::profile::stop();

    eprintln!();
    eprint!("{}", report.top(top));
    if let Some(hot) = report.hottest() {
        eprintln!("hottest: {}", hot.name());
    }
    if let Some(path) = &out_path {
        std::fs::write(path, report.folded()).expect("write folded profile");
        eprintln!("collapsed stacks written to {path} (flamegraph.pl-compatible)");
    }
    if let Some(path) = &svg_path {
        std::fs::write(path, report.svg()).expect("write SVG flamegraph");
        eprintln!("flamegraph written to {path}");
    }

    // Reconcile sampled time against the instrumented phase wall clocks.
    // Inclusive samples of a phase kind / hz ≈ that phase's wall_ns sum:
    // step spans only ever live on the thread driving the run, so a phase
    // that instrumented W ns should hold ~W×hz/1e9 samples.
    let snap = obs::metrics::snapshot();
    let run_samples = report.inclusive_samples(obs::SpanKind::Run).max(1);
    let phases = [
        (obs::SpanKind::Setup, "phase.setup.wall_ns"),
        (obs::SpanKind::FindMin, "phase.find-min.wall_ns"),
        (obs::SpanKind::Connect, "phase.connect.wall_ns"),
        (obs::SpanKind::Compact, "phase.compact.wall_ns"),
        (obs::SpanKind::BaseCase, "phase.base-case.wall_ns"),
    ];
    let mut worst: Option<(f64, &str)> = None;
    let mut printed_header = false;
    for (kind, hist_name) in phases {
        let instrumented_ns = snap.histogram(hist_name).map(|h| h.sum).unwrap_or(0);
        let samples = report.inclusive_samples(kind);
        if instrumented_ns == 0 && samples == 0 {
            continue;
        }
        let share = samples as f64 / run_samples as f64;
        let est_ns = samples as f64 / hz as f64 * 1e9;
        let err_pct = if instrumented_ns > 0 {
            (est_ns - instrumented_ns as f64).abs() / instrumented_ns as f64 * 100.0
        } else {
            100.0
        };
        if !printed_header {
            eprintln!(
                "{:<20} {:>9} {:>12} {:>12} {:>8}",
                "phase", "share", "sampled", "metered", "error"
            );
            printed_header = true;
        }
        eprintln!(
            "{:<20} {:>8.1}% {:>10.3}ms {:>10.3}ms {:>7.1}%",
            kind.name(),
            share * 100.0,
            est_ns / 1e6,
            instrumented_ns as f64 / 1e6,
            err_pct
        );
        // Only phases carrying ≥5% of the run's samples are statistically
        // meaningful at practical rates; smaller ones are noise.
        if share >= 0.05 {
            let is_worse = worst.map(|(w, _)| err_pct > w).unwrap_or(true);
            if is_worse {
                worst = Some((err_pct, kind.name()));
            }
        }
    }
    if let (Some(limit), Some((err, name))) = (assert_agree, worst) {
        if err > limit {
            eprintln!(
                "--assert-agree {limit}%: phase '{name}' disagrees by {err:.1}% between \
                 samples and phase.*.wall_ns; failing"
            );
            std::process::exit(1);
        }
        eprintln!("--assert-agree {limit}%: worst major-phase disagreement {err:.1}% ({name}) ✓");
    }
}

fn certify(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let mut algo = Algorithm::BorFal;
    let mut threads = msf_pool::width();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--algo" | "--algorithm" => {
                i += 1;
                algo = args
                    .get(i)
                    .and_then(|s| parse_algo(s))
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    let g = load(path);
    let result = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(threads));
    match msf_core::certify::certify_msf_with(&g, &result, threads) {
        Ok(cert) => {
            eprintln!(
                "{algo}: certificate accepted — {} forest edges in {} trees, {} cycle-property \
                 queries, modeled certification time {}",
                cert.forest_edges,
                cert.trees,
                cert.cycle_queries,
                cert.modeled_time()
            );
        }
        Err(v) => {
            eprintln!("{algo}: CERTIFICATE REJECTED — {v}");
            std::process::exit(1);
        }
    }
}

fn fuzz_cmd(args: &[String]) {
    let mut cfg = fuzz::FuzzConfig {
        cases: 500,
        ..fuzz::FuzzConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cases" => {
                i += 1;
                cfg.cases = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--corpus" => {
                i += 1;
                cfg.corpus_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()).into());
            }
            "--max-n" => {
                i += 1;
                cfg.max_vertices = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--inject-failure" => cfg.inject_failure = true,
            _ => usage(),
        }
        i += 1;
    }
    let report = fuzz::run_fuzz(&cfg).unwrap_or_else(|e| {
        eprintln!("fuzz campaign failed with IO error: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "fuzz: {} cases, {} runs, {} certified, {} failures (seed {})",
        report.cases,
        report.runs,
        report.certified,
        report.failures.len(),
        cfg.seed
    );
    for f in &report.failures {
        eprintln!(
            "  case {} [{}] {} at p={} base_size={}: {}",
            f.case, f.generator, f.algo, f.threads, f.base_size, f.detail
        );
        eprintln!(
            "    shrunk to {} vertices / {} edges{}",
            f.shrunk.num_vertices(),
            f.shrunk.num_edges(),
            match &f.reproducer {
                Some(p) => format!(", reproducer at {}", p.display()),
                None => String::new(),
            }
        );
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

fn compute(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let mut algo = Algorithm::BorFal;
    let mut threads = msf_pool::width();
    let mut do_verify = false;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--algo" | "--algorithm" => {
                i += 1;
                algo = args
                    .get(i)
                    .and_then(|s| parse_algo(s))
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--verify" => do_verify = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    let g = load(path);
    if trace_path.is_some() {
        obs::set_enabled(true);
        let _ = obs::drain();
    }
    let result = minimum_spanning_forest(&g, algo, &MsfConfig::with_threads(threads));
    eprintln!(
        "{algo}: {} vertices, {} edges -> {} forest edges, weight {:.6}, {} trees, {:.3}s",
        g.num_vertices(),
        g.num_edges(),
        result.edges.len(),
        result.total_weight,
        result.components,
        result.stats.total_seconds
    );
    if do_verify {
        verify::verify_msf(&g, &result).unwrap_or_else(|e| {
            eprintln!("VERIFICATION FAILED: {e}");
            std::process::exit(1);
        });
        eprintln!("verified against the unique MSF ✓");
    }
    if let Some(out_path) = out_path {
        let mut out = BufWriter::new(File::create(&out_path).expect("create output"));
        for &id in &result.edges {
            let e = g.edge(id);
            writeln!(out, "{} {} {}", e.u + 1, e.v + 1, e.w).expect("write edge");
        }
        eprintln!("forest written to {out_path}");
    }
    if let Some(trace_path) = trace_path {
        finish_trace(&trace_path, false);
    }
}

fn generate(args: &[String]) {
    let mut seed = 2026u64;
    let mut weights: Option<WeightScheme> = None;
    let mut out_path: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--weights" => {
                i += 1;
                weights = Some(match args.get(i).map(String::as_str) {
                    Some("uniform") => WeightScheme::Uniform,
                    Some("small-int") => WeightScheme::SmallIntegers { range: 16 },
                    Some("exponential") => WeightScheme::Exponential,
                    Some("bimodal") => WeightScheme::Bimodal,
                    _ => usage(),
                });
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            s => positional.push(s),
        }
        i += 1;
    }
    let cfg = GeneratorConfig::with_seed(seed);
    let num = |idx: usize| -> usize {
        positional
            .get(idx)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage())
    };
    // The streaming kinds write binary directly — O(1) memory, no
    // materialized EdgeList — whenever the output is a .msfb path and no
    // weight rescheme is requested.
    let kind = positional.first().copied();
    if matches!(kind, Some("rmat" | "powerlaw")) {
        let out = out_path.clone().unwrap_or_else(|| usage());
        if out.ends_with(".msfb") && weights.is_none() {
            let (n, m) = match kind {
                Some("rmat") => {
                    let rc = RmatConfig::graph500(num(1) as u32, num(2) as u64, seed);
                    let m = rmat_to_binary(&out, rc).unwrap_or_else(|e| {
                        eprintln!("cannot write {out}: {e}");
                        std::process::exit(1);
                    });
                    (rc.num_vertices(), m)
                }
                _ => {
                    let pc = PowerLawConfig::new(num(1) as u64, num(2) as u64, seed);
                    let m = powerlaw_to_binary(&out, pc).unwrap_or_else(|e| {
                        eprintln!("cannot write {out}: {e}");
                        std::process::exit(1);
                    });
                    (pc.n, m)
                }
            };
            eprintln!("wrote {out}: {n} vertices, {m} edges (binary, streamed)");
            return;
        }
    }
    let g = match kind {
        Some("rmat") => rmat_graph(RmatConfig::graph500(num(1) as u32, num(2) as u64, seed))
            .unwrap_or_else(|e| {
                eprintln!("rmat generation failed: {e}");
                std::process::exit(1);
            }),
        Some("powerlaw") => powerlaw_graph(PowerLawConfig::new(num(1) as u64, num(2) as u64, seed))
            .unwrap_or_else(|e| {
                eprintln!("powerlaw generation failed: {e}");
                std::process::exit(1);
            }),
        Some("random") => random_graph(&cfg, num(1), num(2)),
        Some("mesh") => mesh2d(&cfg, num(1), num(1)),
        Some("2d60") => mesh2d_random(&cfg, num(1), num(1), 0.6),
        Some("3d40") => mesh3d_random(&cfg, num(1), num(1), num(1), 0.4),
        Some("geometric") => geometric_knn(&cfg, num(1), num(2)),
        Some(s @ ("str0" | "str1" | "str2" | "str3")) => {
            let kind = match s {
                "str0" => StructuredKind::Str0,
                "str1" => StructuredKind::Str1,
                "str2" => StructuredKind::Str2,
                _ => StructuredKind::Str3,
            };
            structured(&cfg, kind, num(1))
        }
        _ => usage(),
    };
    let g = match weights {
        Some(scheme) => assign_weights(&g, scheme, seed),
        None => g,
    };
    let out_path = out_path.unwrap_or_else(|| usage());
    if out_path.ends_with(".msfb") {
        binfmt::write_binary(&g, &out_path).expect("write graph");
    } else {
        let out = BufWriter::new(File::create(&out_path).expect("create output"));
        io::write_dimacs(&g, out).expect("write graph");
    }
    eprintln!(
        "wrote {}: {} vertices, {} edges",
        out_path,
        g.num_vertices(),
        g.num_edges()
    );
}

/// `msf convert <input> <output> [--to bin|dimacs]` — translate between the
/// DIMACS text format and the msfb binary format. Without `--to`, the
/// direction is inferred: binary input → DIMACS, text input → binary.
fn convert(args: &[String]) {
    let mut to: Option<&str> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--to" => {
                i += 1;
                to = Some(match args.get(i).map(String::as_str) {
                    Some(t @ ("bin" | "dimacs")) => t,
                    _ => usage(),
                });
            }
            s => positional.push(s),
        }
        i += 1;
    }
    let (input, output) = match positional.as_slice() {
        [a, b] => (*a, *b),
        _ => usage(),
    };
    let input_is_bin = binfmt::is_binary_file(input).unwrap_or_else(|e| {
        eprintln!("cannot open {input}: {e}");
        std::process::exit(1);
    });
    let to = to.unwrap_or(if input_is_bin { "dimacs" } else { "bin" });
    let g = load(input);
    let res = if to == "bin" {
        binfmt::write_binary(&g, output)
    } else {
        File::create(output).and_then(|f| io::write_dimacs(&g, BufWriter::new(f)))
    };
    res.unwrap_or_else(|e| {
        eprintln!("cannot write {output}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "converted {input} -> {output} ({to}): {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
}

/// Benchmark inputs: one representative graph per generator family the
/// paper sweeps (random, mesh, structured). The large tier swaps in the
/// scale-leap inputs instead: an R-MAT graph that travels through the
/// binary on-disk format (stream-write, mmap-load) before being timed, and
/// a 2M-vertex uniform random graph.
fn bench_inputs(scale: msf_bench::Scale, seed: u64) -> Vec<(&'static str, String, EdgeList)> {
    let n = scale.n();
    let cfg = GeneratorConfig::with_seed(seed);
    if scale == msf_bench::Scale::Large {
        let rc = RmatConfig::graph500(20, 8, seed);
        let path = std::env::temp_dir().join(format!("msf-bench-rmat-{}.msfb", std::process::id()));
        let rmat = rmat_to_binary(&path, rc)
            .and_then(|_| binfmt::BinGraph::open(&path))
            .and_then(|bin| bin.to_edge_list())
            .unwrap_or_else(|e| {
                eprintln!("cannot prepare the rmat binary input: {e}");
                std::process::exit(1);
            });
        std::fs::remove_file(&path).ok();
        return vec![
            (
                "rmat",
                format!("rmat scale=20 ef=8 seed={seed} (msfb roundtrip)"),
                rmat,
            ),
            (
                "random",
                format!("random n={n} m=2n"),
                random_graph(&cfg, n, 2 * n),
            ),
        ];
    }
    let side = (n as f64).sqrt().round() as usize;
    vec![
        (
            "random",
            format!("random n={n} m=6n"),
            random_graph(&cfg, n, 6 * n),
        ),
        (
            "mesh",
            format!("mesh {side}x{side}"),
            mesh2d(&cfg, side, side),
        ),
        (
            "structured",
            format!("str2 n={n}"),
            structured(&cfg, StructuredKind::Str2, n),
        ),
    ]
}

/// What the serve-mode bench measurement records.
struct ServeBenchEntry {
    graph: String,
    algorithm: String,
    first_wall_ns: u64,
    repeat_wall_ns: u64,
    repeat_cache_hit: bool,
    checksum: u64,
}

/// Serve the first bench input from an in-process daemon twice: the first
/// compute populates the contracted-intermediate cache, the repeat serves
/// round 1 from it. Both must produce the identical unique forest.
fn serve_bench_entry(scale: msf_bench::Scale, seed: u64) -> ServeBenchEntry {
    use msf_server::proto::{Op, Request, Response};
    let (_, name, g) = bench_inputs(scale, seed)
        .into_iter()
        .next()
        .expect("bench inputs are never empty");
    let server = msf_server::Server::new(msf_server::ServerConfig::default());
    server.registry.put("bench-serve", g);
    let mut req = Request::op(Op::Compute);
    req.graph = "bench-serve".into();
    let run = |label: &str| match server.handle(&req) {
        Response::Computed(r) => r,
        other => {
            eprintln!("serve bench {label} compute failed: {other:?}");
            std::process::exit(1);
        }
    };
    let first = run("first");
    let repeat = run("repeat");
    if first.checksum != repeat.checksum {
        eprintln!(
            "serve bench: repeat compute diverged (checksum {:016x} vs {:016x})",
            first.checksum, repeat.checksum
        );
        std::process::exit(1);
    }
    eprintln!(
        "serve: first {:.3} ms, repeat {:.3} ms (round cache {})",
        first.wall_ns as f64 / 1e6,
        repeat.wall_ns as f64 / 1e6,
        if repeat.round_cache_hit {
            "hit"
        } else {
            "miss"
        }
    );
    ServeBenchEntry {
        graph: name,
        algorithm: repeat.algorithm.clone(),
        first_wall_ns: first.wall_ns,
        repeat_wall_ns: repeat.wall_ns,
        repeat_cache_hit: repeat.round_cache_hit,
        checksum: repeat.checksum,
    }
}

fn bench(args: &[String]) {
    let mut scale = msf_bench::Scale::Default;
    let mut seed = 2026u64;
    let mut repeats = 1usize;
    let mut json = false;
    let mut do_certify = false;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| msf_bench::Scale::parse(s))
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--json" => json = true,
            "--certify" => do_certify = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if trace_path.is_some() {
        obs::set_enabled(true);
        let _ = obs::drain();
    }
    // The bench report depends on the metrics registry (phase histograms)
    // and the counting allocator (Bor-AL vs Bor-ALM heap traffic), so both
    // are forced on regardless of MSF_METRICS / MSF_ALLOC_STATS.
    obs::metrics::set_enabled(true);
    obs::alloc::set_enabled(true);
    // Pre-register the lock-free contention counters so the report always
    // carries them — an uncontended run surfaces an explicit 0, not an
    // absent key (the registry is name-keyed, so these handles alias the
    // ones inside msf-primitives).
    static WRITE_MIN_RETRY: obs::metrics::LazyCounter =
        obs::metrics::LazyCounter::new("atomic.write_min.cas_retry");
    static HOOK_RETRY: obs::metrics::LazyCounter =
        obs::metrics::LazyCounter::new("unionfind.hook.cas_retry");
    WRITE_MIN_RETRY.add(0);
    HOOK_RETRY.add(0);
    // Likewise the bandwidth-accounting pair: the fused-kernel byte counter
    // and the per-round live-supervertex histogram always appear in the
    // report, even for a sweep whose inputs never reach a fused kernel.
    static FUSED_BYTES: obs::metrics::LazyCounter =
        obs::metrics::LazyCounter::new("kernel.fused_bytes_read");
    static ROUND_LIVE: obs::metrics::LazyHistogram =
        obs::metrics::LazyHistogram::new("boruvka.round_live_vertices");
    FUSED_BYTES.add(0);
    ROUND_LIVE.touch();
    // And the profiler's bookkeeping trio: `--json` consumers get stable
    // keys whether or not MSF_PROFILE was set for this run.
    static PROFILE_SAMPLES: obs::metrics::LazyCounter =
        obs::metrics::LazyCounter::new("profile.samples");
    static PROFILE_DROPPED: obs::metrics::LazyCounter =
        obs::metrics::LazyCounter::new("profile.dropped");
    static PROFILE_WAKEUPS: obs::metrics::LazyCounter =
        obs::metrics::LazyCounter::new("profile.wakeups");
    PROFILE_SAMPLES.add(0);
    PROFILE_DROPPED.add(0);
    PROFILE_WAKEUPS.add(0);

    let scale_name = match scale {
        msf_bench::Scale::Large => "large",
        msf_bench::Scale::Paper => "paper",
        msf_bench::Scale::Default => "default",
        msf_bench::Scale::Smoke => "smoke",
    };

    // Each entry: (generator family, graph name, |V|, |E|, per-algorithm
    // sweeps with the heap traffic each sweep induced and whether the
    // forest was certified minimum).
    type AlgoSweeps = Vec<(
        Algorithm,
        Vec<(msf_bench::Measurement, f64)>,
        obs::alloc::AllocStats,
        bool,
    )>;
    let mut report: Vec<(&'static str, String, usize, usize, AlgoSweeps)> = Vec::new();
    for (family, name, g) in bench_inputs(scale, seed) {
        eprintln!(
            "bench: {name} ({} vertices, {} edges)",
            g.num_vertices(),
            g.num_edges()
        );
        let mut sweeps = Vec::new();
        for algo in Algorithm::PARALLEL {
            // Bracket the sweep with allocator snapshots; rebasing the peak
            // makes `peak_bytes` the high-water mark of *this* sweep.
            obs::alloc::reset_peak();
            let before = obs::alloc::stats();
            let sweep = msf_bench::sweep_min_of(&g, algo, repeats);
            let alloc_delta = obs::alloc::stats().since(&before);
            for (m, est) in &sweep {
                eprintln!(
                    "  {algo} p={}: wall {:.4}s, est {:.4}s (modeled cost {})",
                    m.threads, m.wall_seconds, est, m.modeled_cost
                );
            }
            // --certify proves the recorded forest minimum from the
            // cycle property (widest sweep point), so the committed
            // trajectory numbers are certified, not just recorded.
            let certified = do_certify && {
                let (m, _) = sweep.last().expect("sweep is never empty");
                match msf_core::certify::certify_msf_with(&g, &m.result, m.threads) {
                    Ok(_) => true,
                    Err(v) => {
                        eprintln!("  {algo}: CERTIFICATE REJECTED — {v}");
                        std::process::exit(1);
                    }
                }
            };
            if certified {
                eprintln!("  {algo}: forest certified minimum ✓");
            }
            sweeps.push((algo, sweep, alloc_delta, certified));
        }
        report.push((family, name, g.num_vertices(), g.num_edges(), sweeps));
    }

    // The paper's §2.2 claim, measured: Bor-ALM's arena recycling should
    // show orders of magnitude fewer allocator calls than Bor-AL.
    eprintln!();
    eprintln!("heap traffic per algorithm sweep (counting allocator):");
    eprintln!(
        "  {:<28} {:<16} {:>12} {:>12} {:>12} {:>12}",
        "graph", "algorithm", "allocs", "frees", "alloc MiB", "peak MiB"
    );
    for (_, name, _, _, sweeps) in &report {
        for (algo, _, a, _) in sweeps {
            eprintln!(
                "  {:<28} {:<16} {:>12} {:>12} {:>12.2} {:>12.2}",
                name,
                algo.to_string(),
                a.allocs,
                a.frees,
                a.allocated_bytes as f64 / (1 << 20) as f64,
                a.peak_bytes as f64 / (1 << 20) as f64
            );
        }
    }

    if let Some(trace_path) = trace_path {
        finish_trace(&trace_path, false);
    }
    if !json {
        return;
    }
    // Host and pool blocks are captured only now, AFTER every sweep: the
    // pool lazily starts on first parallel use, so sampling its width
    // up front would record the pre-warm-up default (width 1 / 0 threads).
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let pool_width = msf_pool::width();
    let sequential = msf_pool::sequential_env();
    // Serve-mode entry: an in-process daemon serving the first bench graph.
    // The first compute pays the initial Borůvka round; the repeat serves
    // it from the contracted-intermediate cache — the delta is the benefit
    // a resident daemon offers over the offline CLI, measured in the same
    // report that tracks the offline numbers.
    let serve = serve_bench_entry(scale, seed);
    // One source of truth: fold the pool's native counters into the metrics
    // registry, so the report's `metrics` block and the daemon's scrape
    // endpoint read the same `pool.*` names out of the same snapshot.
    msf_pool::publish_metrics();
    let metrics = obs::metrics::snapshot();
    let mem = obs::alloc::stats();
    // Hand-rolled JSON (no serde in the offline image). Every emitted string
    // is generated here and contains no characters needing escapes.
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"suite\": \"msf-bench\",\n");
    doc.push_str(&format!(
        "  \"schema_version\": {},\n",
        msf_bench::regress::SCHEMA_VERSION
    ));
    doc.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    doc.push_str(&format!("  \"n\": {},\n", scale.n()));
    doc.push_str(&format!("  \"seed\": {seed},\n"));
    doc.push_str(&format!("  \"repeats\": {repeats},\n"));
    doc.push_str("  \"host\": {\n");
    doc.push_str(&format!("    \"available_parallelism\": {cores},\n"));
    doc.push_str(&format!("    \"pool_width\": {pool_width},\n"));
    doc.push_str(&format!("    \"sequential\": {sequential},\n"));
    doc.push_str(&format!(
        "    \"proc_sweep\": [{}]\n",
        msf_bench::PROC_SWEEP.map(|p| p.to_string()).join(", ")
    ));
    doc.push_str("  },\n");
    doc.push_str("  \"serve\": {\n");
    doc.push_str(&format!("    \"graph\": \"{}\",\n", serve.graph));
    doc.push_str(&format!("    \"algorithm\": \"{}\",\n", serve.algorithm));
    doc.push_str(&format!(
        "    \"first_wall_ns\": {},\n",
        serve.first_wall_ns
    ));
    doc.push_str(&format!(
        "    \"repeat_wall_ns\": {},\n",
        serve.repeat_wall_ns
    ));
    doc.push_str(&format!(
        "    \"repeat_cache_hit\": {},\n",
        serve.repeat_cache_hit
    ));
    doc.push_str(&format!("    \"checksum\": \"{:016x}\"\n", serve.checksum));
    doc.push_str("  },\n");
    push_metrics_json(&mut doc, &metrics);
    doc.push_str("  \"memory\": {\n");
    doc.push_str(&format!("    \"allocs\": {},\n", mem.allocs));
    doc.push_str(&format!("    \"frees\": {},\n", mem.frees));
    doc.push_str(&format!(
        "    \"allocated_bytes\": {},\n",
        mem.allocated_bytes
    ));
    doc.push_str(&format!("    \"freed_bytes\": {},\n", mem.freed_bytes));
    doc.push_str(&format!("    \"live_bytes\": {},\n", mem.live_bytes));
    doc.push_str(&format!("    \"peak_bytes\": {},\n", mem.peak_bytes));
    doc.push_str(&format!(
        "    \"peak_rss_kb\": {}\n",
        obs::alloc::peak_rss_kb()
    ));
    doc.push_str("  },\n");
    doc.push_str("  \"graphs\": [\n");
    for (gi, (family, name, vertices, edges, sweeps)) in report.iter().enumerate() {
        doc.push_str("    {\n");
        doc.push_str(&format!("      \"name\": \"{name}\",\n"));
        doc.push_str(&format!("      \"generator\": \"{family}\",\n"));
        doc.push_str(&format!("      \"vertices\": {vertices},\n"));
        doc.push_str(&format!("      \"edges\": {edges},\n"));
        doc.push_str("      \"algorithms\": [\n");
        for (ai, (algo, sweep, alloc, certified)) in sweeps.iter().enumerate() {
            let deterministic = *algo != Algorithm::MstBc;
            doc.push_str("        {\n");
            doc.push_str(&format!("          \"algorithm\": \"{algo}\",\n"));
            doc.push_str(&format!("          \"certified\": {certified},\n"));
            doc.push_str(&format!(
                "          \"alloc\": {{\"allocs\": {}, \"frees\": {}, \"allocated_bytes\": {}, \
                 \"peak_bytes\": {}}},\n",
                alloc.allocs, alloc.frees, alloc.allocated_bytes, alloc.peak_bytes
            ));
            doc.push_str("          \"runs\": [\n");
            for (ri, (m, est)) in sweep.iter().enumerate() {
                doc.push_str(&format!(
                    "            {{\"p\": {}, \"wall_seconds\": {:.6}, \"est_seconds\": {:.6}, \
                     \"modeled_cost\": {}, \"modeled_deterministic\": {}, \"forest_edges\": {}, \
                     \"total_weight\": {:.6}}}{}\n",
                    m.threads,
                    m.wall_seconds,
                    est,
                    m.modeled_cost,
                    deterministic,
                    m.result.edges.len(),
                    m.result.total_weight,
                    if ri + 1 < sweep.len() { "," } else { "" }
                ));
            }
            doc.push_str("          ]\n");
            doc.push_str(&format!(
                "        }}{}\n",
                if ai + 1 < sweeps.len() { "," } else { "" }
            ));
        }
        doc.push_str("      ]\n");
        doc.push_str(&format!(
            "    }}{}\n",
            if gi + 1 < report.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ]\n");
    doc.push_str("}\n");
    match out_path {
        Some(path) => {
            std::fs::write(&path, doc).expect("write bench JSON");
            eprintln!("bench report written to {path}");
        }
        None => print!("{doc}"),
    }
}

/// Append the `"metrics"` block: every counter, gauge, and histogram in the
/// registry, histograms summarized as count/sum/max/mean and the three
/// standard percentiles.
fn push_metrics_json(doc: &mut String, metrics: &obs::metrics::MetricsSnapshot) {
    doc.push_str("  \"metrics\": {\n");
    doc.push_str("    \"counters\": {");
    for (i, (name, value)) in metrics.counters.iter().enumerate() {
        doc.push_str(&format!(
            "{}\"{name}\": {value}",
            if i == 0 { "" } else { ", " }
        ));
    }
    doc.push_str("},\n");
    doc.push_str("    \"gauges\": {");
    for (i, (name, value, peak)) in metrics.gauges.iter().enumerate() {
        doc.push_str(&format!(
            "{}\"{name}\": {{\"value\": {value}, \"peak\": {peak}}}",
            if i == 0 { "" } else { ", " }
        ));
    }
    doc.push_str("},\n");
    doc.push_str("    \"histograms\": {\n");
    for (i, h) in metrics.histograms.iter().enumerate() {
        let mean = if h.count > 0 { h.mean() } else { 0.0 };
        doc.push_str(&format!(
            "      \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.1}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}}}{}\n",
            h.name,
            h.count,
            h.sum,
            h.max,
            mean,
            h.p50(),
            h.p90(),
            h.p99(),
            if i + 1 < metrics.histograms.len() {
                ","
            } else {
                ""
            }
        ));
    }
    doc.push_str("    }\n");
    doc.push_str("  },\n");
}

fn regress_cmd(args: &[String]) {
    let mut baseline: Option<String> = None;
    let mut candidate: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut cfg = msf_bench::regress::RegressConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--candidate" => {
                i += 1;
                candidate = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--threshold" => {
                i += 1;
                cfg.threshold_pct = args
                    .get(i)
                    .and_then(|s| s.trim_end_matches('%').parse().ok())
                    .filter(|&t: &f64| t >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--min-wall" => {
                i += 1;
                cfg.min_wall_seconds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &f64| t >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    let (baseline, candidate) = match (baseline, candidate) {
        (Some(b), Some(c)) => (b, c),
        _ => usage(),
    };
    let read = |path: &str| -> msf_bench::json::Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        msf_bench::json::Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let base_doc = read(&baseline);
    let cand_doc = read(&candidate);
    let report = msf_bench::regress::compare(&base_doc, &cand_doc, &cfg).unwrap_or_else(|e| {
        eprintln!("regress: {e}");
        std::process::exit(2);
    });
    let md = report.markdown(&cfg);
    print!("{md}");
    if let Some(path) = out_path {
        std::fs::write(&path, &md).expect("write regress report");
        eprintln!("regress report written to {path}");
    }
    if report.regressions() > 0 {
        std::process::exit(1);
    }
}

fn info(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let mut lines = Vec::new();
    let g = if binfmt::is_binary_file(path.as_str()).unwrap_or(false) {
        // Open (and so validate) the file once: the header lines and the
        // edge list both come from this one `BinGraph`.
        let parsed = binfmt::BinGraph::open(path.as_str()).and_then(|bin| {
            lines.push(format!("format:      msfb binary v{}", binfmt::VERSION));
            lines.push(format!(
                "ids:         {}",
                if bin.wide() { "u64" } else { "u32" }
            ));
            lines.push(format!(
                "sorted:      {}",
                if bin.header().weight_sorted() {
                    "by weight"
                } else {
                    "no"
                }
            ));
            lines.push(format!(
                "backing:     {}",
                if bin.is_mmap() { "mmap" } else { "heap" }
            ));
            bin.to_edge_list()
        });
        parsed.unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    } else {
        lines.push("format:      dimacs text".to_string());
        load(path)
    };
    lines.push(format!("file:        {path}"));
    lines.push(format!("vertices:    {}", g.num_vertices()));
    lines.push(format!("edges:       {}", g.num_edges()));
    lines.push(format!("density m/n: {:.2}", g.density()));
    lines.push(format!(
        "components:  {}",
        msf_graph::validate::component_count(&g)
    ));
    lines.push(format!(
        "simple:      {}",
        match msf_graph::validate::check_simple(&g) {
            Ok(()) => "yes".to_string(),
            Err(e) => format!("no ({e})"),
        }
    ));
    // A reader that stops early (`msf info g.gr | head -3`) closes the pipe;
    // that is the reader's choice, not a failure of this command.
    let report = format!("{}\n", lines.join("\n"));
    if let Err(e) = std::io::stdout().lock().write_all(report.as_bytes()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(2);
        }
    }
}
