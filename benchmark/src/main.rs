//! `msf-benchmark` — the benchmark of record.
//!
//! ```sh
//! B="cargo run --release --manifest-path benchmark/Cargo.toml --"
//! # every workload, untraced, each run in a child process; a result file
//! $B --runs 3 --out benchmark/results/untraced.json
//! # the traced run: per-layer metrics and chrome traces beside the file
//! $B --trace 1 --out benchmark/results/traced.json
//! # one workload; the last line of stdout is its one-line JSON result
//! $B --workload rmat17 --seed 7 --seconds 25 --trace 0
//! # set two result files side by side
//! $B compare A.json B.json
//! ```
//!
//! Flags: `--workload NAME|all` (default all), `--seed N` (default 2026),
//! `--seconds S` (default 25), `--trace 0|1`, `--runs K` (runs per
//! workload with seeds `N..N+K`, default 1), `--smoke` (small inputs),
//! `--out FILE` (with `--append`, add to the runs already in it), and the
//! self-test switch `--corrupt-reference`, which makes every forest check
//! fail. Exit code 1 when any output is wrong or a gate fails, 2 on bad
//! usage.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use msf_benchmark::host::{self, Host};
use msf_benchmark::report::{self, ResultDoc, RunResult};
use msf_benchmark::{trace, Scale, Settings, Workload};

/// The benchmark package directory; work files and default trace output
/// live under it, so a run writes only inside its checkout.
const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    scale: Scale,
    out: Option<PathBuf>,
    append: bool,
    corrupt_reference: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  msf-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
         [--runs K] [--smoke] [--out FILE [--append]] [--corrupt-reference]\n  \
         msf-benchmark compare A.json B.json\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Options {
    let mut o = Options {
        workload: None,
        seed: 2026,
        seconds: 25.0,
        trace: false,
        runs: 1,
        scale: Scale::Full,
        out: None,
        append: false,
        corrupt_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                o.workload = match value() {
                    "all" => None,
                    w => Some(Workload::parse(w).unwrap_or_else(|| usage())),
                }
            }
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                o.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                o.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--runs" => {
                o.runs = value()
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--smoke" => o.scale = Scale::Smoke,
            "--out" => o.out = Some(PathBuf::from(value())),
            "--append" => o.append = true,
            "--corrupt-reference" => o.corrupt_reference = true,
            _ => usage(),
        }
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..]);
    }
    let o = parse(&args);
    // Pin the pool to P workers before anything starts it.
    std::env::set_var("MSF_POOL_THREADS", host::threads_p().to_string());
    let ok = match o.workload {
        Some(w) if o.runs == 1 => run_one(&o, w),
        _ => run_set(&o),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

fn repo_root() -> PathBuf {
    Path::new(PACKAGE_DIR).join("..")
}

fn work_dir() -> PathBuf {
    Path::new(PACKAGE_DIR).join(format!("work-{}", std::process::id()))
}

/// Where a traced run writes its chrome trace.
fn trace_path(w: Workload, seed: u64) -> PathBuf {
    Path::new(PACKAGE_DIR)
        .join("target/traces")
        .join(format!("{}-seed{seed}.trace.json", w.name()))
}

fn doc(o: &Options, bandwidth: Option<host::Bandwidth>, runs: Vec<RunResult>) -> ResultDoc {
    ResultDoc {
        host: Host::detect(&repo_root()),
        bandwidth,
        seconds: o.seconds,
        trace: o.trace,
        scale: o.scale.name().into(),
        runs,
    }
}

/// One workload in this process; prints the result line last on stdout.
fn run_one(o: &Options, w: Workload) -> bool {
    let dir = work_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return false;
    }
    let settings = Settings {
        workload: w,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        scale: o.scale,
        p: host::threads_p(),
        dir: dir.clone(),
        corrupt_reference: o.corrupt_reference,
    };
    let out = msf_benchmark::run(&settings);
    std::fs::remove_dir_all(&dir).ok();
    for why in &out.broken {
        eprintln!("FAILED: {why}");
    }
    let rows = report::rows(&out, o.trace);
    let result = RunResult {
        workload: w.name().into(),
        seed: o.seed,
        correct: out.correct(),
        attempted: out.ledger.attempted,
        failed: out.ledger.failed,
        rows: rows.clone(),
    };
    eprint!("{}", report::table(&result));
    if o.trace {
        let path = trace_path(w, o.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(&path, trace::chrome_json(&out.spans)));
        match written {
            Ok(()) => eprintln!("chrome trace written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &o.out {
        if let Err(e) = write_doc(o, path, doc(o, None, vec![result])) {
            eprintln!("cannot write {}: {e}", path.display());
            return false;
        }
    }
    println!("{}", report::result_line(&out, &rows));
    out.correct()
}

/// Write a result file; with `--append`, add the runs to the set already
/// in it, which must come from the same host and settings. Alternating
/// appends to two files builds two sets that drift hits alike.
fn write_doc(o: &Options, path: &Path, mut new: ResultDoc) -> Result<(), String> {
    if o.append && path.exists() {
        let old = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| ResultDoc::from_json(&t))?;
        let same = old.host.same_machine(&new.host)
            && (old.seconds, old.trace, &old.scale) == (new.seconds, new.trace, &new.scale);
        if !same {
            return Err("--append: the file holds runs from another host or settings".into());
        }
        new.runs.splice(0..0, old.runs);
        new.bandwidth = new.bandwidth.or(old.bandwidth);
    }
    std::fs::write(path, new.to_json()).map_err(|e| e.to_string())
}

/// A set of runs: `--runs` rounds over the chosen workloads, round-robin
/// so drift hits every workload alike, each run in a child process of its
/// own so peak memory and allocator state are per run.
fn run_set(o: &Options) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let work = work_dir();
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return false;
    }
    let workloads: Vec<Workload> = match o.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut ok = true;
    let mut runs = Vec::new();
    for seed in o.seed..o.seed + o.runs {
        for &w in &workloads {
            let child_out = work.join(format!("{}-{seed}.json", w.name()));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&child_out)
                .stdout(Stdio::null());
            if o.scale == Scale::Smoke {
                cmd.arg("--smoke");
            }
            if o.corrupt_reference {
                cmd.arg("--corrupt-reference");
            }
            ok &= matches!(cmd.status(), Ok(s) if s.success());
            if let (true, Some(out)) = (o.trace, &o.out) {
                // Keep each run's trace beside the result file.
                let to = out.with_extension(format!("{}-seed{seed}.trace.json", w.name()));
                if let Err(e) = std::fs::rename(trace_path(w, seed), &to) {
                    eprintln!("cannot move the trace to {}: {e}", to.display());
                }
            }
            match std::fs::read_to_string(&child_out)
                .map_err(|e| e.to_string())
                .and_then(|t| ResultDoc::from_json(&t))
            {
                Ok(d) => runs.extend(d.runs),
                Err(e) => {
                    eprintln!("{} seed {seed}: no result ({e})", w.name());
                    ok = false;
                }
            }
        }
    }
    std::fs::remove_dir_all(&work).ok();
    for r in &runs {
        print!("{}", report::table(r));
    }
    if let Some(path) = &o.out {
        // The probe's arrays are sized for the real host; smoke runs skip it.
        let bw = (o.scale == Scale::Full).then(|| host::probe_bandwidth(host::threads_p()));
        if let Err(e) = write_doc(o, path, doc(o, bw, runs)) {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

fn compare(args: &[String]) -> ! {
    let [a, b] = args else { usage() };
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| ResultDoc::from_json(&t).map_err(|e| format!("{p}: {e}")))
    };
    let bench = repo_root().join("BENCHMARK.json");
    let result = read(a).and_then(|da| {
        let db = read(b)?;
        let bounds = std::fs::read_to_string(&bench)
            .map_err(|e| format!("{}: {e}", bench.display()))
            .and_then(|t| report::bounds(&t))?;
        report::compare(&da, &db, &bounds)
    });
    match result {
        Ok((text, regressed)) => {
            print!("{text}");
            std::process::exit(if regressed { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("compare: {e}");
            std::process::exit(2);
        }
    }
}
