//! Self-tests of the benchmark: its statistics, its gates, its correctness
//! check, and the smoke scale of every workload.

use std::path::PathBuf;
use std::process::Command;

use msf_bench::json::Json;
use msf_benchmark::host::{self, Calibration, Host};
use msf_benchmark::report::{self, Bound, ResultDoc, Row, RunResult, Verdict};
use msf_benchmark::stats::{self, Summary};
use msf_benchmark::trace::{self, Span};
use msf_benchmark::{catalog, Workload};

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_msf-benchmark")
}

fn temp_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("test temp dir");
    dir.join(name)
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&ten), Some((2.75, 5.5, 8.25)));
    assert_eq!(stats::median(&ten), Some(5.5));
    // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(
        stats::quartiles(&[4.0, 1.0, 3.0, 2.0]),
        Some((1.25, 2.5, 3.75))
    );
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), Some(2.0));
    let one = stats::summarize(&[7.0]).unwrap();
    assert_eq!((one.median, one.q1, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    assert_eq!(stats::summarize(&[]), None);
    let s = stats::summarize(&ten).unwrap();
    assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn normalisation_cancels_host_speed() {
    // At half the reference speed the calibration sort and the cell both
    // take twice as long; the normalised time is the same.
    let r = host::REFERENCE_CALIBRATION_S;
    assert!((Calibration::normalise(0.2, r) - 0.2).abs() < 1e-12);
    assert!((Calibration::normalise(0.4, 2.0 * r) - 0.2).abs() < 1e-12);
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "x",
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn layer_coverage_gate_is_ninety_five_percent() {
    // Root 0 is 96% covered by two children; root 3 only 90% by one.
    let spans = vec![
        span(None, 0, 100),
        span(Some(0), 0, 50),
        span(Some(0), 54, 100),
        span(None, 200, 300),
        span(Some(3), 200, 290),
        // A grandchild counts toward its parent, not the root.
        span(Some(4), 200, 201),
    ];
    let cov = trace::coverage(&spans);
    assert_eq!(cov.len(), 2);
    assert!((cov[0].1 - 0.96).abs() < 1e-12 && cov[0].1 >= trace::MIN_COVERAGE);
    assert!((cov[1].1 - 0.90).abs() < 1e-12 && cov[1].1 < trace::MIN_COVERAGE);
    // Self time: 4 ns of root 0 and 10 ns of root 3.
    assert!((trace::unattributed_seconds(&spans) - 14e-9).abs() < 1e-15);
}

fn bound(name: &str, lower: bool, b: f64) -> Bound {
    Bound {
        name: name.into(),
        lower_is_better: lower,
        bound: b,
    }
}

fn summary(median: f64, q1: f64, q3: f64) -> Summary {
    Summary {
        median,
        q1,
        q3,
        n: 10,
    }
}

#[test]
fn compare_verdicts() {
    let b = bound("forest_s.mst-bc", true, 0.1);
    let base = summary(1.0, 0.98, 1.02);
    assert_eq!(
        report::verdict(&base, &summary(1.05, 1.03, 1.07), &b).1,
        Verdict::Ok
    );
    assert_eq!(
        report::verdict(&base, &summary(1.2, 1.18, 1.22), &b).1,
        Verdict::Regressed
    );
    assert_eq!(
        report::verdict(&base, &summary(1.0, 0.8, 1.2), &b).1,
        Verdict::Unresolved
    );
    // Higher-is-better metrics regress when they fall.
    let gbps = bound("host.triad_gbps", false, 0.1);
    let (worse, v) = report::verdict(&base, &summary(0.8, 0.79, 0.81), &gbps);
    assert!((worse - 0.2).abs() < 1e-12);
    assert_eq!(v, Verdict::Regressed);
}

fn host(p: usize) -> Host {
    Host {
        nproc: 2,
        p,
        cpu_model: "test cpu".into(),
        kernel: "test".into(),
        commit: "abc".into(),
        llc_bytes: 1 << 20,
    }
}

/// A result file with one `rmat17` run per median, each with a wide
/// within-run spread.
fn doc(host: Host, medians: &[f64]) -> ResultDoc {
    ResultDoc {
        host,
        bandwidth: None,
        seconds: 1.0,
        trace: false,
        scale: "smoke".into(),
        runs: medians
            .iter()
            .enumerate()
            .map(|(i, &m)| RunResult {
                workload: "rmat17".into(),
                seed: i as u64,
                correct: true,
                attempted: 10,
                failed: 0,
                rows: vec![Row {
                    name: "forest_s.mst-bc".into(),
                    unit: "s".into(),
                    summary: summary(m, m * 0.5, m * 1.5),
                }],
            })
            .collect(),
    }
}

#[test]
fn result_files_round_trip_and_compare_refuses_other_hosts() {
    let a = doc(host(2), &[1.0, 1.01, 0.99]);
    assert_eq!(ResultDoc::from_json(&a.to_json()).unwrap(), a);
    // Across a set, quartiles are those of the run medians: run-to-run.
    let s = a.summary("rmat17", "forest_s.mst-bc").unwrap();
    assert_eq!((s.median, s.n), (1.0, 3));
    assert!(s.spread() < 0.05);
    let bounds = [bound("forest_s.mst-bc", true, 0.1)];
    let (text, regressed) = report::compare(&a, &doc(host(2), &[1.5, 1.5, 1.5]), &bounds).unwrap();
    assert!(regressed && text.contains("regressed"), "{text}");
    let (text, regressed) =
        report::compare(&a, &doc(host(2), &[1.0, 1.02, 1.01]), &bounds).unwrap();
    assert!(!regressed && text.contains(" ok"), "{text}");
    // One run per side: its within-run spread (here 100%) is all there is.
    let (text, _) = report::compare(&doc(host(2), &[1.0]), &doc(host(2), &[1.0]), &bounds).unwrap();
    assert!(text.contains("unresolved"), "{text}");
    assert!(report::compare(&a, &doc(host(4), &[1.0]), &bounds).is_err());
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(catalog::end_to_end()));
    assert_eq!(listed("per_layer"), own(catalog::per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

fn last_line(stdout: &[u8]) -> Json {
    let text = String::from_utf8_lossy(stdout);
    Json::parse(text.lines().last().expect("a result line")).expect("result line is JSON")
}

#[test]
fn corrupted_reference_is_counted_as_failed_with_nonzero_exit() {
    let out_file = temp_file("corrupt.json");
    let out = Command::new(exe())
        .args([
            "--workload",
            "rmat17",
            "--smoke",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .arg("--corrupt-reference")
        .arg("--out")
        .arg(&out_file)
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(1));
    let line = last_line(&out.stdout);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    let failed = line.get("failed").and_then(Json::as_u64).unwrap();
    let attempted = line.get("attempted").and_then(Json::as_u64).unwrap();
    assert!(failed > 0 && failed == attempted, "{failed}/{attempted}");
    let doc = ResultDoc::from_json(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    assert_eq!(doc.failed_frac("rmat17"), 1.0);
}

#[test]
fn smoke_scale_runs_every_workload_correctly() {
    let out_file = temp_file("smoke.json");
    let started = std::time::Instant::now();
    let status = Command::new(exe())
        .args(["--smoke", "--seconds", "1", "--trace", "0", "--out"])
        .arg(&out_file)
        .status()
        .expect("run the benchmark");
    assert!(status.success());
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke scale took {:?}",
        started.elapsed()
    );
    let doc = ResultDoc::from_json(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    assert_eq!(doc.workloads(), Workload::ALL.map(Workload::name));
    for w in &doc.runs {
        assert!(
            w.correct && w.failed == 0 && w.attempted > 0,
            "{}",
            w.workload
        );
        let names: Vec<&str> = w.rows.iter().map(|r| r.name.as_str()).collect();
        let want = catalog::end_to_end();
        assert_eq!(
            names,
            want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        for r in &w.rows {
            assert!(
                r.summary.median > 0.0,
                "{} {} is {}",
                w.workload,
                r.name,
                r.summary.median
            );
        }
    }
}

#[test]
fn traced_smoke_run_reports_layers_with_full_span_coverage() {
    for w in Workload::ALL.map(Workload::name) {
        let out = Command::new(exe())
            .args([
                "--workload",
                w,
                "--smoke",
                "--seconds",
                "0.5",
                "--trace",
                "1",
            ])
            .output()
            .expect("run the benchmark");
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = last_line(&out.stdout);
        let metrics = line.get("metrics").unwrap();
        let value = |n: &str| {
            metrics
                .get(n)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{w}: {n} missing"))
        };
        for (name, _) in catalog::per_layer() {
            value(&name);
        }
        assert!(value("bench.span_coverage_min") >= trace::MIN_COVERAGE);
        let ingest = if w == "rmat17" {
            "graph.open_s"
        } else {
            "graph.parse_s"
        };
        for busy in [ingest, "core.compute_s.mst-bc", "certify.wall_s"] {
            assert!(value(busy) > 0.0, "{w}: {busy}");
        }
    }
}
