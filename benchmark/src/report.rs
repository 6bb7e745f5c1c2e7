//! Turning samples into reported metrics: the one-line JSON result, the
//! human table, result files, and `compare`.

use std::fmt::Write as _;

use msf_bench::json::Json;

use crate::host::{Bandwidth, Host};
use crate::stats::{self, Summary};
use crate::{catalog, Outcome};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median, quartiles and sample count.
    pub summary: Summary,
}

/// The metrics a run reports, in catalog order: every end-to-end metric
/// untraced, every per-layer metric traced. A per-layer metric the workload
/// did not exercise reports 0.
pub fn rows(out: &Outcome, trace: bool) -> Vec<Row> {
    let catalog = if trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    catalog
        .into_iter()
        .map(|(name, unit)| {
            let summary = out
                .samples
                .0
                .get(name.as_str())
                .and_then(|v| stats::summarize(v))
                .filter(|s| s.median.is_finite())
                .unwrap_or_else(|| Summary::exact(0.0));
            Row {
                name,
                unit: unit.into(),
                summary,
            }
        })
        .collect()
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// The last line of a run's standard output.
pub fn result_line(out: &Outcome, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&r.name),
                num(r.summary.median),
                quote(&r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.ledger.attempted.max(1),
        out.ledger.failed,
        metrics.join(", ")
    )
}

/// One workload run in a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Generation seed of this run.
    pub seed: u64,
    /// Every output right and every gate passed.
    pub correct: bool,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs wrong.
    pub failed: u64,
    /// Reported metrics.
    pub rows: Vec<Row>,
}

impl RunResult {
    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A result file: the host block, the settings, and a set of workload runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDoc {
    /// What it ran on.
    pub host: Host,
    /// Bandwidth probe, when one ran.
    pub bandwidth: Option<Bandwidth>,
    /// Length of each measurement loop.
    pub seconds: f64,
    /// Traced runs.
    pub trace: bool,
    /// `full` or `smoke`.
    pub scale: String,
    /// The runs, in the order they ran.
    pub runs: Vec<RunResult>,
}

impl ResultDoc {
    /// Workload names in first-run order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.runs {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// A metric of one workload across the set. With several runs, the
    /// median and quartiles are those of the run medians, so the spread is
    /// run-to-run; a single run reports its own within-run quartiles.
    pub fn summary(&self, workload: &str, metric: &str) -> Option<Summary> {
        let rows: Vec<&Row> = self
            .runs
            .iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.rows.iter().find(|row| row.name == metric))
            .collect();
        match rows.as_slice() {
            [] => None,
            [one] => Some(one.summary),
            many => stats::summarize(&many.iter().map(|r| r.summary.median).collect::<Vec<_>>()),
        }
    }

    /// Failed over attempted outputs of one workload across the set.
    pub fn failed_frac(&self, workload: &str) -> f64 {
        let (failed, attempted) = self
            .runs
            .iter()
            .filter(|r| r.workload == workload)
            .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
        failed as f64 / attempted.max(1) as f64
    }

    /// Serialize.
    pub fn to_json(&self) -> String {
        let h = &self.host;
        let mut s = String::from("{\n  \"schema\": \"msf-benchmark/1\",\n");
        let _ = writeln!(
            s,
            "  \"host\": {{\"nproc\": {}, \"p\": {}, \"cpu_model\": {}, \"kernel\": {}, \
             \"commit\": {}, \"llc_bytes\": {}}},",
            h.nproc,
            h.p,
            quote(&h.cpu_model),
            quote(&h.kernel),
            quote(&h.commit),
            h.llc_bytes
        );
        if let Some(b) = &self.bandwidth {
            let _ = writeln!(
                s,
                "  \"bandwidth\": {{\"array_bytes\": {}, \"llc_bytes\": {}, \"copy_gbps\": {}, \
                 \"triad_gbps\": {}}},",
                b.array_bytes,
                h.llc_bytes,
                num(b.copy_gbps),
                num(b.triad_gbps)
            );
        }
        let _ = writeln!(
            s,
            "  \"seconds\": {}, \"trace\": {}, \"scale\": {},",
            num(self.seconds),
            self.trace,
            quote(&self.scale)
        );
        s.push_str("  \"runs\": [\n");
        for (i, w) in self.runs.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"workload\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \
                 \"failed\": {}, \"failed_frac\": {}, \"metrics\": [",
                quote(&w.workload),
                w.seed,
                w.correct,
                w.attempted,
                w.failed,
                num(w.failed_frac())
            );
            for (j, r) in w.rows.iter().enumerate() {
                let _ = write!(
                    s,
                    "      {{\"name\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \
                     \"n\": {}}}",
                    quote(&r.name),
                    quote(&r.unit),
                    num(r.summary.median),
                    num(r.summary.q1),
                    num(r.summary.q3),
                    r.summary.n
                );
                s.push_str(if j + 1 < w.rows.len() { ",\n" } else { "\n" });
            }
            s.push_str(if i + 1 < self.runs.len() {
                "    ]},\n"
            } else {
                "    ]}\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse what [`ResultDoc::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<ResultDoc, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let field = |v: &Json, k: &str| -> Result<Json, String> {
            v.get(k)
                .cloned()
                .ok_or_else(|| format!("missing field '{k}'"))
        };
        let f64_of = |v: &Json, k: &str| -> Result<f64, String> {
            field(v, k)?
                .as_f64()
                .ok_or_else(|| format!("'{k}' is not a number"))
        };
        let str_of = |v: &Json, k: &str| -> Result<String, String> {
            field(v, k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{k}' is not a string"))
        };
        let bool_of = |v: &Json, k: &str| -> Result<bool, String> {
            field(v, k)?
                .as_bool()
                .ok_or_else(|| format!("'{k}' is not a boolean"))
        };
        let h = field(&doc, "host")?;
        let host = Host {
            nproc: f64_of(&h, "nproc")? as usize,
            p: f64_of(&h, "p")? as usize,
            cpu_model: str_of(&h, "cpu_model")?,
            kernel: str_of(&h, "kernel")?,
            commit: str_of(&h, "commit")?,
            llc_bytes: f64_of(&h, "llc_bytes")? as u64,
        };
        let bandwidth = match doc.get("bandwidth") {
            Some(b) => Some(Bandwidth {
                array_bytes: f64_of(b, "array_bytes")? as u64,
                copy_gbps: f64_of(b, "copy_gbps")?,
                triad_gbps: f64_of(b, "triad_gbps")?,
            }),
            None => None,
        };
        let mut runs = Vec::new();
        for w in field(&doc, "runs")?.items() {
            let mut rows = Vec::new();
            for r in field(w, "metrics")?.items() {
                rows.push(Row {
                    name: str_of(r, "name")?,
                    unit: str_of(r, "unit")?,
                    summary: Summary {
                        median: f64_of(r, "median")?,
                        q1: f64_of(r, "q1")?,
                        q3: f64_of(r, "q3")?,
                        n: f64_of(r, "n")? as usize,
                    },
                });
            }
            runs.push(RunResult {
                workload: str_of(w, "workload")?,
                seed: f64_of(w, "seed")? as u64,
                correct: bool_of(w, "correct")?,
                attempted: f64_of(w, "attempted")? as u64,
                failed: f64_of(w, "failed")? as u64,
                rows,
            });
        }
        Ok(ResultDoc {
            host,
            bandwidth,
            seconds: f64_of(&doc, "seconds")?,
            trace: bool_of(&doc, "trace")?,
            scale: str_of(&doc, "scale")?,
            runs,
        })
    }
}

/// The human-readable table for one run.
pub fn table(w: &RunResult) -> String {
    let mut s = format!(
        "== {} seed {}: {} ({} of {} checked outputs failed, failed_frac {})\n",
        w.workload,
        w.seed,
        if w.correct { "correct" } else { "INCORRECT" },
        w.failed,
        w.attempted,
        w.failed_frac()
    );
    let _ = writeln!(
        s,
        "{:<40} {:>14} {:>14} {:>14} {:>6}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for r in &w.rows {
        let _ = writeln!(
            s,
            "{:<40} {:>14.6} {:>14.6} {:>14.6} {:>6}  {}",
            r.name, r.summary.median, r.summary.q1, r.summary.q3, r.summary.n, r.unit
        );
    }
    s
}

/// Direction and regression bound of an end-to-end metric, from
/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when lower is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// Read the end-to-end bounds from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| e.to_string())?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("an end_to_end entry has no name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end entry has no bound")?,
            })
        })
        .collect()
}

/// Outcome of comparing one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// A side's quartile spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against baseline `a`. The change is how much worse `b` is, as
/// a share of `a`'s median (negative when better).
pub fn verdict(a: &Summary, b: &Summary, bound: &Bound) -> (f64, Verdict) {
    let worse = if a.median == 0.0 {
        0.0
    } else if bound.lower_is_better {
        (b.median - a.median) / a.median
    } else {
        (a.median - b.median) / a.median
    };
    let v = if a.spread() > bound.bound || b.spread() > bound.bound {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, v)
}

/// Compare two result files metric by metric. Returns the report and
/// whether anything regressed (including new failures).
pub fn compare(a: &ResultDoc, b: &ResultDoc, bounds: &[Bound]) -> Result<(String, bool), String> {
    if !a.host.same_machine(&b.host) {
        return Err(format!(
            "refusing to compare results from different hosts or P: {:?} vs {:?}",
            a.host, b.host
        ));
    }
    let runs = |d: &ResultDoc| d.runs.len() / d.workloads().len().max(1);
    let mut s = format!(
        "A: commit {}, {} run(s) per workload   B: commit {}, {} run(s) per workload   \
         (P = {}, {})\n",
        a.host.commit,
        runs(a),
        b.host.commit,
        runs(b),
        a.host.p,
        a.host.cpu_model
    );
    let _ = writeln!(
        s,
        "{:<16} {:<26} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "worse"
    );
    let mut regressed = false;
    for w in a.workloads() {
        if !b.workloads().contains(&w) {
            continue;
        }
        for bound in bounds {
            let (Some(sa), Some(sb)) = (a.summary(w, &bound.name), b.summary(w, &bound.name))
            else {
                continue;
            };
            let (worse, v) = verdict(&sa, &sb, bound);
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                s,
                "{:<16} {:<26} {:>12.6} {:>25} {:>12.6} {:>25} {:>+7.1}%  {}",
                w,
                bound.name,
                sa.median,
                format!("[{:.6}, {:.6}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.6}, {:.6}]", sb.q1, sb.q3),
                worse * 100.0,
                v.label()
            );
        }
        let (fa, fb) = (a.failed_frac(w), b.failed_frac(w));
        regressed |= fb > fa;
        let _ = writeln!(
            s,
            "{:<16} {:<26} {:>12} {:>25} {:>12} {:>25} {:>8}  {}",
            w,
            "failed_frac",
            num(fa),
            "",
            num(fb),
            "",
            "",
            if fb > fa { "regressed" } else { "ok" }
        );
    }
    Ok((s, regressed))
}
