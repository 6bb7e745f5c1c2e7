//! Statistical benchmark-regression harness: compare two `msf bench --json`
//! reports cell-by-cell and decide, with an explicit noise model, whether
//! the candidate regressed.
//!
//! A *cell* is one `(graph, algorithm, p)` triple. Wall-clock cells carry
//! the **min over `--repeats` runs** (min-of-k is the standard robust
//! estimator for "how fast can this go" — the minimum is far less noisy
//! than the mean under scheduler interference). Two guards keep CI honest:
//!
//! * a relative **threshold** (default 5%): the candidate regresses only if
//!   its min wall exceeds the baseline's by more than the threshold;
//! * a **wall floor** (default 1 ms): cells where both sides are faster
//!   than the floor are timer noise and never flagged.
//!
//! Independently of wall time, the deterministic **modeled cost** must match
//! *exactly* for cells marked `modeled_deterministic` — any drift means the
//! algorithm did different work, which is a semantic change, not noise.
//! (MST-BC's modeled cost depends on racy tie-breaks and is exempt.)

use std::collections::BTreeMap;

use crate::json::Json;

/// Newest `msf bench --json` schema this reader understands. Older v3
/// reports also carry per-run `"width"` and `"fused"` fields, which the
/// reader ignores.
pub const SCHEMA_VERSION: u64 = 3;

/// One `(graph, algorithm, p)` measurement extracted from a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Graph name (e.g. `random n=10000 m=6n`).
    pub graph: String,
    /// Algorithm name (e.g. `Bor-ALM`).
    pub algorithm: String,
    /// Processor count of the run.
    pub p: u64,
    /// Min-of-k wall seconds.
    pub wall_seconds: f64,
    /// Deterministic modeled parallel cost.
    pub modeled_cost: u64,
    /// Whether `modeled_cost` is reproducible run-to-run.
    pub modeled_deterministic: bool,
    /// Forest size — a correctness canary riding along.
    pub forest_edges: u64,
}

impl Cell {
    /// The match key.
    pub fn key(&self) -> (String, String, u64) {
        (self.graph.clone(), self.algorithm.clone(), self.p)
    }
}

/// Tunables for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct RegressConfig {
    /// Allowed wall-time growth in percent before a cell regresses.
    pub threshold_pct: f64,
    /// Cells where *both* walls sit under this floor (seconds) are treated
    /// as timer noise and never flagged.
    pub min_wall_seconds: f64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        RegressConfig {
            threshold_pct: 5.0,
            min_wall_seconds: 1e-3,
        }
    }
}

/// Per-cell comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold (or under the noise floor).
    Ok,
    /// Faster by more than the threshold.
    Improved,
    /// Slower by more than the threshold.
    WallRegression,
    /// Deterministic modeled cost drifted — the algorithm changed.
    ModelChanged,
    /// Forest size differs — a correctness failure, not a perf delta.
    ResultChanged,
}

impl Verdict {
    /// True for verdicts that must fail the CI gate.
    pub fn is_regression(self) -> bool {
        matches!(
            self,
            Verdict::WallRegression | Verdict::ModelChanged | Verdict::ResultChanged
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::WallRegression => "**WALL REGRESSION**",
            Verdict::ModelChanged => "**MODELED-COST DRIFT**",
            Verdict::ResultChanged => "**RESULT CHANGED**",
        }
    }
}

/// One matched cell with both sides and the verdict.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// The baseline side.
    pub baseline: Cell,
    /// The candidate side.
    pub candidate: Cell,
    /// Candidate wall as a percent delta over baseline (`+10.0` = 10% slower).
    pub wall_delta_pct: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// The full comparison result.
#[derive(Debug, Clone, Default)]
pub struct RegressReport {
    /// Matched cells in report order.
    pub deltas: Vec<CellDelta>,
    /// Keys present in the baseline but absent from the candidate (coverage
    /// loss — counts as a regression).
    pub missing_in_candidate: Vec<(String, String, u64)>,
    /// Keys only the candidate has (new coverage — informational).
    pub new_in_candidate: Vec<(String, String, u64)>,
}

impl RegressReport {
    /// Number of gate-failing findings (regressed cells + lost coverage).
    pub fn regressions(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.verdict.is_regression())
            .count()
            + self.missing_in_candidate.len()
    }

    /// Render the comparison as a markdown table plus a one-line verdict.
    pub fn markdown(&self, cfg: &RegressConfig) -> String {
        let mut out = String::new();
        out.push_str("## Benchmark regression report\n\n");
        out.push_str(&format!(
            "Threshold: wall +{:.1}% · noise floor: {:.1} ms · modeled cost: exact match \
             (deterministic cells)\n\n",
            cfg.threshold_pct,
            cfg.min_wall_seconds * 1e3
        ));
        out.push_str(
            "| graph | algorithm | p | base wall (s) | cand wall (s) | Δ wall | \
             base cost | cand cost | status |\n",
        );
        out.push_str("|---|---|---:|---:|---:|---:|---:|---:|---|\n");
        for d in &self.deltas {
            out.push_str(&format!(
                "| {} | {} | {} | {:.6} | {:.6} | {:+.1}% | {} | {} | {} |\n",
                d.baseline.graph,
                d.baseline.algorithm,
                d.baseline.p,
                d.baseline.wall_seconds,
                d.candidate.wall_seconds,
                d.wall_delta_pct,
                d.baseline.modeled_cost,
                d.candidate.modeled_cost,
                d.verdict.label()
            ));
        }
        for (g, a, p) in &self.missing_in_candidate {
            out.push_str(&format!(
                "| {g} | {a} | {p} | — | — | — | — | — | **MISSING IN CANDIDATE** |\n"
            ));
        }
        for (g, a, p) in &self.new_in_candidate {
            out.push_str(&format!(
                "| {g} | {a} | {p} | — | — | — | — | — | new cell |\n"
            ));
        }
        let n = self.regressions();
        out.push_str(&format!(
            "\n{} matched cells, {} regression{}{}\n",
            self.deltas.len(),
            n,
            if n == 1 { "" } else { "s" },
            if n == 0 {
                " — gate passes"
            } else {
                " — GATE FAILS"
            },
        ));
        out
    }
}

/// Pull the cells out of a parsed report, tolerating schema v1 (no
/// `schema_version` field, no metrics), v2, and v3 documents.
pub fn extract_cells(doc: &Json) -> Result<Vec<Cell>, String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .unwrap_or(1);
    if version > SCHEMA_VERSION {
        return Err(format!(
            "report schema_version {version} is newer than this binary understands ({SCHEMA_VERSION})"
        ));
    }
    if doc.get("suite").and_then(Json::as_str) != Some("msf-bench") {
        return Err("not an msf-bench report (missing \"suite\": \"msf-bench\")".into());
    }
    let mut cells = Vec::new();
    for graph in doc.get("graphs").map(Json::items).unwrap_or_default() {
        let gname = graph
            .get("name")
            .and_then(Json::as_str)
            .ok_or("graph entry without a name")?;
        for algo in graph.get("algorithms").map(Json::items).unwrap_or_default() {
            let aname = algo
                .get("algorithm")
                .and_then(Json::as_str)
                .ok_or("algorithm entry without a name")?;
            for run in algo.get("runs").map(Json::items).unwrap_or_default() {
                let need = |key: &str| -> Result<f64, String> {
                    run.get(key)
                        .and_then(Json::as_f64)
                        .ok_or(format!("run of {aname} on {gname} lacks \"{key}\""))
                };
                cells.push(Cell {
                    graph: gname.to_string(),
                    algorithm: aname.to_string(),
                    p: need("p")? as u64,
                    wall_seconds: need("wall_seconds")?,
                    modeled_cost: need("modeled_cost")? as u64,
                    // v1 reports predate the flag; MST-BC was already
                    // nondeterministic there.
                    modeled_deterministic: run
                        .get("modeled_deterministic")
                        .and_then(Json::as_bool)
                        .unwrap_or(aname != "MST-BC"),
                    forest_edges: need("forest_edges")? as u64,
                });
            }
        }
    }
    if cells.is_empty() {
        return Err("report contains no measurement cells".into());
    }
    Ok(cells)
}

/// Check that two reports measured the same experiment (same scale, seed,
/// and size) — comparing different experiments is a usage error.
pub fn check_comparable(baseline: &Json, candidate: &Json) -> Result<(), String> {
    for key in ["scale", "n", "seed"] {
        let b = baseline.get(key);
        let c = candidate.get(key);
        if b != c {
            return Err(format!(
                "reports are not comparable: \"{key}\" differs ({b:?} vs {c:?})"
            ));
        }
    }
    Ok(())
}

/// Compare two parsed reports cell-by-cell.
pub fn compare(
    baseline: &Json,
    candidate: &Json,
    cfg: &RegressConfig,
) -> Result<RegressReport, String> {
    check_comparable(baseline, candidate)?;
    let base_cells = extract_cells(baseline)?;
    let cand_cells = extract_cells(candidate)?;
    let mut cand_by_key: BTreeMap<(String, String, u64), Cell> =
        cand_cells.iter().map(|c| (c.key(), c.clone())).collect();
    let mut report = RegressReport::default();
    for b in base_cells {
        let Some(c) = cand_by_key.remove(&b.key()) else {
            report.missing_in_candidate.push(b.key());
            continue;
        };
        let wall_delta_pct = if b.wall_seconds > 0.0 {
            (c.wall_seconds / b.wall_seconds - 1.0) * 100.0
        } else {
            0.0
        };
        let under_floor =
            b.wall_seconds < cfg.min_wall_seconds && c.wall_seconds < cfg.min_wall_seconds;
        let verdict = if b.forest_edges != c.forest_edges {
            Verdict::ResultChanged
        } else if b.modeled_deterministic
            && c.modeled_deterministic
            && b.modeled_cost != c.modeled_cost
        {
            Verdict::ModelChanged
        } else if !under_floor && wall_delta_pct > cfg.threshold_pct {
            Verdict::WallRegression
        } else if !under_floor && wall_delta_pct < -cfg.threshold_pct {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
        report.deltas.push(CellDelta {
            baseline: b,
            candidate: c,
            wall_delta_pct,
            verdict,
        });
    }
    report.new_in_candidate = cand_by_key.into_keys().collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal v2-shaped report with one graph and the given runs.
    fn doc(cells: &[(&str, &str, u64, f64, u64, bool)]) -> Json {
        // Group by (graph, algorithm) to build valid nesting.
        let mut graphs: BTreeMap<&str, BTreeMap<&str, Vec<String>>> = BTreeMap::new();
        for &(g, a, p, wall, cost, det) in cells {
            graphs
                .entry(g)
                .or_default()
                .entry(a)
                .or_default()
                .push(format!(
                    "{{\"p\": {p}, \"wall_seconds\": {wall}, \"modeled_cost\": {cost}, \
                 \"modeled_deterministic\": {det}, \"forest_edges\": 99}}"
                ));
        }
        let graphs_json: Vec<String> = graphs
            .into_iter()
            .map(|(g, algos)| {
                let algos_json: Vec<String> = algos
                    .into_iter()
                    .map(|(a, runs)| {
                        format!(
                            "{{\"algorithm\": \"{a}\", \"runs\": [{}]}}",
                            runs.join(", ")
                        )
                    })
                    .collect();
                format!(
                    "{{\"name\": \"{g}\", \"algorithms\": [{}]}}",
                    algos_json.join(", ")
                )
            })
            .collect();
        let text = format!(
            "{{\"suite\": \"msf-bench\", \"schema_version\": 2, \"scale\": \"smoke\", \
             \"n\": 10000, \"seed\": 1, \"graphs\": [{}]}}",
            graphs_json.join(", ")
        );
        Json::parse(&text).expect("test doc is valid JSON")
    }

    #[test]
    fn self_comparison_is_clean() {
        let d = doc(&[
            ("g1", "Bor-AL", 1, 0.5, 1000, true),
            ("g1", "Bor-AL", 4, 0.2, 400, true),
            ("g1", "MST-BC", 1, 0.6, 1234, false),
        ]);
        let r = compare(&d, &d, &RegressConfig::default()).unwrap();
        assert_eq!(r.deltas.len(), 3);
        assert_eq!(r.regressions(), 0);
        assert!(r
            .markdown(&RegressConfig::default())
            .contains("gate passes"));
    }

    #[test]
    fn slowdown_beyond_threshold_regresses() {
        let base = doc(&[("g1", "Bor-AL", 1, 0.5, 1000, true)]);
        let cand = doc(&[("g1", "Bor-AL", 1, 0.6, 1000, true)]);
        let r = compare(&base, &cand, &RegressConfig::default()).unwrap();
        assert_eq!(r.regressions(), 1);
        assert_eq!(r.deltas[0].verdict, Verdict::WallRegression);
        assert!((r.deltas[0].wall_delta_pct - 20.0).abs() < 1e-9);
        assert!(r.markdown(&RegressConfig::default()).contains("GATE FAILS"));
        // The same delta passes a 25% threshold.
        let loose = RegressConfig {
            threshold_pct: 25.0,
            ..RegressConfig::default()
        };
        assert_eq!(compare(&base, &cand, &loose).unwrap().regressions(), 0);
    }

    #[test]
    fn sub_floor_noise_is_ignored_and_speedups_noted() {
        let base = doc(&[
            ("g1", "Bor-AL", 1, 0.0002, 10, true),
            ("g1", "Bor-FAL", 1, 1.0, 999, true),
        ]);
        let cand = doc(&[
            ("g1", "Bor-AL", 1, 0.0009, 10, true), // 4.5x but under 1 ms floor
            ("g1", "Bor-FAL", 1, 0.5, 999, true),  // 2x faster
        ]);
        let r = compare(&base, &cand, &RegressConfig::default()).unwrap();
        assert_eq!(r.regressions(), 0);
        assert_eq!(r.deltas[0].verdict, Verdict::Ok);
        assert_eq!(r.deltas[1].verdict, Verdict::Improved);
    }

    #[test]
    fn deterministic_model_drift_fails_but_mstbc_is_exempt() {
        let base = doc(&[
            ("g1", "Bor-AL", 1, 0.5, 1000, true),
            ("g1", "MST-BC", 1, 0.5, 1000, false),
        ]);
        let cand = doc(&[
            ("g1", "Bor-AL", 1, 0.5, 1001, true),
            ("g1", "MST-BC", 1, 0.5, 2222, false),
        ]);
        let r = compare(&base, &cand, &RegressConfig::default()).unwrap();
        assert_eq!(r.regressions(), 1);
        assert_eq!(r.deltas[0].verdict, Verdict::ModelChanged);
        assert_eq!(r.deltas[1].verdict, Verdict::Ok);
    }

    #[test]
    fn missing_cells_regress_and_new_cells_are_informational() {
        let base = doc(&[
            ("g1", "Bor-AL", 1, 0.5, 1000, true),
            ("g1", "Bor-AL", 4, 0.2, 400, true),
        ]);
        let cand = doc(&[
            ("g1", "Bor-AL", 1, 0.5, 1000, true),
            ("g1", "Bor-ALM", 1, 0.4, 900, true),
        ]);
        let r = compare(&base, &cand, &RegressConfig::default()).unwrap();
        assert_eq!(r.regressions(), 1);
        assert_eq!(
            r.missing_in_candidate,
            vec![("g1".into(), "Bor-AL".into(), 4)]
        );
        assert_eq!(r.new_in_candidate.len(), 1);
    }

    #[test]
    fn incomparable_experiments_are_refused() {
        let base = doc(&[("g1", "Bor-AL", 1, 0.5, 1000, true)]);
        let mut text = String::new();
        // Same doc but a different seed.
        if let Json::Object(_) = &base {
            text = "{\"suite\": \"msf-bench\", \"schema_version\": 2, \"scale\": \"smoke\", \
                    \"n\": 10000, \"seed\": 2, \"graphs\": []}"
                .to_string();
        }
        let cand = Json::parse(&text).unwrap();
        assert!(compare(&base, &cand, &RegressConfig::default())
            .unwrap_err()
            .contains("seed"));
    }

    #[test]
    fn v3_width_and_fused_extract_and_mode_mismatch_is_not_an_error() {
        let v3 = |fused: bool| {
            Json::parse(&format!(
                "{{\"suite\": \"msf-bench\", \"schema_version\": 3, \"scale\": \"smoke\", \
                 \"n\": 10000, \"seed\": 1, \"graphs\": [{{\"name\": \"g\", \"algorithms\": \
                 [{{\"algorithm\": \"Bor-WriteMin\", \"runs\": [{{\"p\": 2, \
                 \"wall_seconds\": 0.1, \"modeled_cost\": 5, \"modeled_deterministic\": true, \
                 \"forest_edges\": 3, \"width\": \"u32\", \"fused\": {fused}}}]}}]}}]}}"
            ))
            .unwrap()
        };
        // Older v3 reports carry `width` and `fused`; both are read past.
        let cells = extract_cells(&v3(true)).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!((cells[0].p, cells[0].forest_edges), (2, 3));
        // Reports that differ only in those fields compare clean.
        let r = compare(&v3(false), &v3(true), &RegressConfig::default()).unwrap();
        assert_eq!(r.regressions(), 0);
        assert_eq!(r.deltas.len(), 1);
    }

    #[test]
    fn newer_schema_is_refused() {
        let v99 = Json::parse(
            "{\"suite\": \"msf-bench\", \"schema_version\": 99, \"scale\": \"smoke\", \
             \"n\": 1, \"seed\": 1, \"graphs\": []}",
        )
        .unwrap();
        assert!(extract_cells(&v99).unwrap_err().contains("newer"));
    }

    #[test]
    fn v1_reports_without_flags_still_extract() {
        let v1 = Json::parse(
            "{\"suite\": \"msf-bench\", \"scale\": \"smoke\", \"n\": 10000, \"seed\": 1, \
             \"graphs\": [{\"name\": \"g\", \"algorithms\": [{\"algorithm\": \"MST-BC\", \
             \"runs\": [{\"p\": 2, \"wall_seconds\": 0.1, \"modeled_cost\": 5, \
             \"forest_edges\": 3}]}]}]}",
        )
        .unwrap();
        let cells = extract_cells(&v1).unwrap();
        assert_eq!(cells.len(), 1);
        assert!(!cells[0].modeled_deterministic, "MST-BC inferred nondet");
    }
}
