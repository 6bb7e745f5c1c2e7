//! Seeded differential fuzzing of the whole algorithm portfolio.
//!
//! Each case draws a graph from a randomized generator mix (uniform random,
//! thinned meshes, geometric, degenerate structured trees, tie-heavy
//! multigraphs, disconnected unions), runs **every** [`Algorithm`] at
//! several thread counts and configuration corners (small `base_size`, odd
//! `p`, MST-BC's shuffle and stealing on and off), and cross-checks the
//! results two ways:
//!
//! 1. **differentially** — all algorithms must produce the identical edge-id
//!    set, since the `(weight, id)` total order makes the MSF unique;
//! 2. **by certification** — each result must pass the Kruskal-independent
//!    [`certify_msf_with`](crate::certify::certify_msf_with) optimality
//!    certificate.
//!
//! A failing case is shrunk by delta debugging (drop edge chunks while the
//! failure reproduces, then compact away unused vertices) and written to a
//! regression corpus as a DIMACS file whose `c msf-fuzz` header records the
//! exact algorithm and configuration, so
//! [`replay_corpus`] can re-check every past failure on each test run.
//!
//! Everything is deterministic in `FuzzConfig::seed`: the same seed replays
//! the same graphs, configurations, and verdicts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use msf_graph::generators::{
    geometric_knn, mesh2d_random, random_graph, structured, GeneratorConfig, StructuredKind,
};
use msf_graph::EdgeList;
use rand::prelude::*;

use crate::certify::certify_msf_with;
use crate::{minimum_spanning_forest, Algorithm, MsfConfig};

/// Fuzzing campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of generated graphs.
    pub cases: usize,
    /// Master seed; equal seeds replay byte-identical campaigns.
    pub seed: u64,
    /// Where to write shrunk reproducers (`None` keeps them in memory only).
    pub corpus_dir: Option<PathBuf>,
    /// Upper bound on vertices per generated graph.
    pub max_vertices: usize,
    /// Thread counts every algorithm runs at.
    pub threads: Vec<usize>,
    /// Plant a deterministic wrong-forest "algorithm" to prove the pipeline
    /// detects, shrinks, and reports failures end to end.
    pub inject_failure: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 100,
            seed: 2026,
            corpus_dir: None,
            max_vertices: 96,
            threads: vec![1, 3, 7],
            inject_failure: false,
        }
    }
}

/// One confirmed disagreement or certification failure, after shrinking.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the generated case.
    pub case: usize,
    /// Generator that produced the original graph.
    pub generator: String,
    /// CLI-style slug of the offending algorithm (`bor-el`, `injected`, …).
    pub algo: String,
    /// Configuration under which it failed.
    pub threads: usize,
    /// MST-BC base size in effect.
    pub base_size: usize,
    /// Human-readable reason (differential mismatch or certificate error).
    pub detail: String,
    /// The shrunk graph that still reproduces the failure.
    pub shrunk: EdgeList,
    /// Where the DIMACS reproducer was written, when a corpus is configured.
    pub reproducer: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases generated.
    pub cases: usize,
    /// Individual algorithm runs (algorithms × thread counts × cases).
    pub runs: usize,
    /// Runs whose result passed certification.
    pub certified: usize,
    /// Confirmed, shrunk failures.
    pub failures: Vec<FuzzFailure>,
}

/// The subject of one fuzz run: a real algorithm, or the planted saboteur.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subject {
    Real(Algorithm),
    /// Computes the true MSF, then drops one forest edge, swapping in the
    /// lightest non-forest edge when one exists — deterministic on every
    /// graph with a forest edge, so the failure reproduces throughout
    /// shrinking (down to a single mandatory edge).
    Injected,
}

impl Subject {
    fn slug(self) -> &'static str {
        match self {
            Subject::Real(a) => a.slug(),
            Subject::Injected => "injected",
        }
    }

    fn run(self, g: &EdgeList, cfg: &MsfConfig) -> crate::MsfResult {
        match self {
            Subject::Real(a) => minimum_spanning_forest(g, a, cfg),
            Subject::Injected => {
                let mut r = minimum_spanning_forest(g, Algorithm::Boruvka, cfg);
                let in_forest: std::collections::HashSet<u32> = r.edges.iter().copied().collect();
                let swap_in = g
                    .edges()
                    .iter()
                    .filter(|e| !in_forest.contains(&e.id) && e.u != e.v)
                    .min_by_key(|e| e.key())
                    .map(|e| e.id);
                if r.edges.pop().is_some() {
                    if let Some(id) = swap_in {
                        r.edges.push(id);
                        r.edges.sort_unstable();
                        r.edges.dedup();
                    }
                    r.total_weight = r.edges.iter().map(|&i| g.edge(i).w).sum();
                }
                r
            }
        }
    }
}

/// One graph drawn from the generator mix.
fn sample_graph(rng: &mut StdRng, case: usize, max_n: usize) -> (String, EdgeList) {
    let gen_cfg = GeneratorConfig::with_seed(rng.gen::<u64>());
    let n = rng.gen_range(2..max_n.max(3));
    // random_graph draws simple graphs; cap m at the number of vertex pairs.
    let cap = |n: usize, m: usize| m.min(n * (n - 1) / 2).max(1);
    match rng.gen_range(0u32..6) {
        0 => {
            let m = cap(n, rng.gen_range(1..(3 * n).max(2)));
            (format!("random-{case}"), random_graph(&gen_cfg, n, m))
        }
        1 => {
            let side = rng.gen_range(2..((max_n as f64).sqrt() as usize).max(3));
            let keep = 0.3 + 0.6 * rng.gen::<f64>();
            (
                format!("mesh2d-{case}"),
                mesh2d_random(&gen_cfg, side, side, keep),
            )
        }
        2 => {
            let k = rng.gen_range(1..5);
            (
                format!("geo-{case}"),
                geometric_knn(&gen_cfg, n.max(k + 2), k),
            )
        }
        3 => {
            let kind = match rng.gen_range(0u32..4) {
                0 => StructuredKind::Str0,
                1 => StructuredKind::Str1,
                2 => StructuredKind::Str2,
                _ => StructuredKind::Str3,
            };
            (format!("str-{case}"), structured(&gen_cfg, kind, n.max(8)))
        }
        4 => (format!("ties-{case}"), tie_multigraph(rng, n)),
        _ => {
            // Disconnected union of two random blobs: exercises the forest
            // (not tree) paths and per-component certification.
            let n2 = rng.gen_range(2..n.max(3));
            let a = random_graph(&gen_cfg, n, cap(n, rng.gen_range(1..(2 * n).max(2))));
            let b = random_graph(
                &GeneratorConfig::with_seed(rng.gen::<u64>()),
                n2,
                cap(n2, rng.gen_range(1..(2 * n2).max(2))),
            );
            (
                format!("disjoint-{case}"),
                msf_graph::transform::disjoint_union(&[&a, &b]),
            )
        }
    }
}

/// A deliberately nasty multigraph: few distinct weights (so nearly every
/// comparison is a tie broken by edge id) and parallel edges (so the dedup
/// contract in the compact-graph kernels actually fires on input edges).
fn tie_multigraph(rng: &mut StdRng, n: usize) -> EdgeList {
    let n = n.max(2);
    let m = rng.gen_range(1..(4 * n).max(2));
    let weights = [0.0, 0.5, 1.0];
    let triples: Vec<(u32, u32, f64)> = (0..m)
        .map(|_| {
            let u = rng.gen_range(0..n as u32);
            let mut v = rng.gen_range(0..n as u32);
            if u == v {
                v = (v + 1) % n as u32;
            }
            (u, v, weights[rng.gen_range(0..weights.len())])
        })
        .collect();
    EdgeList::from_triples(n, triples)
}

/// Check one subject/config against the unique MSF. `None` means the run is
/// correct: it matches the independent Kruskal reference AND passes the
/// self-contained optimality certificate.
fn check_run(g: &EdgeList, subject: Subject, cfg: &MsfConfig) -> Option<String> {
    let r = subject.run(g, cfg);
    let reference = crate::seq::kruskal::msf(g);
    if r.edges != reference.edges {
        return Some(format!(
            "differential mismatch: {} selected {} edges, the unique MSF has {}",
            subject.slug(),
            r.edges.len(),
            reference.edges.len()
        ));
    }
    if let Err(v) = certify_msf_with(g, &r, cfg.threads) {
        return Some(format!("certification failed: {v}"));
    }
    None
}

/// Run the campaign.
pub fn run_fuzz(cfg: &FuzzConfig) -> std::io::Result<FuzzReport> {
    let mut report = FuzzReport {
        cases: 0,
        runs: 0,
        certified: 0,
        failures: Vec::new(),
    };
    if let Some(dir) = &cfg.corpus_dir {
        std::fs::create_dir_all(dir)?;
    }
    for case in 0..cfg.cases {
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (generator, g) = sample_graph(&mut rng, case, cfg.max_vertices);
        report.cases += 1;

        let mut subjects: Vec<Subject> = Algorithm::ALL.iter().map(|&a| Subject::Real(a)).collect();
        // Plant the saboteur in one case per campaign (the first with a
        // non-forest edge, so the corruption has something to swap in).
        if cfg.inject_failure && report.failures.is_empty() {
            subjects.push(Subject::Injected);
        }

        for &p in &cfg.threads {
            // Corner-heavy configuration sampling: tiny base sizes force
            // MST-BC's recursion and odd p exercises uneven block partitions.
            let run_cfg = MsfConfig {
                threads: p,
                base_size: *[2usize, 4, 16, 64].choose(&mut rng).expect("non-empty"),
                shuffle: rng.gen_bool(0.5),
                work_stealing: rng.gen_bool(0.5),
                seed: rng.gen::<u64>(),
            };
            for &subject in &subjects {
                report.runs += 1;
                match check_run(&g, subject, &run_cfg) {
                    None => report.certified += 1,
                    Some(detail) => {
                        let shrunk = shrink(&g, subject, &run_cfg);
                        let detail = check_run(&shrunk, subject, &run_cfg).unwrap_or(detail);
                        let reproducer = match &cfg.corpus_dir {
                            Some(dir) => Some(write_reproducer(
                                dir, case, &generator, subject, &run_cfg, &detail, &shrunk,
                            )?),
                            None => None,
                        };
                        report.failures.push(FuzzFailure {
                            case,
                            generator: generator.clone(),
                            algo: subject.slug().to_string(),
                            threads: run_cfg.threads,
                            base_size: run_cfg.base_size,
                            detail,
                            shrunk,
                            reproducer,
                        });
                    }
                }
            }
        }
    }
    Ok(report)
}

/// Delta-debug `g` down to a small graph on which `subject` still fails
/// under `cfg`: repeatedly drop edge chunks (halving granularity as removals
/// stop reproducing), then compact away untouched vertices.
fn shrink(g: &EdgeList, subject: Subject, cfg: &MsfConfig) -> EdgeList {
    let fails = |n: usize, triples: &[(u32, u32, f64)]| -> bool {
        let candidate = EdgeList::from_triples(n, triples.to_vec());
        check_run(&candidate, subject, cfg).is_some()
    };
    let n = g.num_vertices();
    let mut triples: Vec<(u32, u32, f64)> = g.edges().iter().map(|e| (e.u, e.v, e.w)).collect();
    let mut chunk = (triples.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < triples.len() {
            let end = (start + chunk).min(triples.len());
            let mut candidate = Vec::with_capacity(triples.len() - (end - start));
            candidate.extend_from_slice(&triples[..start]);
            candidate.extend_from_slice(&triples[end..]);
            if fails(n, &candidate) {
                triples = candidate;
                progressed = true;
                // Re-test the same offset: it now holds different edges.
            } else {
                start = end;
            }
        }
        if !progressed {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    // Vertex compaction: remap the endpoints that survived onto 0..k.
    let mut remap: BTreeMap<u32, u32> = BTreeMap::new();
    for &(u, v, _) in &triples {
        let next = remap.len() as u32;
        remap.entry(u).or_insert(next);
        let next = remap.len() as u32;
        remap.entry(v).or_insert(next);
    }
    let compacted: Vec<(u32, u32, f64)> = triples
        .iter()
        .map(|&(u, v, w)| (remap[&u], remap[&v], w))
        .collect();
    if fails(remap.len(), &compacted) {
        EdgeList::from_triples(remap.len(), compacted)
    } else {
        // Isolated-vertex count mattered to this failure; keep the ids.
        EdgeList::from_triples(n, triples)
    }
}

/// Write a shrunk failing case as DIMACS with an `c msf-fuzz` header that
/// [`replay_corpus`] can parse back into an exact re-run.
fn write_reproducer(
    dir: &Path,
    case: usize,
    generator: &str,
    subject: Subject,
    cfg: &MsfConfig,
    detail: &str,
    g: &EdgeList,
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("case{case}-{}-p{}.gr", subject.slug(), cfg.threads));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "c msf-fuzz v1 case={case} generator={generator} algo={} threads={} base_size={} \
         shuffle={} work_stealing={} seed={}",
        subject.slug(),
        cfg.threads,
        cfg.base_size,
        cfg.shuffle,
        cfg.work_stealing,
        cfg.seed,
    );
    let _ = writeln!(text, "c msf-fuzz-detail {detail}");
    let mut body = Vec::new();
    msf_graph::io::write_dimacs(g, &mut body)?;
    text.push_str(&String::from_utf8(body).expect("DIMACS output is UTF-8"));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// One corpus entry, parsed back from its reproducer file.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Source file.
    pub path: PathBuf,
    /// Algorithm slug recorded in the header (`injected` entries replay with
    /// the real portfolio — the saboteur only exists inside a campaign).
    pub algo: String,
    /// Recorded configuration.
    pub config: MsfConfig,
    /// The graph.
    pub graph: EdgeList,
}

/// Load every `*.gr` reproducer under `dir`.
pub fn load_corpus(dir: &Path) -> std::io::Result<Vec<CorpusCase>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|x| x == "gr")).then_some(path)
        })
        .collect();
    paths.sort();
    let mut cases = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let header = text
            .lines()
            .find(|l| l.starts_with("c msf-fuzz v1 "))
            .ok_or_else(|| {
                bad(format!(
                    "{}: missing `c msf-fuzz v1` header",
                    path.display()
                ))
            })?;
        let kv: BTreeMap<&str, &str> = header
            .split_whitespace()
            .filter_map(|tok| tok.split_once('='))
            .collect();
        let get = |key: &str| {
            kv.get(key)
                .copied()
                .ok_or_else(|| bad(format!("{}: header missing {key}=", path.display())))
        };
        let parse_usize = |key: &str| -> std::io::Result<usize> {
            get(key)?
                .parse()
                .map_err(|_| bad(format!("{}: bad {key}=", path.display())))
        };
        let parse_bool = |key: &str| -> std::io::Result<bool> {
            get(key)?
                .parse()
                .map_err(|_| bad(format!("{}: bad {key}=", path.display())))
        };
        let config = MsfConfig {
            threads: parse_usize("threads")?.max(1),
            base_size: parse_usize("base_size")?,
            shuffle: parse_bool("shuffle")?,
            work_stealing: parse_bool("work_stealing")?,
            seed: get("seed")?
                .parse()
                .map_err(|_| bad(format!("{}: bad seed=", path.display())))?,
        };
        let graph = msf_graph::io::read_dimacs(text.as_bytes())?;
        cases.push(CorpusCase {
            algo: get("algo")?.to_string(),
            config,
            graph,
            path,
        });
    }
    Ok(cases)
}

/// Replay the regression corpus: every recorded case must now pass — the
/// recorded algorithm (or, for `injected` entries, the full real portfolio)
/// must agree with the unique MSF and pass certification under the exact
/// recorded configuration. Returns the number of cases replayed.
pub fn replay_corpus(dir: &Path) -> Result<usize, String> {
    let cases = load_corpus(dir).map_err(|e| format!("cannot load corpus: {e}"))?;
    for case in &cases {
        let subjects: Vec<Subject> = match Algorithm::parse(&case.algo) {
            Some(a) => vec![Subject::Real(a)],
            None => Algorithm::ALL.iter().map(|&a| Subject::Real(a)).collect(),
        };
        for subject in subjects {
            if let Some(detail) = check_run(&case.graph, subject, &case.config) {
                return Err(format!(
                    "{}: {} still fails: {detail}",
                    case.path.display(),
                    subject.slug()
                ));
            }
        }
    }
    Ok(cases.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(inject: bool, corpus: Option<PathBuf>) -> FuzzReport {
        run_fuzz(&FuzzConfig {
            cases: 6,
            seed: 0xF00D,
            corpus_dir: corpus,
            max_vertices: 40,
            threads: vec![1, 3],
            inject_failure: inject,
        })
        .expect("fuzz campaign IO")
    }

    #[test]
    fn clean_campaign_has_no_failures() {
        let report = small_campaign(false, None);
        assert_eq!(report.cases, 6);
        assert_eq!(report.runs, 6 * 2 * Algorithm::ALL.len());
        assert_eq!(report.certified, report.runs);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let a = small_campaign(false, None);
        let b = small_campaign(false, None);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.certified, b.certified);
    }

    #[test]
    fn injected_failure_is_caught_and_shrunk() {
        let dir = std::env::temp_dir().join(format!("msf-fuzz-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = small_campaign(true, Some(dir.clone()));
        assert!(
            !report.failures.is_empty(),
            "the planted saboteur must be detected"
        );
        let f = &report.failures[0];
        assert_eq!(f.algo, "injected");
        // Minimal reproducer: swapping one forest edge for the lightest
        // non-forest edge needs nothing more than one cycle.
        assert!(
            f.shrunk.num_edges() <= 3,
            "shrink left {} edges (expected a single cycle at most): {:?}",
            f.shrunk.num_edges(),
            f.shrunk
        );
        assert!(f.shrunk.num_vertices() <= f.shrunk.num_edges() + 1);
        let path = f.reproducer.as_ref().expect("corpus dir was configured");
        assert!(path.exists());
        // The reproducer parses back to the same graph and config.
        let corpus = load_corpus(&dir).unwrap();
        let case = corpus
            .iter()
            .find(|c| c.path == *path)
            .expect("written case is loadable");
        assert_eq!(case.algo, "injected");
        assert_eq!(case.graph.num_edges(), f.shrunk.num_edges());
        assert_eq!(case.config.threads, f.threads);
        assert_eq!(case.config.base_size, f.base_size);
        // Replaying treats `injected` as the real portfolio, which passes.
        assert_eq!(replay_corpus(&dir).unwrap(), corpus.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tie_multigraph_is_hostile_but_solvable() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let g = tie_multigraph(&mut rng, 12);
            assert!(g.num_edges() >= 1);
            for subject in Algorithm::ALL.map(Subject::Real) {
                assert!(
                    check_run(&g, subject, &MsfConfig::with_threads(3)).is_none(),
                    "{} on tie multigraph",
                    subject.slug()
                );
            }
        }
    }

    #[test]
    fn corpus_rejects_garbage_headers() {
        let dir = std::env::temp_dir().join(format!("msf-fuzz-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.gr"), "p sp 2 1\na 1 2 1.0\n").unwrap();
        assert!(
            load_corpus(&dir).is_err(),
            "missing header must be rejected"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
