//! Regression corpus replay + a quick always-on fuzz campaign.
//!
//! `tests/corpus/` holds DIMACS reproducers in the `c msf-fuzz v1` header
//! format the fuzzer writes for shrunk failures. Replaying them re-runs each
//! recorded algorithm under its exact recorded configuration and demands
//! agreement with the unique MSF plus a passing optimality certificate — so
//! once a bug is fixed, its minimal reproducer keeps guarding the fix.

use msf_suite::core::fuzz::{load_corpus, replay_corpus, run_fuzz, FuzzConfig};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn committed_corpus_replays_clean() {
    let replayed = replay_corpus(&corpus_dir()).unwrap();
    assert!(
        replayed >= 4,
        "expected the committed reproducers, got {replayed}"
    );
}

#[test]
fn corpus_headers_parse_with_exact_configs() {
    let cases = load_corpus(&corpus_dir()).unwrap();
    // The tie-square case pins the configuration corner that motivated it:
    // MST-BC at odd p with a base size below the vertex count.
    let tie = cases
        .iter()
        .find(|c| c.path.file_name().is_some_and(|f| f == "tie-square.gr"))
        .expect("tie-square.gr is committed");
    assert_eq!(tie.algo, "mst-bc");
    assert_eq!(tie.config.threads, 3);
    assert_eq!(tie.config.base_size, 2);
    assert_eq!(tie.graph.num_vertices(), 4);
    assert_eq!(tie.graph.num_edges(), 4);
    // The parallel-ties case pins Bor-EL at p = 7 with a small base size.
    // Its header also carries a key of a retired Bor-EL option; the reader
    // looks keys up by name, so the extra key is skipped.
    let ties = cases
        .iter()
        .find(|c| c.path.file_name().is_some_and(|f| f == "parallel-ties.gr"))
        .expect("parallel-ties.gr is committed");
    assert_eq!(ties.algo, "bor-el");
    assert_eq!(ties.config.threads, 7);
    assert_eq!(ties.config.base_size, 4);
}

/// A small deterministic campaign runs on every test invocation: all
/// algorithms, odd thread counts, tie-heavy and disconnected generators.
#[test]
fn quick_campaign_stays_clean() {
    let report = run_fuzz(&FuzzConfig {
        cases: 40,
        seed: 0xBADC_0FFE,
        max_vertices: 64,
        threads: vec![1, 3, 7],
        ..FuzzConfig::default()
    })
    .unwrap();
    assert_eq!(report.cases, 40);
    assert_eq!(report.certified, report.runs, "{:?}", report.failures);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
}
