//! Thread-count matrix: pooled execution must be indistinguishable from the
//! sequential escape hatch, for every algorithm, at every processor count.
//!
//! The pool width is pinned to 4 before first touch so the work-stealing
//! scheduler is genuinely active (forks get stolen) even on a 1-core CI
//! host. `msf_pool::with_sequential` then gives an in-process A/B: the same
//! call tree, once inline in deterministic order, once on the pool. The
//! results must be **bit-identical** — same forest edge ids in the same
//! order, same total weight bits, same component count — and every pooled
//! forest must independently pass the cut/cycle certificate. The modeled
//! cost depends only on the input and `p`, so it must match too, except for
//! MST-BC, whose racy tie-breaks change its work split from run to run.
//! The inputs mix uniform, mesh and structured graphs, duplicate weights,
//! and skewed-degree ones (R-MAT, power-law), whose contractions merge
//! heavy parallel-edge runs.

use msf_core::{certify, fuzz, minimum_spanning_forest, Algorithm, MsfConfig, MsfResult};
use msf_graph::generators::{
    mesh2d, powerlaw_from, powerlaw_graph, random_graph, rmat_graph, rmat_graph500, structured,
    GeneratorConfig, StructuredKind, WeightScheme,
};
use msf_graph::EdgeList;

/// The processor counts of the matrix: both boundary values and awkward
/// non-powers-of-two that exceed the pool width.
const MATRIX_P: [usize; 5] = [1, 2, 3, 7, 8];

fn inputs() -> Vec<(String, EdgeList)> {
    let cfg = GeneratorConfig::with_seed(7);
    vec![
        (
            "random n=2000 m=8000".into(),
            random_graph(&cfg, 2_000, 8_000),
        ),
        ("mesh 40x40".into(), mesh2d(&cfg, 40, 40)),
        (
            "str1 n=2000".into(),
            structured(&cfg, StructuredKind::Str1, 2_000),
        ),
        (
            "str2 n=1500".into(),
            structured(&cfg, StructuredKind::Str2, 1_500),
        ),
        (
            "random small-int weights".into(),
            msf_graph::generators::assign_weights(
                &random_graph(&cfg, 1_000, 5_000),
                WeightScheme::SmallIntegers { range: 8 },
                7,
            ),
        ),
        (
            "duplicate small-int weights".into(),
            msf_graph::generators::assign_weights(
                &random_graph(&cfg, 1_500, 9_000),
                WeightScheme::SmallIntegers { range: 4 },
                7,
            ),
        ),
        // Skewed degrees: contraction merges many parallel edges per
        // supervertex pair, which the uniform inputs above rarely do.
        (
            "rmat scale 12".into(),
            rmat_graph(rmat_graph500(&cfg, 12, 8)).expect("small R-MAT builds"),
        ),
        (
            "powerlaw n=4000 m=24000".into(),
            powerlaw_graph(powerlaw_from(&cfg, 4_000, 24_000)).expect("small power-law builds"),
        ),
    ]
}

fn fingerprint(r: &MsfResult) -> (Vec<u32>, u64, u32) {
    (r.edges.clone(), r.total_weight.to_bits(), r.components)
}

#[test]
fn pooled_results_are_bit_identical_to_sequential_across_matrix() {
    msf_pool::force_width(4);
    for (name, g) in inputs() {
        for algo in Algorithm::ALL {
            for p in MATRIX_P {
                let cfg = MsfConfig::with_threads(p);
                let seq = msf_pool::with_sequential(|| minimum_spanning_forest(&g, algo, &cfg));
                let pooled = minimum_spanning_forest(&g, algo, &cfg);
                assert_eq!(
                    fingerprint(&seq),
                    fingerprint(&pooled),
                    "{name}: {algo} at p={p} diverged between sequential and pooled execution"
                );
                if algo != Algorithm::MstBc {
                    assert_eq!(
                        seq.stats.modeled_cost, pooled.stats.modeled_cost,
                        "{name}: {algo} at p={p} modeled cost depends on the schedule"
                    );
                }
                certify::certify_msf_with(&g, &pooled, p).unwrap_or_else(|v| {
                    panic!("{name}: {algo} at p={p} pooled forest failed certification: {v}")
                });
            }
        }
    }
}

#[test]
fn fuzz_smoke_runs_clean_with_pool_active() {
    msf_pool::force_width(4);
    // Exercises the pooled path by default; under MSF_SEQUENTIAL=1 (the CI
    // escape-hatch job) the same campaign runs inline instead.
    if !msf_pool::sequential_env() {
        assert!(
            !msf_pool::sequential_here(),
            "fuzz smoke must exercise the pooled path"
        );
    }
    let cfg = fuzz::FuzzConfig {
        cases: 25,
        seed: 0xB0DA,
        max_vertices: 64,
        threads: vec![1, 3, 8],
        ..fuzz::FuzzConfig::default()
    };
    let report = fuzz::run_fuzz(&cfg).expect("fuzz campaign IO");
    assert_eq!(report.cases, 25);
    assert!(
        report.failures.is_empty(),
        "pooled fuzz smoke found failures: {:?}",
        report
            .failures
            .iter()
            .map(|f| format!("case {} {} {}", f.case, f.generator, f.algo))
            .collect::<Vec<_>>()
    );
}
