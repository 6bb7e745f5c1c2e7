//! The metrics every run reports, by name and unit. `BENCHMARK.json` lists
//! the same names with their direction and bound; a self-test keeps the two
//! in step.

use crate::{PARALLEL, TIMED};

/// `(name, unit)` of every end-to-end metric, reported by every workload
/// with tracing off.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = TIMED
        .iter()
        .map(|a| (format!("forest_s.{}", a.slug()), "s"))
        .collect();
    v.push(("certify_s".into(), "s"));
    v.push(("setup_s".into(), "s"));
    v.push(("peak_rss_mb".into(), "MiB"));
    v
}

/// `(name, unit)` of every per-layer metric, reported by every workload in
/// a traced run. A layer a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for name in [
        "graph.open_s",
        "graph.to_edge_list_s",
        "graph.parse_s",
        "graph.generate_s",
    ] {
        add(name.into(), "s");
    }
    add("graph.ingest_gbps".into(), "GB/s");
    for a in TIMED {
        add(format!("core.compute_s.{}", a.slug()), "s");
    }
    for a in PARALLEL {
        let slug = a.slug();
        for phase in [
            "setup",
            "find_min",
            "connect",
            "compact",
            "base_case",
            "unattributed",
        ] {
            add(format!("core.{phase}_s.{slug}"), "s");
        }
        add(format!("core.iterations.{slug}"), "count");
        add(format!("core.modeled_cost.{slug}"), "count");
        add(format!("primitives.fused_bytes_read.{slug}"), "bytes");
        add(format!("primitives.bw_frac.{slug}"), "ratio");
        add(format!("pool.speedup.{slug}"), "ratio");
        add(format!("pool.est_error.{slug}"), "ratio");
    }
    for name in [
        "primitives.write_min_cas_retry",
        "primitives.hook_cas_retry",
        "pool.steal_hits",
        "pool.steal_misses",
        "pool.parks",
        "pool.wakes",
        "pool.team_leases",
    ] {
        add(name.into(), "count");
    }
    add("pool.lease_wait_ms".into(), "ms");
    add("certify.wall_s".into(), "s");
    add("certify.cycle_queries".into(), "count");
    add("certify.cut_checks".into(), "count");
    add("certify.share".into(), "ratio");
    add("obs.trace_overhead_frac".into(), "ratio");
    add("bench.unattributed_s".into(), "s");
    add("bench.span_coverage_min".into(), "ratio");
    add("host.calibration_s".into(), "s");
    add("host.copy_gbps".into(), "GB/s");
    add("host.triad_gbps".into(), "GB/s");
    v
}
