//! The file → forest workloads (`rmat17`, `random250k-text`).
//!
//! Every cell is one timed pipeline, as a CLI user runs it: open and
//! validate the graph file (or parse the text), compute the forest, and for
//! the certify cell prove it. Cells run round-robin, so drift over the run
//! hits every algorithm alike, and each is timed right after the
//! calibration kernel, so its end-to-end sample is normalised to the
//! reference host speed.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use msf_core::certify::{certify_msf_with, Certificate};
use msf_core::stats::RunStats;
use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig};
use msf_graph::generators::{
    random_graph, rmat_graph, rmat_to_binary, GeneratorConfig, RmatConfig,
};
use msf_graph::{binfmt::BinGraph, io::read_dimacs, io::write_dimacs, EdgeList};
use msf_obs::metrics::MetricsSnapshot;

use crate::host::{self, Calibration};
use crate::trace::Spans;
use crate::{
    counter_delta, hist_delta, reference_checksum, snapshot, Ledger, Outcome, Scale, Settings,
    Workload, PARALLEL, PROGRAM_COUNTS, SETUP_REPS, TIMED,
};

/// A generated graph file and the checksum every forest must match.
#[derive(Debug)]
struct Input {
    path: PathBuf,
    text: bool,
    bytes: u64,
    reference: u64,
}

/// What one cell runs.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// File → forest with the algorithm at `p` (Kruskal at 1).
    Forest(Algorithm),
    /// File → Filter-Kruskal forest at `p` → certificate.
    Certify,
    /// File → forest with everything on the calling thread (traced runs,
    /// for `pool.speedup.*`).
    SingleThread(Algorithm),
}

impl Cell {
    fn name(self) -> String {
        match self {
            Cell::Forest(a) => format!("cell.forest.{}", a.slug()),
            Cell::Certify => "cell.certify".into(),
            Cell::SingleThread(a) => format!("cell.p1.{}", a.slug()),
        }
    }
}

/// One entry of a round: the cell, whether it runs traced, and its span
/// name (span names are static; the dozen cell names are leaked once).
#[derive(Debug, Clone, Copy)]
struct Slot {
    cell: Cell,
    traced: bool,
    name: &'static str,
}

impl Slot {
    fn new(cell: Cell, traced: bool) -> Slot {
        Slot {
            cell,
            traced,
            name: Box::leak(cell.name().into_boxed_str()),
        }
    }
}

/// One cell's results.
struct CellRun {
    wall: f64,
    checksum: u64,
    compute_s: f64,
    stats: RunStats,
    certificate: Option<Result<Certificate, String>>,
}

/// R-MAT scale or random-graph `n`, and graphs per run. Full sizes fit the
/// time a run may take on a 2-core host: one round per graph, a dozen or
/// more rounds per run.
///
/// Running times differ from one generated graph to the next, on R-MAT by
/// up to ~15% (Filter-Kruskal), so each run draws several graphs from its
/// seed and rotates through them; a run's medians then average over inputs
/// instead of riding on a few draws. With four R-MAT graphs per run, ten
/// seeds spread up to 14% after normalisation where one seed repeated
/// spread 2–6%, so R-MAT draws twelve.
fn sizes(s: &Settings) -> (u32, usize, u64) {
    match (s.workload, s.scale) {
        (Workload::Rmat, Scale::Full) => (17, 0, 12),
        (Workload::Rmat, Scale::Smoke) => (12, 0, 2),
        (Workload::RandomText, Scale::Full) => (0, 250_000, 4),
        (Workload::RandomText, Scale::Smoke) => (0, 4_000, 2),
    }
}

/// Generator seed of graph `k` of the run; runs of different seeds draw
/// disjoint graphs.
fn graph_seed(s: &Settings, k: u64) -> u64 {
    s.seed.wrapping_mul(64).wrapping_add(k)
}

/// Graph `k` of the run in memory, straight from the generator.
fn graph(s: &Settings, k: u64) -> io::Result<EdgeList> {
    let (scale, n, _) = sizes(s);
    let seed = graph_seed(s, k);
    match s.workload {
        Workload::Rmat => {
            rmat_graph(RmatConfig::graph500(scale, 8, seed)).map_err(io::Error::other)
        }
        _ => Ok(random_graph(&GeneratorConfig::with_seed(seed), n, 2 * n)),
    }
}

/// Write graph `k`'s file the way a user would produce it: R-MAT through
/// the streaming `.msfb` writer, the random graph as DIMACS text.
fn write_input(s: &Settings, k: u64, reference: u64) -> io::Result<Input> {
    let (scale, _, _) = sizes(s);
    let seed = graph_seed(s, k);
    let (path, text) = match s.workload {
        Workload::Rmat => {
            let path = s.dir.join(format!("rmat-{k}.msfb"));
            rmat_to_binary(&path, RmatConfig::graph500(scale, 8, seed))?;
            (path, false)
        }
        _ => {
            let path = s.dir.join(format!("random-{k}.gr"));
            let mut out = BufWriter::new(File::create(&path)?);
            write_dimacs(&graph(s, k)?, &mut out)?;
            out.flush()?;
            (path, true)
        }
    };
    Ok(Input {
        bytes: std::fs::metadata(&path)?.len(),
        path,
        text,
        reference,
    })
}

/// File → validated edge list, with a span per layer call.
fn load(input: &Input, spans: &mut Spans, root: usize) -> io::Result<EdgeList> {
    if input.text {
        spans.child("graph.parse", root, || {
            read_dimacs(BufReader::new(File::open(&input.path)?))
        })
    } else {
        let bin = spans.child("graph.open", root, || BinGraph::open(&input.path))?;
        let g = spans.child("graph.to_edge_list", root, || bin.to_edge_list());
        // Unmapping the file is graph-layer work too.
        spans.child("graph.close", root, || drop(bin));
        g
    }
}

fn run_cell(input: &Input, slot: Slot, p: usize, spans: &mut Spans) -> io::Result<CellRun> {
    let cell = slot.cell;
    let root = spans.begin(slot.name, None);
    let g = load(input, spans, root)?;
    let (algorithm, threads) = match cell {
        Cell::Forest(Algorithm::Kruskal) => (Algorithm::Kruskal, 1),
        Cell::Forest(a) => (a, p),
        Cell::Certify => (Algorithm::FilterKruskal, p),
        Cell::SingleThread(a) => (a, 1),
    };
    let cfg = MsfConfig::with_threads(threads);
    let compute = spans.begin("core.compute", Some(root));
    let result = match cell {
        Cell::SingleThread(a) => msf_pool::with_sequential(|| minimum_spanning_forest(&g, a, &cfg)),
        _ => minimum_spanning_forest(&g, algorithm, &cfg),
    };
    let compute_s = spans.end(compute).as_secs_f64();
    let certificate = match cell {
        Cell::Certify => Some(spans.child("certify.certify", root, || {
            certify_msf_with(&g, &result, p).map_err(|v| v.to_string())
        })),
        _ => None,
    };
    let wall = spans.end(root).as_secs_f64();
    Ok(CellRun {
        wall,
        checksum: result.checksum(),
        compute_s,
        stats: result.stats,
        certificate,
    })
}

/// The cells of one round: every forest cell and the certify cell. Traced
/// runs add a metrics-off copy of every forest cell (for
/// `obs.trace_overhead_frac`) and single-thread runs of the parallel
/// algorithms (for `pool.*`).
fn round_cells(trace: bool) -> Vec<Slot> {
    let mut cells: Vec<Slot> = TIMED
        .iter()
        .map(|&a| Slot::new(Cell::Forest(a), trace))
        .collect();
    cells.push(Slot::new(Cell::Certify, trace));
    if trace {
        cells.extend(TIMED.iter().map(|&a| Slot::new(Cell::Forest(a), false)));
        cells.extend(
            PARALLEL
                .iter()
                .map(|&a| Slot::new(Cell::SingleThread(a), true)),
        );
    }
    cells
}

/// Run a file → forest workload.
pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(Instant::now());

    // The references come from the generator's in-memory graphs, not from
    // the files, so a read-back bug cannot agree with itself.
    let graphs = sizes(s).2;
    let references: io::Result<Vec<u64>> = (0..graphs)
        .map(|k| graph(s, k).map(|g| reference_checksum(&g, s.corrupt_reference)))
        .collect();
    let references = match references {
        Ok(r) => r,
        Err(e) => {
            out.broken.push(format!("cannot generate the input: {e}"));
            return out;
        }
    };

    // Set-up, several times: write the input files, then one untimed
    // warm-up pipeline that starts the pool. Each is normalised like a cell.
    let warm_slot = Slot::new(Cell::Forest(Algorithm::FilterKruskal), false);
    let mut calibration = Calibration::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let calibration_s = calibration.measure();
        let t = Instant::now();
        let written: io::Result<Vec<Input>> = (0..graphs)
            .map(|k| write_input(s, k, references[k as usize]))
            .collect();
        inputs = match written {
            Ok(i) => i,
            Err(e) => {
                out.broken.push(format!("cannot write the input: {e}"));
                return out;
            }
        };
        out.samples
            .push("graph.generate_s", t.elapsed().as_secs_f64());
        let warm = run_cell(&inputs[0], warm_slot, s.p, &mut spans);
        spans.truncate(0);
        check_forest(
            &mut out.ledger,
            &inputs[0],
            "warm-up",
            warm.map(|c| c.checksum),
        );
        out.samples.push(
            "setup_s",
            Calibration::normalise(t.elapsed().as_secs_f64(), calibration_s),
        );
    }

    let cells = round_cells(s.trace);
    let start = Instant::now();
    'rounds: for round in 0.. {
        let input = &inputs[round % inputs.len()];
        for &slot in &cells {
            // The first pass over the inputs always finishes, so every cell
            // has a sample on every graph.
            if round >= inputs.len() && start.elapsed().as_secs_f64() >= s.seconds {
                break 'rounds;
            }
            let calibration_s = calibration.measure();
            out.samples.push("host.calibration_s", calibration_s);
            msf_obs::metrics::set_enabled(slot.traced);
            let before = slot.traced.then(snapshot);
            let first_span = spans.list().len();
            let run = run_cell(input, slot, s.p, &mut spans);
            let after = slot.traced.then(snapshot);
            msf_obs::metrics::set_enabled(s.trace);
            let run = match run {
                Ok(r) => r,
                Err(e) => {
                    out.ledger.check(false, || format!("{}: {e}", slot.name));
                    spans.truncate(first_span);
                    continue;
                }
            };
            check_forest(&mut out.ledger, input, slot.name, Ok(run.checksum));
            if let Some(Err(v)) = &run.certificate {
                out.broken.push(format!("certificate rejected: {v}"));
            }
            if !slot.traced {
                record_timing(&mut out, slot.cell, &run, calibration_s, s.trace);
            }
            match (&before, &after) {
                (Some(a), Some(b)) => {
                    record_layers(&mut out, slot.cell, &run, input, &spans, first_span, (a, b))
                }
                _ => spans.truncate(first_span),
            }
        }
    }
    if s.trace {
        let bw = (s.scale == Scale::Full).then(|| host::probe_bandwidth(s.p));
        derive_layers(&mut out, bw);
        out.spans = spans.list().to_vec();
    }
    for input in &inputs {
        std::fs::remove_file(&input.path).ok();
    }
    out
}

fn check_forest(ledger: &mut Ledger, input: &Input, what: &str, got: io::Result<u64>) {
    ledger.check(
        matches!(got, Ok(c) if c == input.reference),
        || match &got {
            Ok(c) => format!(
                "{what}: forest checksum {c:016x} differs from the Kruskal reference {:016x}",
                input.reference
            ),
            Err(e) => format!("{what}: {e}"),
        },
    );
}

/// End-to-end samples (untraced cells), normalised to the reference speed.
fn record_timing(out: &mut Outcome, cell: Cell, run: &CellRun, calibration_s: f64, trace: bool) {
    let name = match cell {
        Cell::Forest(a) => format!("forest_s.{}", a.slug()),
        Cell::Certify => "certify_s".into(),
        Cell::SingleThread(_) => return,
    };
    // In a traced run the metrics-off cells are the baseline that
    // `obs.trace_overhead_frac` compares the traced ones against, in raw
    // seconds like the traced cells.
    if trace {
        out.samples.push(format!("plain.{name}"), run.wall);
    } else {
        out.samples
            .push(name, Calibration::normalise(run.wall, calibration_s));
    }
}

/// Per-layer samples of one traced cell.
fn record_layers(
    out: &mut Outcome,
    cell: Cell,
    run: &CellRun,
    input: &Input,
    spans: &Spans,
    root: usize,
    (a, b): (&MetricsSnapshot, &MetricsSnapshot),
) {
    let smp = &mut out.samples;
    let mut ingest_s = 0.0;
    for (span, metric) in [
        ("graph.open", "graph.open_s"),
        ("graph.to_edge_list", "graph.to_edge_list_s"),
        ("graph.parse", "graph.parse_s"),
    ] {
        let secs = spans.child_seconds(root, span);
        if secs > 0.0 {
            smp.push(metric, secs);
            ingest_s += secs;
        }
    }
    smp.push("graph.ingest_gbps", input.bytes as f64 / ingest_s / 1e9);
    for (name, counter) in PROGRAM_COUNTS {
        smp.push(name, counter_delta(a, b, counter));
    }
    smp.push(
        "pool.lease_wait_ms",
        hist_delta(a, b, "pool.lease_wait_ns").0 / 1e6,
    );
    match cell {
        Cell::Forest(alg) => {
            let slug = alg.slug();
            smp.push(format!("traced.forest_s.{slug}"), run.wall);
            smp.push(format!("core.compute_s.{slug}"), run.compute_s);
            if alg == Algorithm::Kruskal {
                return;
            }
            let mut phases = 0.0;
            for (phase, hist) in [
                ("setup", "phase.setup.wall_ns"),
                ("find_min", "phase.find-min.wall_ns"),
                ("connect", "phase.connect.wall_ns"),
                ("compact", "phase.compact.wall_ns"),
                ("base_case", "phase.base-case.wall_ns"),
            ] {
                let secs = hist_delta(a, b, hist).0 / 1e9;
                phases += secs;
                smp.push(format!("core.{phase}_s.{slug}"), secs);
            }
            smp.push(
                format!("core.unattributed_s.{slug}"),
                run.compute_s - phases,
            );
            smp.push(
                format!("core.iterations.{slug}"),
                run.stats.iterations.len() as f64,
            );
            smp.push(
                format!("core.modeled_cost.{slug}"),
                run.stats.modeled_cost as f64,
            );
            smp.push(
                format!("primitives.fused_bytes_read.{slug}"),
                counter_delta(a, b, "kernel.fused_bytes_read"),
            );
        }
        Cell::SingleThread(alg) => {
            smp.push(format!("p1.compute_s.{}", alg.slug()), run.compute_s);
            smp.push(
                format!("p1.modeled_cost.{}", alg.slug()),
                run.stats.modeled_cost as f64,
            );
        }
        Cell::Certify => {
            smp.push("certify_cell_s", run.wall);
            smp.push(
                "certify.wall_s",
                spans.child_seconds(root, "certify.certify"),
            );
            if let Some(Ok(c)) = &run.certificate {
                smp.push("certify.cycle_queries", c.cycle_queries as f64);
                smp.push("certify.cut_checks", c.cut_checks as f64);
            }
        }
    }
}

/// Per-layer metrics computed from the traced cells' samples. Without a
/// bandwidth probe (smoke scale) the bandwidth fractions stay 0.
fn derive_layers(out: &mut Outcome, bw: Option<host::Bandwidth>) {
    let smp = &mut out.samples;
    // Counts are summed by the program over a cell; report the mean per
    // traced cell.
    for name in PROGRAM_COUNTS
        .iter()
        .map(|(n, _)| *n)
        .chain(["pool.lease_wait_ms"])
    {
        let mean = smp.mean(name);
        smp.0.insert(name.into(), vec![mean]);
    }
    let triad_bps = bw.map_or(0.0, |b| b.triad_gbps * 1e9);
    if let Some(b) = bw {
        smp.push("host.copy_gbps", b.copy_gbps);
        smp.push("host.triad_gbps", b.triad_gbps);
    }
    for a in PARALLEL {
        let slug = a.slug();
        let wall_p = smp.median(&format!("core.compute_s.{slug}")).unwrap_or(0.0);
        let wall_1 = smp.median(&format!("p1.compute_s.{slug}")).unwrap_or(0.0);
        let model = smp.ratio(
            &format!("core.modeled_cost.{slug}"),
            &format!("p1.modeled_cost.{slug}"),
        );
        if wall_p > 0.0 {
            smp.push(format!("pool.speedup.{slug}"), wall_1 / wall_p);
            // est(p) = wall(1) · modeled(p) / modeled(1), the model the
            // repository's docs quote; its error against the measured wall.
            smp.push(
                format!("pool.est_error.{slug}"),
                (wall_1 * model - wall_p) / wall_p,
            );
            if triad_bps > 0.0 {
                let bytes = smp
                    .median(&format!("primitives.fused_bytes_read.{slug}"))
                    .unwrap_or(0.0);
                smp.push(
                    format!("primitives.bw_frac.{slug}"),
                    bytes / wall_p / triad_bps,
                );
            }
        }
    }
    let share = smp.ratio("certify.wall_s", "certify_cell_s");
    smp.push("certify.share", share);
    let (traced, plain): (f64, f64) = TIMED
        .iter()
        .map(|a| {
            let t = smp
                .median(&format!("traced.forest_s.{}", a.slug()))
                .unwrap_or(0.0);
            let p = smp
                .median(&format!("plain.forest_s.{}", a.slug()))
                .unwrap_or(0.0);
            (t, p)
        })
        .fold((0.0, 0.0), |(x, y), (t, p)| (x + t, y + p));
    if plain > 0.0 {
        smp.push("obs.trace_overhead_frac", traced / plain - 1.0);
    }
}
