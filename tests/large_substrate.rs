//! The large-graph substrate, end to end: a graph must produce the
//! bit-identical minimum spanning forest no matter which representation it
//! traveled through (in-memory EdgeList, DIMACS text, msfb binary — narrow
//! or wide ids, mmap or heap backing), and every malformed input in the
//! corpus must be rejected with an error, never a panic or a wrong answer.

use std::io::Cursor;
use std::path::PathBuf;

use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig, MsfResult};
use msf_graph::binfmt::{self, BinGraph};
use msf_graph::generators::{
    powerlaw_graph, random_graph, rmat_graph, GeneratorConfig, PowerLawConfig, RmatConfig,
};
use msf_graph::{io, EdgeList};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msf-substrate-{}-{name}", std::process::id()))
}

fn fingerprint(r: &MsfResult) -> (Vec<u32>, u64, u32) {
    (r.edges.clone(), r.total_weight.to_bits(), r.components)
}

fn inputs() -> Vec<(&'static str, EdgeList)> {
    let cfg = GeneratorConfig::with_seed(31);
    vec![
        (
            "rmat scale=10 ef=8",
            rmat_graph(RmatConfig::graph500(10, 8, 31)).unwrap(),
        ),
        (
            "powerlaw n=1500 m=6000",
            powerlaw_graph(PowerLawConfig::new(1500, 6000, 31)).unwrap(),
        ),
        ("random n=2000 m=8000", random_graph(&cfg, 2_000, 8_000)),
    ]
}

/// DIMACS → binary → DIMACS → EdgeList: all four views of the same graph
/// give the bit-identical forest for every algorithm in the portfolio.
#[test]
fn forests_are_identical_across_every_representation() {
    for (name, g) in inputs() {
        // Through DIMACS text.
        let mut text = Vec::new();
        io::write_dimacs(&g, &mut text).unwrap();
        let via_dimacs = io::read_dimacs(Cursor::new(&text)).unwrap();
        assert_eq!(via_dimacs, g, "{name}: dimacs roundtrip");

        // Through the binary format, mmap-backed.
        let bin_path = tmp(&format!("{}.msfb", name.replace([' ', '='], "-")));
        binfmt::write_binary(&g, &bin_path).unwrap();
        let bin = BinGraph::open(&bin_path).unwrap();
        let via_bin = bin.to_edge_list().unwrap();
        assert_eq!(via_bin, g, "{name}: binary roundtrip");

        // Through wide (u64) ids.
        let wide_path = tmp(&format!("{}-wide.msfb", name.replace([' ', '='], "-")));
        binfmt::write_stream(
            &wide_path,
            g.num_vertices() as u64,
            true,
            g.edges()
                .iter()
                .map(|e| (u64::from(e.u), u64::from(e.v), e.w)),
        )
        .unwrap();
        let via_wide = BinGraph::open(&wide_path).unwrap().to_edge_list().unwrap();
        assert_eq!(via_wide, g, "{name}: wide binary roundtrip");

        let cfg = MsfConfig::with_threads(2);
        for algo in Algorithm::ALL {
            let reference = fingerprint(&minimum_spanning_forest(&g, algo, &cfg));
            for (how, h) in [
                ("dimacs", &via_dimacs),
                ("binary", &via_bin),
                ("wide binary", &via_wide),
            ] {
                assert_eq!(
                    reference,
                    fingerprint(&minimum_spanning_forest(h, algo, &cfg)),
                    "{name}: {algo} diverged through {how}"
                );
            }
        }
        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&wide_path).ok();
    }
}

/// The heap-backed loader (MSF_NO_MMAP path is env-global, so exercise the
/// equivalent `Bytes::heap_from_file` path indirectly: open the same file
/// twice and compare the materialized lists) and the narrow/wide pair must
/// agree under real pooled execution at several widths.
#[test]
fn narrow_and_wide_forests_agree_on_the_pool_matrix() {
    msf_pool::force_width(4);
    let g = rmat_graph(RmatConfig::graph500(11, 6, 77)).unwrap();
    let narrow_path = tmp("matrix-narrow.msfb");
    let wide_path = tmp("matrix-wide.msfb");
    binfmt::write_binary(&g, &narrow_path).unwrap();
    binfmt::write_stream(
        &wide_path,
        g.num_vertices() as u64,
        true,
        g.edges()
            .iter()
            .map(|e| (u64::from(e.u), u64::from(e.v), e.w)),
    )
    .unwrap();
    let narrow = BinGraph::open(&narrow_path).unwrap();
    let wide = BinGraph::open(&wide_path).unwrap();
    assert!(!narrow.wide() && wide.wide());
    let gn = narrow.to_edge_list().unwrap();
    let gw = wide.to_edge_list().unwrap();
    for p in [1, 2, 4, 8] {
        let cfg = MsfConfig::with_threads(p);
        for algo in Algorithm::PARALLEL {
            assert_eq!(
                fingerprint(&minimum_spanning_forest(&gn, algo, &cfg)),
                fingerprint(&minimum_spanning_forest(&gw, algo, &cfg)),
                "{algo} at p={p}: narrow and wide ids diverged"
            );
        }
    }
    std::fs::remove_file(&narrow_path).ok();
    std::fs::remove_file(&wide_path).ok();
}

/// The error each file of `tests/corpus/malformed` gets, word for word:
/// the first bad line in file order, with its byte offset.
const MALFORMED: [(&str, &str); 10] = [
    (
        "a-before-p.gr",
        "byte 0: a line before p line (missing p line)",
    ),
    ("bad-token.gr", "byte 19: a line missing u"),
    ("duplicate-p.gr", "byte 9: duplicate p line"),
    ("inf-weight.gr", "byte 9: edge 0: weights must be finite"),
    ("m-overflow.gr", "byte 57: more than the declared 1 edges"),
    ("nan-weight.gr", "byte 9: edge 0: weights must be finite"),
    (
        "out-of-range.gr",
        "byte 19: edge 1: endpoint 8 out of range for 3 vertices",
    ),
    (
        "self-loop.gr",
        "byte 9: edge 0: self-loops are not valid input edges (vertex 1)",
    ),
    (
        "truncated.gr",
        "p line declared 5 edges, found 2 (truncated file?)",
    ),
    ("zero-endpoint.gr", "byte 60: DIMACS vertices are 1-indexed"),
];

/// Every file in tests/corpus/malformed must be rejected by the DIMACS
/// parser with its exact error (no panic), the same on the pool and under
/// `msf_pool::with_sequential`, and none of them sniffs as binary.
#[test]
fn malformed_corpus_is_rejected() {
    msf_pool::force_width(4);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/malformed");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "gr") {
            continue;
        }
        seen += 1;
        assert!(
            !binfmt::is_binary_file(&path).unwrap(),
            "{path:?} must not sniff as binary"
        );
        let name = path.file_name().unwrap().to_str().unwrap();
        let expected = MALFORMED
            .iter()
            .find(|(file, _)| *file == name)
            .unwrap_or_else(|| panic!("{name}: add its expected error to MALFORMED"))
            .1;
        let parse = || {
            let file = std::fs::File::open(&path).unwrap();
            io::read_dimacs(std::io::BufReader::new(file))
                .expect_err(&format!("{path:?} must be rejected"))
                .to_string()
        };
        let pooled = parse();
        assert_eq!(pooled, msf_pool::with_sequential(parse), "{name}");
        assert_eq!(pooled, expected, "{name}");
    }
    assert_eq!(seen, MALFORMED.len(), "malformed corpus went missing");
}

/// A corrupt binary file must never load: flip any header field or payload
/// byte of a valid file and open() has to fail. (Complements the unit
/// tests in msf-graph with a sweep over *every* header byte.)
#[test]
fn corrupting_any_header_byte_is_detected() {
    let g = random_graph(&GeneratorConfig::with_seed(41), 60, 150);
    let path = tmp("header-sweep.msfb");
    binfmt::write_binary(&g, &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    assert!(BinGraph::open(&path).is_ok());
    let mut rejected = 0;
    for byte in 0..64 {
        for bit in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[byte] ^= bit;
            std::fs::write(&path, &bad).unwrap();
            if BinGraph::open(&path).is_err() {
                rejected += 1;
            }
        }
    }
    // Not every single-bit header flip is necessarily fatal in principle,
    // but with magic + version + exact-size + checksums + a zeroed
    // reserved field, all of them are for this file.
    assert_eq!(rejected, 128, "some header corruption went undetected");
    std::fs::remove_file(&path).ok();
}
