//! Both ingest paths run on the pool: `.msfb` validation and
//! materialisation, and the block-parallel DIMACS parser. Whatever the
//! schedule, they must return what a one-thread load returns: the same
//! edge lists and ids, and the same error strings with the same byte
//! offsets. Every test here compares a pooled load against the same load
//! under `msf_pool::with_sequential`.

use std::path::PathBuf;

use msf_graph::binfmt::{self, BinGraph};
use msf_graph::generators::{random_graph, GeneratorConfig};
use msf_graph::{io, EdgeList};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msf-parallel-ingest-{}-{name}", std::process::id()))
}

/// Run `load` on a pool of 4 workers and under the sequential escape hatch,
/// assert that both give the same result, and return it.
fn both<T: PartialEq + std::fmt::Debug>(
    load: impl Fn() -> std::io::Result<T>,
) -> Result<T, String> {
    msf_pool::force_width(4);
    let pooled = load().map_err(|e| e.to_string());
    let seq = msf_pool::with_sequential(&load).map_err(|e| e.to_string());
    assert_eq!(pooled, seq, "pooled and sequential loads differ");
    pooled
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `m` pseudo-random edges over `n ≥ 2` vertices, no self-loops.
fn triples(n: u64, m: usize) -> Vec<(u64, u64, f64)> {
    (0..m as u64)
        .map(|i| {
            let x = splitmix(i);
            let u = x % n;
            let v = (u + 1 + (x >> 32) % (n - 1)) % n;
            (u, v, (x >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// FNV-1a 64, the `.msfb` checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fewest edges one `to_edge_list` task builds.
const LEAF: usize = 1 << 14;

#[test]
fn msfb_loads_match_sequential_loads_at_every_size() {
    for m in [0, 1, LEAF - 1, LEAF, LEAF + 1, 1 << 20] {
        let n = (m as u64 / 2).max(2);
        let edges = triples(n, m);
        let expected = EdgeList::from_triples(
            n as usize,
            edges.iter().map(|&(u, v, w)| (u as u32, v as u32, w)),
        );
        for wide in [false, true] {
            let path = tmp(&format!("sizes-{m}-{wide}.msfb"));
            binfmt::write_stream(&path, n, wide, edges.iter().copied()).unwrap();
            let g = both(|| BinGraph::open(&path)?.to_edge_list()).unwrap();
            assert_eq!(g, expected, "m = {m}, wide = {wide}");
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Write `m` edges over `n` vertices narrow, apply `mutate` to the bytes,
/// and return the error a load reports.
fn load_error(name: &str, n: u64, m: usize, mutate: impl Fn(&mut Vec<u8>)) -> String {
    let path = tmp(name);
    binfmt::write_stream(&path, n, false, triples(n, m)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    mutate(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let err = both(|| BinGraph::open(&path).map(|g| g.num_edges())).unwrap_err();
    std::fs::remove_file(&path).ok();
    err
}

/// Array offsets of a narrow file with `m` edges: `(u, v, w)`.
fn arrays(m: usize) -> (usize, usize, usize) {
    let ids = (4 * m).div_ceil(8) * 8;
    (64, 64 + ids, 64 + 2 * ids)
}

/// Recompute the three array checksums and the header checksum.
fn fix_checksums(b: &mut [u8], m: usize) {
    let (u, v, w) = arrays(m);
    let crcs = [
        fnv64(&b[u..u + 4 * m]),
        fnv64(&b[v..v + 4 * m]),
        fnv64(&b[w..w + 8 * m]),
    ];
    for (k, crc) in crcs.into_iter().enumerate() {
        b[32 + 8 * k..40 + 8 * k].copy_from_slice(&crc.to_le_bytes());
    }
    let header = fnv64(&b[..56]);
    b[56..64].copy_from_slice(&header.to_le_bytes());
}

#[test]
fn checksum_errors_keep_their_order_across_the_two_tasks() {
    let m = 3 * LEAF;
    let (u, v, w) = arrays(m);
    let err = load_error("crc-uw.msfb", 1000, m, |b| {
        b[u + 5] ^= 1;
        b[w + 8 * (m - 1)] ^= 1;
    });
    assert_eq!(err, "u array checksum mismatch (corrupt file)");
    let err = load_error("crc-vw.msfb", 1000, m, |b| {
        b[v + 4 * (m - 1)] ^= 1;
        b[w] ^= 1;
    });
    assert_eq!(err, "v array checksum mismatch (corrupt file)");
}

#[test]
fn a_bad_endpoint_beats_an_earlier_nan_weight() {
    let (n, m) = (1000u64, 3 * LEAF);
    let (u, _, w) = arrays(m);
    let bad = m - 7;
    let err = load_error("endpoint-nan.msfb", n, m, |b| {
        b[u + 4 * bad..u + 4 * bad + 4].copy_from_slice(&(n as u32).to_le_bytes());
        b[w + 8 * 3..w + 8 * 4].copy_from_slice(&f64::NAN.to_le_bytes());
        fix_checksums(b, m);
    });
    assert_eq!(
        err,
        format!("edge {bad}: endpoint {n} out of range for {n} vertices")
    );
    // Without the endpoint fault, the NaN is what the load reports.
    let err = load_error("nan.msfb", n, m, |b| {
        b[w + 8 * 3..w + 8 * 4].copy_from_slice(&f64::NAN.to_le_bytes());
        fix_checksums(b, m);
    });
    assert_eq!(err, "edge 3: weights must be finite");
}

/// The chunk the DIMACS parser reads at a time.
const CHUNK: usize = 1 << 20;

/// `text` with the line that starts at `at` overwritten by `line`, padded
/// with spaces to the old line's length so no other offset moves.
fn with_line(text: &str, at: usize, line: &str) -> String {
    let len = text[at..].find('\n').unwrap();
    assert!(
        line.len() <= len,
        "{line:?} is longer than the line it replaces"
    );
    let mut out = text.to_string();
    out.replace_range(at..at + len, &format!("{line:len$}"));
    out
}

#[test]
fn multi_chunk_dimacs_matches_sequential_parse() {
    let g = random_graph(&GeneratorConfig::with_seed(23), 60_000, 120_000);
    let mut buf = Vec::new();
    io::write_dimacs(&g, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.len() > 3 * CHUNK, "the input must span three chunks");
    assert_eq!(both(|| io::read_dimacs(text.as_bytes())).unwrap(), g);
    let crlf = text.replace('\n', "\r\n");
    assert_eq!(both(|| io::read_dimacs(crlf.as_bytes())).unwrap(), g);

    // Faults at the first line of the second and third chunks, and on the
    // last line. `starts[i]` is the offset of edge line i; the edge lines
    // follow the two header lines.
    let starts: Vec<usize> = text
        .match_indices('\n')
        .skip(1)
        .map(|(i, _)| i + 1)
        .filter(|&s| s < text.len())
        .collect();
    let first_at_or_after = |pos: usize| *starts.iter().find(|&&s| s >= pos).unwrap();
    let second = first_at_or_after(text[..CHUNK].rfind('\n').unwrap() + 1);
    let third = first_at_or_after(text[..second + CHUNK].rfind('\n').unwrap() + 1);
    let last = *starts.last().unwrap();
    for at in [second, third, last] {
        let edge = starts.iter().position(|&s| s == at).unwrap();
        let bad = with_line(&text, at, "a 7 7 1.0");
        assert_eq!(
            both(|| io::read_dimacs(bad.as_bytes())).unwrap_err(),
            format!("byte {at}: edge {edge}: self-loops are not valid input edges (vertex 6)")
        );
        let bad = with_line(&text, at, "c skipped");
        assert!(both(|| io::read_dimacs(bad.as_bytes()))
            .unwrap_err()
            .ends_with("found 119999 (truncated file?)"));
    }
    // An excess edge in the second chunk beats a fault in the third.
    let edge = starts.iter().position(|&s| s == second).unwrap();
    let declared = format!("p sp 60000 {edge:06}");
    let bad = with_line(&text, third, "x").replacen("p sp 60000 120000", &declared, 1);
    assert_eq!(
        both(|| io::read_dimacs(bad.as_bytes())).unwrap_err(),
        format!("byte {second}: more than the declared {edge} edges")
    );
}
