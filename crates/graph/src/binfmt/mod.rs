//! The compact binary on-disk graph format (`.msfb`) and its zero-copy
//! loader.
//!
//! Text formats gate the scale leap: a 100M-edge DIMACS file is gigabytes
//! of decimal that must be re-parsed on every run. This format stores the
//! structure-of-arrays edge list directly, so loading is an `mmap` plus an
//! O(m) validation scan and the typed views (`u[]`, `v[]`, `w[]`) alias
//! the page cache with zero copies.
//!
//! ## Layout (little-endian, version 1)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "MSFBIN\r\n"  (the \r\n catches text-mode mangling)
//!      8     4  version          u32 = 1
//!     12     4  flags            u32   bit0 WIDE (u64 ids), bit1 WEIGHT_SORTED
//!     16     8  n                u64   vertex count
//!     24     8  m                u64   edge count
//!     32     8  fnv64(u array)   u64   FNV-1a over the raw array bytes
//!     40     8  fnv64(v array)   u64
//!     48     8  fnv64(w array)   u64
//!     56     8  fnv64(header)    u64   over bytes [0, 56) — the array
//!                                      checksums do not cover n/m/flags,
//!                                      so the header guards itself
//!     64     …  u array          m × (4 | 8) bytes, zero-padded to 8
//!      …     …  v array          m × (4 | 8) bytes, zero-padded to 8
//!      …     …  w array          m × 8 bytes (f64 bits)
//! ```
//!
//! Edge ids are implicit in position. Every array offset is a multiple of
//! 8, so the mapped views are always aligned. [`BinGraph::open`] validates
//! the header (magic, version, known flags, exact file size with
//! overflow-checked arithmetic), the three checksums, and every edge
//! (endpoints `< n`, no self-loops, finite weights) before returning —
//! a corrupt or hostile file is an `io::Error`, never UB and never a
//! downstream panic.
//!
//! Validation is two pool tasks joined: one pass over the id arrays runs
//! the u and v checksum chains interleaved plus the endpoint scan, and one
//! pass over the weights runs the w chain plus the finiteness scan. Each
//! FNV-1a chain is byte-serial, so the w chain (8 bytes an edge) is the
//! floor of `open`. Both tasks run to the end, and the errors keep one
//! order: u, v and w checksum, then endpoints, then weights.
//! [`BinGraph::to_edge_list`] then builds the edge list with
//! `msf_pool::map_collect`, without re-checking what `open` checked.
//!
//! The writer streams: `u` goes straight to the output file while `v` and
//! `w` spill to sibling temp files that are concatenated (and deleted) on
//! [`BinWriter::finish`], so emitting a graph needs O(1) memory no matter
//! how many edges — generators can produce out-of-core graphs directly.

pub mod bytes;

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::edge::Edge;
use crate::edgelist::{check_id_space, EdgeList, GraphBuildError};
use crate::vertexid::VertexId;
use bytes::Bytes;
use msf_primitives::obs::metrics::{LazyCounter, LazyHistogram};
use msf_primitives::pool;

static INGEST_BIN_BYTES: LazyCounter = LazyCounter::new("ingest.bin.bytes");
static INGEST_BIN_EDGES: LazyCounter = LazyCounter::new("ingest.bin.edges");
static INGEST_BIN_WALL: LazyHistogram = LazyHistogram::new("ingest.bin.wall_ns");

/// The 8-byte magic at offset 0.
pub const MAGIC: [u8; 8] = *b"MSFBIN\r\n";
/// Current format version.
pub const VERSION: u32 = 1;
/// Header size in bytes; the `u` array starts here.
pub const HEADER_LEN: usize = 64;

/// `flags` bit 0: vertex ids are u64 (otherwise u32).
pub const FLAG_WIDE: u32 = 1 << 0;
/// `flags` bit 1: edges are stored in nondecreasing weight order.
pub const FLAG_WEIGHT_SORTED: u32 = 1 << 1;
const KNOWN_FLAGS: u32 = FLAG_WIDE | FLAG_WEIGHT_SORTED;

fn bad(msg: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Incremental FNV-1a (64-bit) — cheap, streaming, and good enough to catch
/// torn writes and bit rot; this is an integrity check, not authentication.
#[derive(Debug, Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut f = Fnv64::new();
    f.update(bytes);
    f.finish()
}

fn pad8(len: u64) -> u64 {
    len.div_ceil(8) * 8
}

/// Parsed, bounds-checked header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Vertex count.
    pub n: u64,
    /// Edge count.
    pub m: u64,
    /// Raw flags word.
    pub flags: u32,
    crc_u: u64,
    crc_v: u64,
    crc_w: u64,
}

impl Header {
    /// True when vertex ids are stored as u64.
    pub fn wide(&self) -> bool {
        self.flags & FLAG_WIDE != 0
    }

    /// True when edges are stored in nondecreasing weight order.
    pub fn weight_sorted(&self) -> bool {
        self.flags & FLAG_WEIGHT_SORTED != 0
    }

    fn id_width(&self) -> u64 {
        if self.wide() {
            8
        } else {
            4
        }
    }

    /// Exact file length this header demands (checked arithmetic: a
    /// hostile `m` cannot overflow into a bogus small expectation).
    fn expected_len(&self) -> std::io::Result<u64> {
        let arr = self
            .m
            .checked_mul(self.id_width())
            .ok_or_else(|| bad("edge count overflows the id array size"))?;
        let w = self
            .m
            .checked_mul(8)
            .ok_or_else(|| bad("edge count overflows the weight array size"))?;
        pad8(arr)
            .checked_mul(2)
            .and_then(|two| two.checked_add(w))
            .and_then(|payload| payload.checked_add(HEADER_LEN as u64))
            .ok_or_else(|| bad("declared sizes overflow the file length"))
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(&MAGIC);
        h[8..12].copy_from_slice(&VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&self.flags.to_le_bytes());
        h[16..24].copy_from_slice(&self.n.to_le_bytes());
        h[24..32].copy_from_slice(&self.m.to_le_bytes());
        h[32..40].copy_from_slice(&self.crc_u.to_le_bytes());
        h[40..48].copy_from_slice(&self.crc_v.to_le_bytes());
        h[48..56].copy_from_slice(&self.crc_w.to_le_bytes());
        let crc = fnv64(&h[0..56]);
        h[56..64].copy_from_slice(&crc.to_le_bytes());
        h
    }

    fn decode(h: &[u8]) -> std::io::Result<Header> {
        if h.len() < HEADER_LEN {
            return Err(bad(format!(
                "file too short for a header ({} bytes < {HEADER_LEN})",
                h.len()
            )));
        }
        let le32 = |o: usize| u32::from_le_bytes(h[o..o + 4].try_into().unwrap());
        let le64 = |o: usize| u64::from_le_bytes(h[o..o + 8].try_into().unwrap());
        if h[0..8] != MAGIC {
            return Err(bad("bad magic: not an msfb graph file"));
        }
        let version = le32(8);
        if version != VERSION {
            return Err(bad(format!(
                "unsupported format version {version} (this build reads {VERSION})"
            )));
        }
        let flags = le32(12);
        if flags & !KNOWN_FLAGS != 0 {
            return Err(bad(format!(
                "unknown flag bits {:#x}",
                flags & !KNOWN_FLAGS
            )));
        }
        if le64(56) != fnv64(&h[0..56]) {
            return Err(bad("header checksum mismatch (corrupt header)"));
        }
        Ok(Header {
            n: le64(16),
            m: le64(24),
            flags,
            crc_u: le64(32),
            crc_v: le64(40),
            crc_w: le64(48),
        })
    }
}

/// Streaming writer: push edges one at a time, O(1) memory.
///
/// Endpoint/self-loop/finiteness validation happens at `push`, so a
/// finished file always passes [`BinGraph::open`]'s scan. Weight-sortedness
/// is tracked as pushes happen and lands in the flags automatically.
pub struct BinWriter {
    out: BufWriter<File>,
    spill_v: BufWriter<File>,
    spill_w: BufWriter<File>,
    n: u64,
    m: u64,
    wide: bool,
    sorted: bool,
    last_w: f64,
    crc_u: Fnv64,
    crc_v: Fnv64,
    crc_w: Fnv64,
    // Last, so the files above are closed before it removes them.
    files: WriterFiles,
}

/// The paths a [`BinWriter`] creates. Dropping this removes the spill
/// files, and the output too unless [`BinWriter::finish`] completed, so a
/// failed push or write leaves nothing behind.
struct WriterFiles {
    out: PathBuf,
    spill_v: PathBuf,
    spill_w: PathBuf,
    finished: bool,
}

impl Drop for WriterFiles {
    fn drop(&mut self) {
        std::fs::remove_file(&self.spill_v).ok();
        std::fs::remove_file(&self.spill_w).ok();
        if !self.finished {
            std::fs::remove_file(&self.out).ok();
        }
    }
}

impl BinWriter {
    /// Create `path`, writing a graph over `n` vertices. `wide` selects
    /// u64 vertex ids; narrow files require `n ≤ 2³²`.
    pub fn create(path: impl AsRef<Path>, n: u64, wide: bool) -> std::io::Result<BinWriter> {
        let path = path.as_ref();
        if !wide && (n as u128) > <u32 as VertexId>::MAX_COUNT {
            return Err(bad(format!("{n} vertices do not fit u32 ids; use wide")));
        }
        let mut out = BufWriter::new(File::create(path)?);
        // From here on, an early return removes whatever was created.
        let files = WriterFiles {
            out: path.to_path_buf(),
            spill_v: path.with_extension("msfb.spill-v"),
            spill_w: path.with_extension("msfb.spill-w"),
            finished: false,
        };
        // Placeholder header; finish() seeks back and writes the real one.
        out.write_all(&[0u8; HEADER_LEN])?;
        let spill_v = BufWriter::new(File::create(&files.spill_v)?);
        let spill_w = BufWriter::new(File::create(&files.spill_w)?);
        Ok(BinWriter {
            out,
            spill_v,
            spill_w,
            n,
            m: 0,
            wide,
            sorted: true,
            last_w: f64::NEG_INFINITY,
            crc_u: Fnv64::new(),
            crc_v: Fnv64::new(),
            crc_w: Fnv64::new(),
            files,
        })
    }

    /// Validate and append one edge.
    pub fn push(&mut self, u: u64, v: u64, w: f64) -> std::io::Result<()> {
        let index = self.m as usize;
        if u >= self.n || v >= self.n {
            return Err(GraphBuildError::EndpointOutOfRange {
                index,
                endpoint: u.max(v),
                n: self.n,
            }
            .into());
        }
        if u == v {
            return Err(GraphBuildError::SelfLoop { index, vertex: u }.into());
        }
        if !w.is_finite() {
            return Err(GraphBuildError::NonFiniteWeight { index }.into());
        }
        if self.wide {
            let (ub, vb) = (u.to_le_bytes(), v.to_le_bytes());
            self.crc_u.update(&ub);
            self.crc_v.update(&vb);
            self.out.write_all(&ub)?;
            self.spill_v.write_all(&vb)?;
        } else {
            let (ub, vb) = ((u as u32).to_le_bytes(), (v as u32).to_le_bytes());
            self.crc_u.update(&ub);
            self.crc_v.update(&vb);
            self.out.write_all(&ub)?;
            self.spill_v.write_all(&vb)?;
        }
        let wb = w.to_le_bytes();
        self.crc_w.update(&wb);
        self.spill_w.write_all(&wb)?;
        if w < self.last_w {
            self.sorted = false;
        }
        self.last_w = w;
        self.m += 1;
        Ok(())
    }

    /// Edges pushed so far.
    pub fn len(&self) -> u64 {
        self.m
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Concatenate the spilled arrays, write the final header, and delete
    /// the temp files. Returns `(n, m, weight_sorted)`. On an error the
    /// output is deleted too.
    pub fn finish(self) -> std::io::Result<(u64, u64, bool)> {
        let BinWriter {
            mut out,
            spill_v,
            spill_w,
            n,
            m,
            wide,
            sorted,
            crc_u,
            crc_v,
            crc_w,
            mut files,
            ..
        } = self;
        let width = if wide { 8u64 } else { 4 };
        let pad = (pad8(m * width) - m * width) as usize;
        out.write_all(&[0u8; 8][..pad])?;
        // Append v (padded), then w, streaming through a fixed buffer.
        let mut append = |spill: BufWriter<File>, path: &Path, pad: usize| -> std::io::Result<()> {
            let mut f = spill.into_inner().map_err(|e| e.into_error())?;
            f.flush()?;
            drop(f);
            let mut src = File::open(path)?;
            std::io::copy(&mut src, &mut out)?;
            out.write_all(&[0u8; 8][..pad])?;
            Ok(())
        };
        append(spill_v, &files.spill_v, pad)?;
        append(spill_w, &files.spill_w, 0)?;
        let flags = if wide { FLAG_WIDE } else { 0 }
            | if sorted && m > 0 {
                FLAG_WEIGHT_SORTED
            } else {
                0
            };
        let header = Header {
            n,
            m,
            flags,
            crc_u: crc_u.finish(),
            crc_v: crc_v.finish(),
            crc_w: crc_w.finish(),
        };
        out.seek(SeekFrom::Start(0))?;
        out.write_all(&header.encode())?;
        out.flush()?;
        files.finished = true;
        Ok((n, m, header.weight_sorted()))
    }
}

/// Write an in-memory edge list as a narrow binary file.
pub fn write_binary(g: &EdgeList, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut w = BinWriter::create(path, g.num_vertices() as u64, false)?;
    for e in g.edges() {
        w.push(u64::from(e.u), u64::from(e.v), e.w)?;
    }
    w.finish()?;
    Ok(())
}

/// Stream `(u, v, w)` triples into a binary file — the out-of-core path
/// the RMAT/power-law generators use. Returns the edge count written.
pub fn write_stream(
    path: impl AsRef<Path>,
    n: u64,
    wide: bool,
    edges: impl IntoIterator<Item = (u64, u64, f64)>,
) -> std::io::Result<u64> {
    let mut w = BinWriter::create(path, n, wide)?;
    for (u, v, wt) in edges {
        w.push(u, v, wt)?;
    }
    let (_, m, _) = w.finish()?;
    Ok(m)
}

/// A validated, memory-mapped binary graph. All accessors are zero-copy
/// views into the mapping.
pub struct BinGraph {
    map: Bytes,
    header: Header,
}

impl std::fmt::Debug for BinGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinGraph")
            .field("header", &self.header)
            .field("mmap", &self.map.is_mmap())
            .finish()
    }
}

impl BinGraph {
    /// Open and fully validate `path`. See the module docs for what is
    /// checked; after `open` succeeds every view is a valid simple-graph
    /// edge array with finite weights.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<BinGraph> {
        let start = std::time::Instant::now();
        let mut file = File::open(path)?;
        let map = Bytes::from_file(&mut file)?;
        let g = Self::validate(map)?;
        INGEST_BIN_BYTES.add(g.map.as_slice().len() as u64);
        INGEST_BIN_EDGES.add(g.header.m);
        INGEST_BIN_WALL.record(start.elapsed().as_nanos() as u64);
        Ok(g)
    }

    fn validate(map: Bytes) -> std::io::Result<BinGraph> {
        let data = map.as_slice();
        let header = Header::decode(data)?;
        let expected = header.expected_len()?;
        if data.len() as u64 != expected {
            return Err(bad(format!(
                "file is {} bytes but the header demands {expected}",
                data.len()
            )));
        }
        let g = BinGraph { map, header };
        // Two tasks: the u and v chains with the endpoint scan, and the w
        // chain with the finiteness scan. Each runs to its end and keeps its
        // first bad edge, so the errors below keep one order however the
        // tasks are scheduled.
        let ((crc_u, crc_v, bad_endpoints), (crc_w, bad_weight)) = pool::join(
            || {
                if g.header.wide() {
                    g.scan_endpoints::<u64>()
                } else {
                    g.scan_endpoints::<u32>()
                }
            },
            || g.scan_weights(),
        );
        if crc_u != header.crc_u {
            return Err(bad("u array checksum mismatch (corrupt file)"));
        }
        if crc_v != header.crc_v {
            return Err(bad("v array checksum mismatch (corrupt file)"));
        }
        if crc_w != header.crc_w {
            return Err(bad("w array checksum mismatch (corrupt file)"));
        }
        if let Some(e) = bad_endpoints {
            return Err(e.into());
        }
        if let Some(index) = bad_weight {
            return Err(GraphBuildError::NonFiniteWeight { index }.into());
        }
        Ok(g)
    }

    /// One pass over the id arrays: the u and v checksums, interleaved so
    /// that the two byte-serial chains overlap, and the first edge whose
    /// endpoints are out of range or equal.
    fn scan_endpoints<V: VertexId>(&self) -> (u64, u64, Option<GraphBuildError>) {
        let (ur, vr, _) = self.ranges();
        let data = self.map.as_slice();
        let (us, vs) = self
            .endpoints::<V>()
            .expect("scan width matches header width");
        let width = std::mem::size_of::<V>();
        let ids = data[ur]
            .chunks_exact(width)
            .zip(data[vr].chunks_exact(width));
        let (mut crc_u, mut crc_v) = (Fnv64::new(), Fnv64::new());
        let mut first_bad = None;
        let n = self.header.n;
        for (i, ((ub, vb), (u, v))) in ids.zip(us.iter().zip(vs)).enumerate() {
            crc_u.update(ub);
            crc_v.update(vb);
            let (u, v) = (u.to_u64(), v.to_u64());
            if first_bad.is_none() {
                if u >= n || v >= n {
                    first_bad = Some(GraphBuildError::EndpointOutOfRange {
                        index: i,
                        endpoint: u.max(v),
                        n,
                    });
                } else if u == v {
                    first_bad = Some(GraphBuildError::SelfLoop {
                        index: i,
                        vertex: u,
                    });
                }
            }
        }
        (crc_u.finish(), crc_v.finish(), first_bad)
    }

    /// One pass over the weight array: its checksum and the index of the
    /// first non-finite weight.
    fn scan_weights(&self) -> (u64, Option<usize>) {
        let (_, _, wr) = self.ranges();
        let mut crc = Fnv64::new();
        let mut first_bad = None;
        let bytes = self.map.as_slice()[wr].chunks_exact(8);
        for (i, (wb, w)) in bytes.zip(self.weights()).enumerate() {
            crc.update(wb);
            if first_bad.is_none() && !w.is_finite() {
                first_bad = Some(i);
            }
        }
        (crc.finish(), first_bad)
    }

    /// Byte ranges of the three arrays (pads excluded).
    fn ranges(
        &self,
    ) -> (
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
    ) {
        let width = self.header.id_width();
        let arr = (self.header.m * width) as usize;
        let padded = pad8(self.header.m * width) as usize;
        let wlen = (self.header.m * 8) as usize;
        let u0 = HEADER_LEN;
        let v0 = u0 + padded;
        let w0 = v0 + padded;
        (u0..u0 + arr, v0..v0 + arr, w0..w0 + wlen)
    }

    /// The header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> u64 {
        self.header.n
    }

    /// Edge count.
    pub fn num_edges(&self) -> u64 {
        self.header.m
    }

    /// True when ids are stored wide (u64).
    pub fn wide(&self) -> bool {
        self.header.wide()
    }

    /// True when the backing is a real memory map.
    pub fn is_mmap(&self) -> bool {
        self.map.is_mmap()
    }

    /// Zero-copy endpoint arrays at width `V`; `None` when the file's width
    /// differs (no silent widening — callers pick the typed path).
    pub fn endpoints<V: VertexId>(&self) -> Option<(&[V], &[V])> {
        if V::WIDE != self.header.wide() {
            return None;
        }
        let (ur, vr, _) = self.ranges();
        let data = self.map.as_slice();
        // Infallible after validate(): ranges are 8-aligned and sized.
        let us = bytes::cast_slice::<V>(&data[ur]).expect("validated array");
        let vs = bytes::cast_slice::<V>(&data[vr]).expect("validated array");
        Some((us, vs))
    }

    /// Zero-copy weight array.
    pub fn weights(&self) -> &[f64] {
        let (_, _, wr) = self.ranges();
        bytes::cast_slice::<f64>(&self.map.as_slice()[wr]).expect("validated array")
    }

    /// Materialize the AoS [`EdgeList`] the compute kernels consume, on the
    /// pool. Works for wide files too as long as `n` and `m` fit the u32 id
    /// space; [`BinGraph::open`] has already validated every edge.
    pub fn to_edge_list(&self) -> std::io::Result<EdgeList> {
        let n = usize::try_from(self.header.n)
            .map_err(|_| bad("vertex count exceeds the address space"))?;
        let m = usize::try_from(self.header.m)
            .map_err(|_| bad("edge count exceeds the address space"))?;
        check_id_space(n, m)?;
        let edges = match self.endpoints::<u32>() {
            Some((us, vs)) => edges_of(us, vs, self.weights()),
            None => {
                let (us, vs) = self.endpoints::<u64>().expect("one width matches");
                edges_of(us, vs, self.weights())
            }
        };
        Ok(EdgeList::from_validated(n, edges))
    }
}

/// Fewest edges one `to_edge_list` task builds.
const EDGE_GRAIN: usize = 1 << 14;

/// Edge `i` is `(us[i], vs[i], ws[i])` with id `i`. The caller has checked
/// that ids and the edge count fit u32.
fn edges_of<V: VertexId>(us: &[V], vs: &[V], ws: &[f64]) -> Vec<Edge> {
    pool::map_collect(ws.len(), EDGE_GRAIN, |i| {
        Edge::new(
            us[i].to_u64() as u32,
            vs[i].to_u64() as u32,
            ws[i],
            i as u32,
        )
    })
}

/// Sniff whether `path` starts with the binary magic (used by the CLI to
/// auto-detect formats).
pub fn is_binary_file(path: impl AsRef<Path>) -> std::io::Result<bool> {
    let mut f = File::open(path)?;
    let mut head = [0u8; 8];
    match f.read_exact(&mut head) {
        Ok(()) => Ok(head == MAGIC),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_graph, GeneratorConfig};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("msf-binfmt-{}-{name}", std::process::id()))
    }

    #[test]
    fn round_trips_an_edge_list() {
        let g = random_graph(&GeneratorConfig::with_seed(4), 80, 200);
        let path = tmp("roundtrip.msfb");
        write_binary(&g, &path).unwrap();
        let bin = BinGraph::open(&path).unwrap();
        assert_eq!(bin.num_vertices(), 80);
        assert_eq!(bin.num_edges(), 200);
        assert!(!bin.wide());
        assert_eq!(bin.to_edge_list().unwrap(), g);
        assert!(is_binary_file(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wide_files_round_trip_and_interconvert() {
        let g = random_graph(&GeneratorConfig::with_seed(6), 50, 120);
        let path = tmp("wide.msfb");
        write_stream(
            &path,
            50,
            true,
            g.edges()
                .iter()
                .map(|e| (u64::from(e.u), u64::from(e.v), e.w)),
        )
        .unwrap();
        let bin = BinGraph::open(&path).unwrap();
        assert!(bin.wide());
        assert!(bin.endpoints::<u32>().is_none());
        assert!(bin.endpoints::<u64>().is_some());
        assert_eq!(bin.to_edge_list().unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wide_files_hold_more_vertices_than_u32_ids_address() {
        // Representable, not materialized: opening allocates nothing per
        // vertex, and only the conversion to compute ids refuses.
        let n = (1u64 << 32) + 1;
        let path = tmp("huge.msfb");
        write_stream(&path, n, true, [(0, n - 1, 1.0), (1, 1 << 32, 2.0)]).unwrap();
        let bin = BinGraph::open(&path).unwrap();
        assert_eq!(bin.num_vertices(), n);
        let err = bin.to_edge_list().unwrap_err();
        assert!(
            err.to_string().contains("exceeds the u32 id space"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_writes_leave_no_files_behind() {
        let dir = tmp("leak");
        std::fs::create_dir_all(&dir).unwrap();
        // The second edge's endpoint is out of range: the push fails and
        // the unfinished writer is dropped.
        let err = write_stream(dir.join("g.msfb"), 3, false, [(0, 1, 1.0), (0, 9, 1.0)]);
        assert!(err.is_err());
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "left behind: {left:?}");
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn weight_sorted_flag_tracks_push_order() {
        let path = tmp("sorted.msfb");
        let mut w = BinWriter::create(&path, 4, false).unwrap();
        w.push(0, 1, 1.0).unwrap();
        w.push(1, 2, 2.0).unwrap();
        w.push(2, 3, 3.0).unwrap();
        let (_, _, sorted) = w.finish().unwrap();
        assert!(sorted);
        assert!(BinGraph::open(&path).unwrap().header().weight_sorted());
        let mut w = BinWriter::create(&path, 4, false).unwrap();
        w.push(0, 1, 2.0).unwrap();
        w.push(1, 2, 1.0).unwrap();
        let (_, _, sorted) = w.finish().unwrap();
        assert!(!sorted);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_validates_pushes() {
        let path = tmp("validate.msfb");
        let mut w = BinWriter::create(&path, 3, false).unwrap();
        assert!(w.push(0, 3, 1.0).is_err(), "endpoint out of range");
        assert!(w.push(1, 1, 1.0).is_err(), "self-loop");
        assert!(w.push(0, 1, f64::NAN).is_err(), "nan weight");
        assert!(w.push(0, 1, f64::INFINITY).is_err(), "inf weight");
        w.push(0, 1, 1.0).unwrap();
        w.finish().unwrap();
        assert!(
            BinWriter::create(&path, 1 << 33, false).is_err(),
            "narrow cap"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corruption() {
        let g = random_graph(&GeneratorConfig::with_seed(8), 30, 60);
        let path = tmp("corrupt.msfb");
        write_binary(&g, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let reject = |mutate: &dyn Fn(&mut Vec<u8>), why: &str| {
            let mut bytes = good.clone();
            mutate(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            assert!(BinGraph::open(&path).is_err(), "must reject: {why}");
        };
        reject(&|b| b[0] = b'X', "bad magic");
        reject(&|b| b[8] = 9, "bad version");
        reject(&|b| b[12] |= 0x80, "unknown flag");
        reject(&|b| b[60] = 1, "tampered header checksum");
        reject(&|b| b[17] ^= 0x80, "tampered vertex count");
        reject(&|b| b.truncate(40), "truncated header");
        reject(&|b| b.truncate(b.len() - 8), "truncated payload");
        reject(&|b| b.extend_from_slice(&[0; 8]), "trailing garbage");
        reject(&|b| b[24] = 0xFF, "edge count vs file size");
        // n smaller than a stored endpoint: the endpoint scan must fire
        // (pick n = 1 so every edge is out of range).
        reject(
            &|b| {
                b[16..24].copy_from_slice(&1u64.to_le_bytes());
            },
            "endpoint >= n",
        );
        // Flip one payload byte: a checksum must catch it.
        reject(&|b| *b.last_mut().unwrap() ^= 0x01, "weight bit flip");
        reject(&|b| b[HEADER_LEN] ^= 0x01, "endpoint bit flip");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_nan_weight_with_fixed_checksum() {
        // A corrupt file whose checksums are *valid* but whose weight is
        // NaN must still be rejected by the finiteness scan.
        let path = tmp("nan.msfb");
        let mut w = BinWriter::create(&path, 2, false).unwrap();
        w.push(0, 1, 1.0).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let wlen = bytes.len();
        bytes[wlen - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        let crc = fnv64(&bytes[wlen - 8..]);
        bytes[48..56].copy_from_slice(&crc.to_le_bytes());
        let hcrc = fnv64(&bytes[0..56]);
        bytes[56..64].copy_from_slice(&hcrc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = BinGraph::open(&path).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_round_trips() {
        let path = tmp("empty.msfb");
        let w = BinWriter::create(&path, 5, false).unwrap();
        w.finish().unwrap();
        let bin = BinGraph::open(&path).unwrap();
        assert_eq!(bin.num_vertices(), 5);
        assert_eq!(bin.num_edges(), 0);
        assert!(!bin.header().weight_sorted());
        assert_eq!(bin.to_edge_list().unwrap().num_edges(), 0);
        std::fs::remove_file(&path).ok();
    }
}
