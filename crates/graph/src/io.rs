//! Streaming DIMACS graph I/O.
//!
//! The 9th DIMACS shortest-path format adapted to undirected weighted
//! graphs, as the original `hpc.ece.unm.edu` release consumed:
//!
//! ```text
//! c comment lines
//! p sp <n> <m>
//! a <u> <v> <w>        (1-indexed endpoints, one line per undirected edge)
//! ```
//!
//! The parser streams, and the full text is never resident: it reads
//! newline-aligned chunks of at most 1 MiB (longer only to hold a longer
//! line) into one reusable buffer. Past the `p` line it cuts each chunk at
//! newlines into about eight blocks per pool worker, parses the blocks on
//! the pool into per-block edge buffers that are reused from chunk to
//! chunk, and appends them in file order, so edge ids are file positions.
//! Tokens are parsed straight from the bytes; besides the fixed buffers,
//! the only O(input) allocation is the edge list itself, reserved once
//! from the declared edge count. A 100M-edge file therefore costs one pass
//! and zero per-line heap traffic.
//! Errors carry the byte offset of the offending line, and the parser
//! reports exactly what a line-at-a-time parse would: the first bad line in
//! file order.
//!
//! Validation happens *at the boundary*: endpoints are checked against the
//! declared vertex count, edge counts against the declared `m` (in both
//! directions — early abort on excess, error on shortfall), weights must be
//! finite (`nan`/`inf`/`-inf` parse as floats but are rejected), `p` lines
//! may not repeat, and self-loops are refused. See
//! [`crate::edgelist::GraphBuildError`].

use std::io::{BufRead, Write};

use crate::edge::Edge;
use crate::edgelist::{check_edge, check_id_space, EdgeList, GraphBuildError};
use msf_primitives::obs::metrics::{LazyCounter, LazyHistogram};
use msf_primitives::pool;

static INGEST_BYTES: LazyCounter = LazyCounter::new("ingest.text.bytes");
static INGEST_EDGES: LazyCounter = LazyCounter::new("ingest.text.edges");
static INGEST_WALL: LazyHistogram = LazyHistogram::new("ingest.text.wall_ns");

/// Write `g` in DIMACS format.
pub fn write_dimacs(g: &EdgeList, mut out: impl Write) -> std::io::Result<()> {
    writeln!(out, "c msf-suite graph")?;
    writeln!(out, "p sp {} {}", g.num_vertices(), g.num_edges())?;
    for e in g.edges() {
        writeln!(out, "a {} {} {}", e.u + 1, e.v + 1, e.w)?;
    }
    Ok(())
}

/// Whitespace-delimited tokens of a line, no allocation.
fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(|b: &u8| b.is_ascii_whitespace())
        .filter(|t| !t.is_empty())
}

/// Parse an unsigned decimal integer from raw bytes (overflow-checked).
fn parse_u64(tok: &[u8]) -> Option<u64> {
    if tok.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in tok {
        let d = (b as char).to_digit(10)? as u64;
        v = v.checked_mul(10)?.checked_add(d)?;
    }
    Some(v)
}

/// Parse a float from raw bytes. `str::parse::<f64>` does not allocate, so
/// this keeps the hot path heap-silent. Accepts `nan`/`inf` spellings —
/// finiteness is rejected separately so the error can say *why*.
fn parse_f64(tok: &[u8]) -> Option<f64> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

fn bad_at(offset: u64, msg: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("byte {offset}: {msg}"),
    )
}

/// Bytes the parser reads per chunk. A chunk ends at its last newline: the
/// partial line after it starts the next chunk, and a line longer than a
/// chunk grows the buffer until it fits. A DIMACS parse block covers at
/// least a sixteenth of a chunk.
const CHUNK_BYTES: usize = 1 << 20;

/// Parse a DIMACS graph. Edge ids are assigned in file order.
///
/// The input is read in newline-aligned chunks of 1 MiB into one reusable
/// buffer. The lines up to the `p` line are read one at a time;
/// after it, each chunk is split at newlines into about eight blocks per
/// pool worker, and the blocks parse on the pool. Errors are those of a
/// line-at-a-time parse: the first failing line in file order wins, and the
/// (m+1)-th `a` line fails as "more than the declared m edges" whatever
/// else is wrong with it.
pub fn read_dimacs(input: impl BufRead) -> std::io::Result<EdgeList> {
    read_dimacs_in_chunks(input, CHUNK_BYTES)
}

fn read_dimacs_in_chunks(input: impl BufRead, chunk_bytes: usize) -> std::io::Result<EdgeList> {
    let start = std::time::Instant::now();
    let mut chunks = Chunks::new(input, chunk_bytes);
    let mut declared: Option<Declared> = None;
    let mut edges: Vec<Edge> = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    while let Some((offset, chunk)) = chunks.next_chunk()? {
        let body = match declared {
            Some(_) => 0,
            None => match scan_to_p_line(offset, chunk)? {
                Some((d, after)) => {
                    edges = Vec::with_capacity(d.m as usize);
                    declared = Some(d);
                    after
                }
                None => chunk.len(),
            },
        };
        if let Some(d) = declared {
            let k = block_count(chunk.len() - body, chunk_bytes);
            if blocks.len() < k {
                blocks.resize_with(k, Block::default);
            }
            for (block, range) in blocks.iter_mut().zip(block_ranges(chunk, body, k)) {
                block.range = range;
            }
            parse_blocks(d, offset, chunk, &mut blocks[..k], &mut edges)?;
        }
    }
    let d = declared
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "missing p line"))?;
    if edges.len() as u64 != d.m {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "p line declared {} edges, found {} (truncated file?)",
                d.m,
                edges.len()
            ),
        ));
    }
    INGEST_BYTES.add(chunks.consumed());
    INGEST_EDGES.add(edges.len() as u64);
    INGEST_WALL.record(start.elapsed().as_nanos() as u64);
    Ok(EdgeList::from_validated(d.n as usize, edges))
}

/// What the `p` line declares.
#[derive(Debug, Clone, Copy)]
struct Declared {
    n: u64,
    m: u64,
}

/// Newline-aligned chunks of a byte stream, read into one reusable buffer.
struct Chunks<R> {
    reader: R,
    buf: Vec<u8>,
    /// Valid bytes at the front of `buf`.
    len: usize,
    /// Bytes of `buf` handed out as the last chunk.
    taken: usize,
    /// Stream offset of `buf[0]`.
    offset: u64,
    /// No more reads: the stream ended, or failed with `error`.
    done: bool,
    /// A read error, returned once the complete lines before it are parsed.
    error: Option<std::io::Error>,
}

impl<R: BufRead> Chunks<R> {
    fn new(reader: R, chunk_bytes: usize) -> Self {
        Chunks {
            reader,
            buf: vec![0; chunk_bytes.max(1)],
            len: 0,
            taken: 0,
            offset: 0,
            done: false,
            error: None,
        }
    }

    /// The next chunk as `(stream offset of its first byte, bytes)`, or
    /// `None` at the end of the stream. Every chunk but the stream's last
    /// ends with a newline.
    fn next_chunk(&mut self) -> std::io::Result<Option<(u64, &[u8])>> {
        self.buf.copy_within(self.taken..self.len, 0);
        self.len -= self.taken;
        self.offset += self.taken as u64;
        self.taken = 0;
        loop {
            self.fill();
            let end = match self.buf[..self.len].iter().rposition(|&b| b == b'\n') {
                _ if self.done && self.error.is_none() => self.len,
                Some(last) => last + 1,
                None if self.done => 0,
                None => {
                    // One line fills the whole buffer: make room for more.
                    self.buf.resize(2 * self.buf.len(), 0);
                    continue;
                }
            };
            if end == 0 {
                return match self.error.take() {
                    Some(e) => Err(e),
                    None => Ok(None),
                };
            }
            self.taken = end;
            return Ok(Some((self.offset, &self.buf[..end])));
        }
    }

    /// Read until the buffer is full or the stream ends or fails.
    fn fill(&mut self) {
        while !self.done && self.len < self.buf.len() {
            match self.reader.read(&mut self.buf[self.len..]) {
                Ok(0) => self.done = true,
                Ok(k) => self.len += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.done = true;
                    self.error = Some(e);
                }
            }
        }
    }

    /// Bytes handed out so far.
    fn consumed(&self) -> u64 {
        self.offset + self.taken as u64
    }
}

/// The lines of `text` as `(offset of the line in text, line)`, each
/// without its `\n` or `\r\n`, as `BufRead::read_until` would split them.
fn lines(text: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        if pos >= text.len() {
            return None;
        }
        let start = pos;
        let end = text[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(text.len(), |i| start + i);
        pos = end + 1;
        let line = &text[start..end];
        Some((start, line.strip_suffix(b"\r").unwrap_or(line)))
    })
}

/// Read the lines before the `p` line one at a time. Returns what the `p`
/// line declares and the offset in `chunk` just past it, or `None` when
/// `chunk` holds no `p` line.
fn scan_to_p_line(offset: u64, chunk: &[u8]) -> std::io::Result<Option<(Declared, usize)>> {
    for (at, line) in lines(chunk) {
        let offset = offset + at as u64;
        let mut tok = tokens(line);
        match tok.next() {
            None | Some(b"c") => continue,
            Some(b"p") => {
                let _kind = tok
                    .next()
                    .ok_or_else(|| bad_at(offset, "p line missing kind"))?;
                let n = tok
                    .next()
                    .and_then(parse_u64)
                    .ok_or_else(|| bad_at(offset, "p line missing n"))?;
                let m = tok
                    .next()
                    .and_then(parse_u64)
                    .ok_or_else(|| bad_at(offset, "p line missing m"))?;
                if n > u64::try_from(usize::MAX).unwrap_or(u64::MAX) {
                    return Err(bad_at(offset, format!("vertex count {n} unrepresentable")));
                }
                check_id_space(n as usize, usize::try_from(m).unwrap_or(usize::MAX))
                    .map_err(|e| bad_at(offset, e))?;
                let after = chunk[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(chunk.len(), |i| at + i + 1);
                return Ok(Some((Declared { n, m }, after)));
            }
            Some(b"a") => return Err(bad_at(offset, "a line before p line (missing p line)")),
            Some(other) => return Err(bad_at(offset, unknown_kind(other))),
        }
    }
    Ok(None)
}

fn unknown_kind(kind: &[u8]) -> String {
    format!("unknown line kind {:?}", String::from_utf8_lossy(kind))
}

/// One parse block of a chunk, kept across chunks so its edge buffer is
/// reused.
#[derive(Default)]
struct Block {
    /// The bytes of the chunk this block parses.
    range: std::ops::Range<usize>,
    /// The block's edges in line order, ids counted from the block's first.
    edges: Vec<Edge>,
    /// The line that ended the block early, if one did.
    stop: Option<Stop>,
}

/// The first line of a block that is neither a valid `a` line nor a
/// comment or blank line.
struct Stop {
    /// Offset of the line in the block.
    at: usize,
    /// The line is an `a` line, so the declared-count check came first.
    a_line: bool,
    fault: Fault,
}

enum Fault {
    Message(String),
    /// An edge the builder would refuse; its index counts from the block's
    /// first edge.
    Edge(GraphBuildError),
}

impl Block {
    /// Parse `text`, this block's bytes, up to its first bad line.
    fn parse(&mut self, text: &[u8], n: u64) {
        self.edges.clear();
        self.stop = None;
        // A valid `a` line takes at least 8 bytes with its newline.
        self.edges.reserve(text.len() / 8 + 1);
        for (at, line) in lines(text) {
            let mut tok = tokens(line);
            let (a_line, fault) = match tok.next() {
                None | Some(b"c") => continue,
                Some(b"a") => match parse_edge(tok, n, self.edges.len()) {
                    Ok(e) => {
                        self.edges.push(e);
                        continue;
                    }
                    Err(fault) => (true, fault),
                },
                Some(b"p") => (false, Fault::Message("duplicate p line".into())),
                Some(other) => (false, Fault::Message(unknown_kind(other))),
            };
            self.stop = Some(Stop { at, a_line, fault });
            return;
        }
    }
}

/// Parse the fields of an `a` line after its kind token into edge `index`
/// of `n` vertices.
fn parse_edge<'a>(
    mut tok: impl Iterator<Item = &'a [u8]>,
    n: u64,
    index: usize,
) -> Result<Edge, Fault> {
    let msg = |m: &str| Fault::Message(m.into());
    let u = tok
        .next()
        .and_then(parse_u64)
        .ok_or_else(|| msg("a line missing u"))?;
    let v = tok
        .next()
        .and_then(parse_u64)
        .ok_or_else(|| msg("a line missing v"))?;
    let w = tok
        .next()
        .and_then(parse_f64)
        .ok_or_else(|| msg("a line missing weight"))?;
    if u == 0 || v == 0 {
        return Err(msg("DIMACS vertices are 1-indexed"));
    }
    check_edge(n, u - 1, v - 1, w, index).map_err(Fault::Edge)
}

/// `e` for the edge `by` places later in the file.
fn shift_index(e: GraphBuildError, by: usize) -> GraphBuildError {
    match e {
        GraphBuildError::EndpointOutOfRange { index, endpoint, n } => {
            GraphBuildError::EndpointOutOfRange {
                index: index + by,
                endpoint,
                n,
            }
        }
        GraphBuildError::SelfLoop { index, vertex } => GraphBuildError::SelfLoop {
            index: index + by,
            vertex,
        },
        GraphBuildError::NonFiniteWeight { index } => {
            GraphBuildError::NonFiniteWeight { index: index + by }
        }
        other => other,
    }
}

/// Blocks for `len` bytes of a chunk: about eight per pool worker, each at
/// least a sixteenth of a chunk.
fn block_count(len: usize, chunk_bytes: usize) -> usize {
    (len / (chunk_bytes / 16).max(1)).clamp(1, 8 * pool::width())
}

/// `chunk[body..]` cut into `k` ranges at newlines: range `t` ends just past
/// the first newline at or after `body + (t + 1)·len/k`, the last at the
/// chunk's end. Ranges may be empty.
fn block_ranges(
    chunk: &[u8],
    body: usize,
    k: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let len = chunk.len() - body;
    let mut start = body;
    (0..k).map(move |t| {
        let end = if t + 1 == k {
            chunk.len()
        } else {
            let target = (body + (t + 1) * len / k).max(start);
            chunk[target..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(chunk.len(), |i| target + i + 1)
        };
        let range = start..end;
        start = end;
        range
    })
}

/// Parse each block's range of `chunk` on the pool, then append their
/// edges to `edges` in block order, or report the first bad line in file
/// order. `offset` is the stream offset of `chunk`.
fn parse_blocks(
    d: Declared,
    offset: u64,
    chunk: &[u8],
    blocks: &mut [Block],
    edges: &mut Vec<Edge>,
) -> std::io::Result<()> {
    pool::map_mut(blocks, |_, block| {
        let text = &chunk[block.range.clone()];
        block.parse(text, d.n);
    });
    for block in blocks.iter() {
        let before = edges.len();
        // Edges the p line still allows.
        let room = (d.m - before as u64) as usize;
        let line_offset = |at: usize| offset + (block.range.start + at) as u64;
        let excess = |at: usize| {
            bad_at(
                line_offset(at),
                format!("more than the declared {} edges", d.m),
            )
        };
        if block.edges.len() > room {
            let text = &chunk[block.range.clone()];
            return Err(excess(nth_a_line(text, room)));
        }
        edges.extend(block.edges.iter().map(|e| Edge {
            id: e.id + before as u32,
            ..*e
        }));
        if let Some(stop) = &block.stop {
            if stop.a_line && block.edges.len() == room {
                return Err(excess(stop.at));
            }
            return Err(match &stop.fault {
                Fault::Message(m) => bad_at(line_offset(stop.at), m),
                Fault::Edge(e) => bad_at(line_offset(stop.at), shift_index(*e, before)),
            });
        }
    }
    Ok(())
}

/// Offset in `text` of its `a` line number `k`, counted from 0.
fn nth_a_line(text: &[u8], k: usize) -> usize {
    lines(text)
        .filter(|(_, line)| tokens(line).next() == Some(b"a"))
        .nth(k)
        .map(|(at, _)| at)
        .expect("the block parsed more than k a lines")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_graph, GeneratorConfig};

    #[test]
    fn roundtrip_preserves_graph() {
        let g = random_graph(&GeneratorConfig::with_seed(12), 40, 90);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let back = read_dimacs(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "c hello\n\np sp 3 2\na 1 2 0.5\nc mid comment\na 2 3 1.5\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(1).w, 1.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(
            read_dimacs("a 1 2 0.5\n".as_bytes()).is_err(),
            "missing p line"
        );
        assert!(
            read_dimacs("p sp 3 1\n".as_bytes()).is_err(),
            "edge count mismatch"
        );
        assert!(
            read_dimacs("p sp 3 1\na 0 2 1.0\n".as_bytes()).is_err(),
            "0-indexed vertex"
        );
        assert!(
            read_dimacs("q sp 3 1\n".as_bytes()).is_err(),
            "unknown line kind"
        );
        assert!(
            read_dimacs("p sp 3 1\na 1 2\n".as_bytes()).is_err(),
            "missing weight"
        );
    }

    #[test]
    fn rejects_structural_violations_with_byte_offsets() {
        // Duplicate p line.
        let err = read_dimacs("p sp 3 1\np sp 3 1\na 1 2 1.0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("byte 9"), "{err}");
        assert!(err.to_string().contains("duplicate p line"), "{err}");
        // Endpoint beyond the declared vertex count.
        let err = read_dimacs("p sp 3 1\na 1 4 1.0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // More edges than declared (early abort, not silent acceptance).
        let err = read_dimacs("p sp 3 1\na 1 2 1.0\na 2 3 1.0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared 1"), "{err}");
        // Self-loop.
        let err = read_dimacs("p sp 3 1\na 2 2 1.0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
        // Truncated: fewer edges than declared.
        let err = read_dimacs("p sp 3 2\na 1 2 1.0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn rejects_non_finite_weights() {
        for w in ["nan", "NaN", "inf", "-inf", "Infinity"] {
            let text = format!("p sp 2 1\na 1 2 {w}\n");
            let err = read_dimacs(text.as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains("finite"),
                "weight {w} must be rejected as non-finite, got: {err}"
            );
        }
    }

    /// Chunk size for the tests below: small, so a few hundred lines span
    /// several chunks of several blocks each.
    const CHUNK: usize = 1024;
    /// Every edge line is padded with spaces to this many bytes, so a fault
    /// written over one leaves every offset, chunk and block in place.
    const LINE: usize = 24;

    /// `p sp n m` and `m` edge lines over vertices `1..=n`, with a comment
    /// line after every 7th edge and a blank line after every 11th. Returns
    /// the text and the offset of each edge line.
    fn body_text(n: u64, m: usize, nl: &str) -> (String, Vec<usize>) {
        let mut text = format!("c generated\np sp {n} {m}{nl}");
        let mut at = Vec::with_capacity(m);
        for i in 0..m {
            at.push(text.len());
            let u = i as u64 % (n - 1) + 1;
            let line = format!("a {u} {} {}", u + 1, (i * 37 % 1000) as f64 / 8.0);
            text.push_str(&format!("{line:LINE$}{nl}"));
            if i % 7 == 6 {
                text.push_str(&format!("c note {i}{nl}"));
            }
            if i % 11 == 10 {
                text.push_str(nl);
            }
        }
        (text, at)
    }

    /// `text` with the line at `at` overwritten by `line`, padded.
    fn with_line(text: &str, at: usize, line: &str) -> String {
        let padded = format!("{line:LINE$}");
        assert_eq!(padded.len(), LINE, "{line:?} is longer than an edge line");
        let mut out = text.to_string();
        out.replace_range(at..at + LINE, &padded);
        out
    }

    /// Parse pooled and sequentially at [`CHUNK`]; the two must agree.
    fn parse_both(text: &str) -> Result<EdgeList, String> {
        pool::force_width(4);
        let pooled = read_dimacs_in_chunks(text.as_bytes(), CHUNK).map_err(|e| e.to_string());
        let seq = pool::with_sequential(|| read_dimacs_in_chunks(text.as_bytes(), CHUNK))
            .map_err(|e| e.to_string());
        assert_eq!(pooled, seq, "pooled and sequential parses differ");
        pooled
    }

    /// Where each chunk after the first starts: just past the last newline
    /// within `CHUNK` bytes of the previous start.
    fn chunk_starts(text: &str) -> Vec<usize> {
        let b = text.as_bytes();
        let mut starts = Vec::new();
        let mut start = 0;
        while start + CHUNK < b.len() {
            let last = b[start..start + CHUNK].iter().rposition(|&c| c == b'\n');
            start += last.expect("lines are shorter than a chunk") + 1;
            starts.push(start);
        }
        starts
    }

    /// The edge lines the fault matrix hits: the first body line, the line
    /// that starts the third chunk, the first edge line that starts a block
    /// (past the first) of the third chunk, and the last line.
    fn fault_sites(text: &str, at: &[usize]) -> Vec<usize> {
        let starts = chunk_starts(text);
        assert!(
            starts.len() >= 3,
            "the input must span at least three chunks"
        );
        let (c2, c3) = (starts[1], starts[2]);
        let chunk = &text.as_bytes()[c2..c3];
        let k = block_count(chunk.len(), CHUNK);
        assert!(k >= 2, "the chunk must split into blocks");
        let block = block_ranges(chunk, 0, k)
            .skip(1)
            .map(|r| c2 + r.start)
            .find(|s| at.contains(s))
            .expect("some block starts with an edge line");
        let index = |offset: usize| at.iter().position(|&a| a == offset).unwrap();
        let chunk_line = index(c2);
        vec![0, chunk_line, index(block), at.len() - 1]
    }

    #[test]
    fn faults_at_chunk_and_block_boundaries_report_their_line() {
        let n = 50u64;
        for nl in ["\n", "\r\n"] {
            let (text, at) = body_text(n, 300, nl);
            let g = parse_both(&text).unwrap();
            assert_eq!(g.num_edges(), 300);
            assert_eq!(g, read_dimacs(text.as_bytes()).unwrap());
            assert_eq!(g.edge(299).id, 299);
            let sites = fault_sites(&text, &at);
            for &i in &sites {
                let faults: [(String, String); 9] = [
                    ("a x 2 1.0".into(), "a line missing u".into()),
                    ("a 1 y 1.0".into(), "a line missing v".into()),
                    ("a 1 2".into(), "a line missing weight".into()),
                    ("a 0 2 1.0".into(), "DIMACS vertices are 1-indexed".into()),
                    (
                        format!("a 1 {} 1.0", n + 1),
                        format!("edge {i}: endpoint {n} out of range for {n} vertices"),
                    ),
                    (
                        "a 2 2 1.0".into(),
                        format!("edge {i}: self-loops are not valid input edges (vertex 1)"),
                    ),
                    (
                        "a 1 2 nan".into(),
                        format!("edge {i}: weights must be finite"),
                    ),
                    ("p sp 3 3".into(), "duplicate p line".into()),
                    ("x 1 2".into(), "unknown line kind \"x\"".into()),
                ];
                for (line, msg) in faults {
                    let err = parse_both(&with_line(&text, at[i], &line)).unwrap_err();
                    assert_eq!(err, format!("byte {}: {msg}", at[i]), "line {i}: {line:?}");
                }
                // Declaring i edges makes edge line i the first excess one,
                // even when the line is malformed as well.
                let declared = text.replacen("p sp 50 300", &format!("p sp 50 {i}"), 1);
                let shift = 3 - i.to_string().len();
                let excess = format!("byte {}: more than the declared {i} edges", at[i] - shift);
                assert_eq!(parse_both(&declared).unwrap_err(), excess, "line {i}");
                let bad = with_line(&text, at[i], "a 1 2 nan").replacen(
                    "p sp 50 300",
                    &format!("p sp 50 {i}"),
                    1,
                );
                assert_eq!(parse_both(&bad).unwrap_err(), excess, "line {i}");
            }
        }
    }

    #[test]
    fn an_early_excess_edge_beats_a_later_fault() {
        let (text, at) = body_text(50, 300, "\n");
        let sites = fault_sites(&text, &at);
        let (excess, later) = (sites[1], sites[3]);
        let text = with_line(&text, at[later], "x 1 2").replacen(
            "p sp 50 300",
            &format!("p sp 50 {excess}"),
            1,
        );
        let shift = 3 - excess.to_string().len();
        assert_eq!(
            parse_both(&text).unwrap_err(),
            format!(
                "byte {}: more than the declared {excess} edges",
                at[excess] - shift
            )
        );
        // One edge short of the declaration is a truncated file.
        let (text, _) = body_text(50, 300, "\n");
        let text = text.replacen("p sp 50 300", "p sp 50 301", 1);
        assert_eq!(
            parse_both(&text).unwrap_err(),
            "p line declared 301 edges, found 300 (truncated file?)"
        );
    }

    #[test]
    fn lines_longer_than_a_chunk_and_a_late_p_line_parse() {
        let (text, at) = body_text(50, 300, "\n");
        let g = parse_both(&text).unwrap();
        // A comment three chunks long mid-body, and an edge line padded past
        // a chunk.
        let long_comment = format!("c {}\n", "x".repeat(3 * CHUNK));
        let mut long = text.clone();
        long.insert_str(at[150], &long_comment);
        let long = long.replacen(
            "\na 1 2 0",
            &format!("\na 1 2 0{}", " ".repeat(2 * CHUNK)),
            1,
        );
        assert_eq!(parse_both(&long).unwrap(), g);
        // The p line after four chunks of comments.
        let late = format!(
            "{}{text}",
            "c padding comment line\n".repeat(4 * CHUNK / 23)
        );
        assert_eq!(parse_both(&late).unwrap(), g);
        // Offsets past a long line still count every byte.
        let shift = long.len() - text.len();
        let bad = with_line(&long, at[299] + shift, "a 0 2 1.0");
        assert_eq!(
            parse_both(&bad).unwrap_err(),
            format!("byte {}: DIMACS vertices are 1-indexed", at[299] + shift)
        );
    }

    /// Yields its bytes, then fails.
    struct FailsAfter<'a>(&'a [u8]);

    impl std::io::Read for FailsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("disk on fire"));
            }
            let k = buf.len().min(self.0.len()).min(100);
            buf[..k].copy_from_slice(&self.0[..k]);
            self.0 = &self.0[k..];
            Ok(k)
        }
    }

    #[test]
    fn a_read_error_comes_after_the_complete_lines_before_it() {
        let (text, at) = body_text(50, 300, "\n");
        let cut = at[200] + 5;
        let read = |t: &str| {
            let r = std::io::BufReader::new(FailsAfter(&t.as_bytes()[..cut]));
            read_dimacs_in_chunks(r, CHUNK).map_err(|e| e.to_string())
        };
        assert_eq!(read(&text).unwrap_err(), "disk on fire");
        let bad = with_line(&text, at[199], "a 2 2 1.0");
        assert_eq!(
            read(&bad).unwrap_err(),
            format!(
                "byte {}: edge 199: self-loops are not valid input edges (vertex 1)",
                at[199]
            )
        );
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = EdgeList::from_triples(4, vec![]);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let back = read_dimacs(&buf[..]).unwrap();
        assert_eq!(back.num_vertices(), 4);
        assert_eq!(back.num_edges(), 0);
    }
}
