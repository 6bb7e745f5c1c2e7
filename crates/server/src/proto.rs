//! The wire protocol: hand-rolled length-prefixed binary frames over a
//! stream socket (TCP or Unix). No serde, no HTTP — a frame is a `u32` LE
//! payload length followed by that many bytes, and payloads are flat
//! little-endian field sequences with `u32`-length-prefixed UTF-8 strings.
//!
//! One request frame yields exactly one response frame, in order, per
//! connection; clients may pipeline but the server replies sequentially.
//! Malformed frames (bad opcode, truncated fields, oversized length) are
//! protocol errors, and the server answers each with [`Response::Error`].
//! After an oversized length prefix, or a request frame still incomplete
//! at its deadline, it then closes the connection, because the bytes that
//! follow cannot be told apart from the next frame. A connection cut
//! mid-frame gets no reply.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Hard cap on a reply frame's payload, guarding the client against a
/// hostile or corrupt length prefix (64 MiB — stats dumps, profiles and
/// error strings are far smaller).
pub const MAX_FRAME: u32 = 1 << 26;

/// Hard cap on a request frame's payload (64 KiB). Graphs never travel over
/// the wire: a request carries only a graph name, an algorithm slug and a
/// path, so the server refuses a longer length prefix before it allocates
/// the payload.
pub const MAX_REQUEST_FRAME: u32 = 1 << 16;

/// How long a request frame may take to arrive, from its first byte (5 s).
/// A client that sends part of a frame and stalls, or trickles it, is
/// refused once this passes instead of holding its connection thread.
pub const REQUEST_FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Request the forest be re-certified (cycle-property proof) before
/// replying, even if the server was not started `--paranoid`.
pub const FLAG_PARANOID: u32 = 1;
/// Skip the contracted-intermediate cache for this request (compute from
/// scratch; the cache is neither consulted nor populated).
pub const FLAG_NO_CACHE: u32 = 2;

/// Protocol operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Load a graph file into the registry under a name.
    Load = 1,
    /// Compute the MSF of a resident graph.
    Compute = 2,
    /// Compute and certify (cycle property) the MSF.
    Certify = 3,
    /// Shape and residency information for a named graph.
    Info = 4,
    /// Drop a graph from the registry (in-flight jobs keep their reference).
    Evict = 5,
    /// Scrape the metrics registry as Prometheus-style plaintext.
    Stats = 6,
    /// Ask the daemon to drain and exit.
    Shutdown = 7,
    /// Liveness probe.
    Ping = 8,
    /// Control the in-daemon sampling profiler. The action travels in the
    /// `algorithm` field (`start`, `stop`, or `fetch`) and the sample rate
    /// in Hz in `threads` (0 = daemon default).
    Profile = 9,
}

impl Op {
    /// Inverse of `self as u8`.
    pub fn from_u8(v: u8) -> Option<Op> {
        Some(match v {
            1 => Op::Load,
            2 => Op::Compute,
            3 => Op::Certify,
            4 => Op::Info,
            5 => Op::Evict,
            6 => Op::Stats,
            7 => Op::Shutdown,
            8 => Op::Ping,
            9 => Op::Profile,
            _ => return None,
        })
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Graph name (registry key). Empty for ops that take none.
    pub graph: String,
    /// Algorithm slug (`bor-fal`, `bor-write-min`, ...); empty = server
    /// default.
    pub algorithm: String,
    /// Requested processor count; 0 = server default.
    pub threads: u32,
    /// [`FLAG_PARANOID`] | [`FLAG_NO_CACHE`].
    pub flags: u32,
    /// Filesystem path (Load only).
    pub path: String,
}

impl Request {
    /// A request with only the op set (the common shape for stats/ping).
    pub fn op(op: Op) -> Request {
        Request {
            op,
            graph: String::new(),
            algorithm: String::new(),
            threads: 0,
            flags: 0,
            path: String::new(),
        }
    }

    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.graph.len() + self.path.len());
        out.push(self.op as u8);
        put_str(&mut out, &self.graph);
        put_str(&mut out, &self.algorithm);
        out.extend_from_slice(&self.threads.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        put_str(&mut out, &self.path);
        out
    }

    /// Parse a frame payload.
    pub fn decode(buf: &[u8]) -> io::Result<Request> {
        let mut c = Cursor::new(buf);
        let op =
            Op::from_u8(c.u8()?).ok_or_else(|| bad_data(format!("unknown opcode {}", buf[0])))?;
        let req = Request {
            op,
            graph: c.string()?,
            algorithm: c.string()?,
            threads: c.u32()?,
            flags: c.u32()?,
            path: c.string()?,
        };
        c.finish()?;
        Ok(req)
    }
}

/// The result body of a served compute.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeReply {
    /// Algorithm that ran (server-resolved slug).
    pub algorithm: String,
    /// Input vertices.
    pub vertices: u64,
    /// Input edges.
    pub edges: u64,
    /// Forest edges selected.
    pub forest_edges: u64,
    /// Trees in the forest.
    pub components: u32,
    /// Total forest weight.
    pub total_weight: f64,
    /// The unique `(weight, edge id)` forest checksum.
    pub checksum: u64,
    /// Server-side wall time of the request, nanoseconds.
    pub wall_ns: u64,
    /// True when the contracted-intermediate cache served the first round.
    pub round_cache_hit: bool,
    /// True when the forest was re-proved minimum before replying.
    pub certified: bool,
}

/// The result body of a served certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyReply {
    /// Forest edges proved.
    pub forest_edges: u64,
    /// Trees in the forest.
    pub trees: u32,
    /// Cycle-property queries issued.
    pub cycle_queries: u64,
    /// Forest edges proved the minimum across their cut; always
    /// `forest_edges`, as the cycle-property queries cover every cut. Kept
    /// so the reply layout does not change.
    pub cut_checks: u64,
    /// The forest checksum (matches the compute reply for the same graph).
    pub checksum: u64,
    /// Server-side wall time, nanoseconds.
    pub wall_ns: u64,
}

/// The result body of an info request.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoReply {
    /// Vertices.
    pub vertices: u64,
    /// Edges.
    pub edges: u64,
    /// Density m/n.
    pub density: f64,
    /// True when the graph is currently resident.
    pub resident: bool,
    /// Estimated resident bytes (0 when not resident).
    pub resident_bytes: u64,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; human-readable reason.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Admission control rejected the job (queue full).
    Overloaded {
        /// Jobs already waiting.
        queued: u32,
        /// Queue capacity.
        max: u32,
    },
    /// Load finished.
    Loaded {
        /// Vertices of the loaded graph.
        vertices: u64,
        /// Edges of the loaded graph.
        edges: u64,
        /// Estimated resident bytes.
        bytes: u64,
        /// True when the file was read; false when already resident.
        fresh: bool,
    },
    /// Compute finished.
    Computed(ComputeReply),
    /// Certification finished (acceptance; rejection is an `Error`).
    Certified(CertifyReply),
    /// Info body.
    Info(InfoReply),
    /// Evict finished.
    Evicted {
        /// True when the graph was resident and has been dropped.
        was_resident: bool,
    },
    /// Metrics scrape.
    Stats {
        /// Prometheus-style plaintext exposition.
        text: String,
    },
    /// The daemon acknowledged shutdown and is draining.
    ShuttingDown,
    /// Liveness reply.
    Pong,
    /// Profiler state after a profile op.
    Profile {
        /// True when the sampler thread is running after this op.
        running: bool,
        /// Collapsed-stack profile (empty for `start`, the accumulated
        /// profile for `stop`/`fetch`).
        folded: String,
        /// Non-empty stack samples recorded so far.
        samples: u64,
        /// Samples dropped to torn reads.
        dropped: u64,
        /// Sampler wakeups.
        wakeups: u64,
    },
}

const R_ERROR: u8 = 0;
const R_OVERLOADED: u8 = 1;
const R_LOADED: u8 = 2;
const R_COMPUTED: u8 = 3;
const R_CERTIFIED: u8 = 4;
const R_INFO: u8 = 5;
const R_EVICTED: u8 = 6;
const R_STATS: u8 = 7;
const R_SHUTDOWN: u8 = 8;
const R_PONG: u8 = 9;
const R_PROFILE: u8 = 10;

impl Response {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Error { message } => {
                out.push(R_ERROR);
                put_str(&mut out, message);
            }
            Response::Overloaded { queued, max } => {
                out.push(R_OVERLOADED);
                out.extend_from_slice(&queued.to_le_bytes());
                out.extend_from_slice(&max.to_le_bytes());
            }
            Response::Loaded {
                vertices,
                edges,
                bytes,
                fresh,
            } => {
                out.push(R_LOADED);
                out.extend_from_slice(&vertices.to_le_bytes());
                out.extend_from_slice(&edges.to_le_bytes());
                out.extend_from_slice(&bytes.to_le_bytes());
                out.push(*fresh as u8);
            }
            Response::Computed(r) => {
                out.push(R_COMPUTED);
                put_str(&mut out, &r.algorithm);
                out.extend_from_slice(&r.vertices.to_le_bytes());
                out.extend_from_slice(&r.edges.to_le_bytes());
                out.extend_from_slice(&r.forest_edges.to_le_bytes());
                out.extend_from_slice(&r.components.to_le_bytes());
                out.extend_from_slice(&r.total_weight.to_bits().to_le_bytes());
                out.extend_from_slice(&r.checksum.to_le_bytes());
                out.extend_from_slice(&r.wall_ns.to_le_bytes());
                out.push(r.round_cache_hit as u8);
                out.push(r.certified as u8);
            }
            Response::Certified(r) => {
                out.push(R_CERTIFIED);
                out.extend_from_slice(&r.forest_edges.to_le_bytes());
                out.extend_from_slice(&r.trees.to_le_bytes());
                out.extend_from_slice(&r.cycle_queries.to_le_bytes());
                out.extend_from_slice(&r.cut_checks.to_le_bytes());
                out.extend_from_slice(&r.checksum.to_le_bytes());
                out.extend_from_slice(&r.wall_ns.to_le_bytes());
            }
            Response::Info(r) => {
                out.push(R_INFO);
                out.extend_from_slice(&r.vertices.to_le_bytes());
                out.extend_from_slice(&r.edges.to_le_bytes());
                out.extend_from_slice(&r.density.to_bits().to_le_bytes());
                out.push(r.resident as u8);
                out.extend_from_slice(&r.resident_bytes.to_le_bytes());
            }
            Response::Evicted { was_resident } => {
                out.push(R_EVICTED);
                out.push(*was_resident as u8);
            }
            Response::Stats { text } => {
                out.push(R_STATS);
                put_str(&mut out, text);
            }
            Response::ShuttingDown => out.push(R_SHUTDOWN),
            Response::Pong => out.push(R_PONG),
            Response::Profile {
                running,
                folded,
                samples,
                dropped,
                wakeups,
            } => {
                out.push(R_PROFILE);
                out.push(*running as u8);
                put_str(&mut out, folded);
                out.extend_from_slice(&samples.to_le_bytes());
                out.extend_from_slice(&dropped.to_le_bytes());
                out.extend_from_slice(&wakeups.to_le_bytes());
            }
        }
        out
    }

    /// Parse a frame payload.
    pub fn decode(buf: &[u8]) -> io::Result<Response> {
        let mut c = Cursor::new(buf);
        let tag = c.u8()?;
        let resp = match tag {
            R_ERROR => Response::Error {
                message: c.string()?,
            },
            R_OVERLOADED => Response::Overloaded {
                queued: c.u32()?,
                max: c.u32()?,
            },
            R_LOADED => Response::Loaded {
                vertices: c.u64()?,
                edges: c.u64()?,
                bytes: c.u64()?,
                fresh: c.u8()? != 0,
            },
            R_COMPUTED => Response::Computed(ComputeReply {
                algorithm: c.string()?,
                vertices: c.u64()?,
                edges: c.u64()?,
                forest_edges: c.u64()?,
                components: c.u32()?,
                total_weight: f64::from_bits(c.u64()?),
                checksum: c.u64()?,
                wall_ns: c.u64()?,
                round_cache_hit: c.u8()? != 0,
                certified: c.u8()? != 0,
            }),
            R_CERTIFIED => Response::Certified(CertifyReply {
                forest_edges: c.u64()?,
                trees: c.u32()?,
                cycle_queries: c.u64()?,
                cut_checks: c.u64()?,
                checksum: c.u64()?,
                wall_ns: c.u64()?,
            }),
            R_INFO => Response::Info(InfoReply {
                vertices: c.u64()?,
                edges: c.u64()?,
                density: f64::from_bits(c.u64()?),
                resident: c.u8()? != 0,
                resident_bytes: c.u64()?,
            }),
            R_EVICTED => Response::Evicted {
                was_resident: c.u8()? != 0,
            },
            R_STATS => Response::Stats { text: c.string()? },
            R_SHUTDOWN => Response::ShuttingDown,
            R_PONG => Response::Pong,
            R_PROFILE => Response::Profile {
                running: c.u8()? != 0,
                folded: c.string()?,
                samples: c.u64()?,
                dropped: c.u64()?,
                wakeups: c.u64()?,
            },
            _ => return Err(bad_data(format!("unknown response tag {tag}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---- framing -----------------------------------------------------------

/// Write one frame: `u32` LE payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame payload of at most `max_len` bytes. `Ok(None)` on clean
/// EOF at a frame boundary (the peer closed); errors on truncation
/// mid-frame. A length prefix above `max_len` returns an
/// [`io::ErrorKind::InvalidData`] error naming the cap, before any of the
/// payload is read or allocated.
///
/// On a stream with a read timeout, a timeout before the frame's first
/// byte returns its error, so the caller can idle between frames. Once the
/// frame has started, a timeout keeps the bytes read so far and resumes,
/// unless `give_up()` returns true; then the timeout error returns. With a
/// `deadline`, a frame still incomplete that long after its first byte
/// returns an `InvalidData` error naming the deadline. It is checked after
/// every read, so a trickle of bytes cannot stretch it.
pub fn read_frame(
    r: &mut impl Read,
    max_len: u32,
    deadline: Option<Duration>,
    mut give_up: impl FnMut() -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut first_byte = None;
    let mut len = [0u8; 4];
    if !fill(r, &mut len, &mut first_byte, deadline, &mut give_up)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len);
    if len > max_len {
        return Err(bad_data(format!(
            "frame length {len} exceeds the {max_len}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    fill(r, &mut buf, &mut first_byte, deadline, &mut give_up)?;
    Ok(Some(buf))
}

/// True for the errors a read timeout raises.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// `read_exact` for one piece of a frame; `first_byte` is when the frame
/// started, once any piece of it has arrived. A clean EOF before the
/// frame's first byte returns `Ok(false)` instead of an error (so idle
/// peers can hang up between frames); a timeout after it resumes unless
/// `give_up()`, and a piece still incomplete at the `deadline` fails.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    first_byte: &mut Option<Instant>,
    deadline: Option<Duration>,
    give_up: &mut impl FnMut() -> bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if let (Some(at), Some(limit)) = (*first_byte, deadline) {
            if at.elapsed() >= limit {
                return Err(bad_data(format!(
                    "frame not complete within the {limit:?} deadline after its first byte"
                )));
            }
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) if first_byte.is_none() => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                filled += n;
                first_byte.get_or_insert_with(Instant::now);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if first_byte.is_some() && is_timeout(&e) && !give_up() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// ---- field encoding ----------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad_data("truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad_data("string is not UTF-8".into()))
    }

    /// Every byte must have been consumed — trailing garbage is a protocol
    /// error, not padding.
    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad_data(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let decoded = Request::decode(&req.encode()).expect("decode");
        assert_eq!(decoded, req);
    }

    fn round_trip_response(resp: Response) {
        let decoded = Response::decode(&resp.encode()).expect("decode");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request {
            op: Op::Load,
            graph: "rmat-20".into(),
            algorithm: String::new(),
            threads: 0,
            flags: 0,
            path: "/tmp/rmat.msfb".into(),
        });
        round_trip_request(Request {
            op: Op::Compute,
            graph: "g".into(),
            algorithm: "bor-write-min".into(),
            threads: 8,
            flags: FLAG_PARANOID | FLAG_NO_CACHE,
            path: String::new(),
        });
        for op in [Op::Stats, Op::Shutdown, Op::Ping, Op::Evict, Op::Info] {
            round_trip_request(Request::op(op));
        }
        // Profile ops carry the action in `algorithm` and the rate in
        // `threads`.
        round_trip_request(Request {
            op: Op::Profile,
            graph: String::new(),
            algorithm: "start".into(),
            threads: 997,
            flags: 0,
            path: String::new(),
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Error {
            message: "no such graph".into(),
        });
        round_trip_response(Response::Overloaded { queued: 3, max: 2 });
        round_trip_response(Response::Loaded {
            vertices: 7,
            edges: 9,
            bytes: 216,
            fresh: true,
        });
        round_trip_response(Response::Computed(ComputeReply {
            algorithm: "bor-fal".into(),
            vertices: 100,
            edges: 400,
            forest_edges: 99,
            components: 1,
            total_weight: -0.0,
            checksum: 0xDEAD_BEEF,
            wall_ns: 12345,
            round_cache_hit: true,
            certified: false,
        }));
        round_trip_response(Response::Certified(CertifyReply {
            forest_edges: 99,
            trees: 1,
            cycle_queries: 301,
            cut_checks: 99,
            checksum: 1,
            wall_ns: 2,
        }));
        round_trip_response(Response::Info(InfoReply {
            vertices: 5,
            edges: 4,
            density: 0.8,
            resident: true,
            resident_bytes: 96,
        }));
        round_trip_response(Response::Evicted {
            was_resident: false,
        });
        round_trip_response(Response::Stats {
            text: "serve_requests 7\n".into(),
        });
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Pong);
        round_trip_response(Response::Profile {
            running: true,
            folded: "serve;run;find-min 42\n".into(),
            samples: 42,
            dropped: 1,
            wakeups: 100,
        });
    }

    #[test]
    fn malformed_payloads_are_clean_errors() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err(), "unknown opcode");
        // Truncated string length.
        assert!(Request::decode(&[1, 255, 255, 255, 255]).is_err());
        let mut ok = Request::op(Op::Ping).encode();
        ok.push(0); // trailing garbage
        assert!(Request::decode(&ok).is_err());
        assert!(Response::decode(&[200]).is_err(), "unknown tag");
    }

    #[test]
    fn framing_round_trips_and_guards_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME, None, || true)
                .unwrap()
                .unwrap(),
            b"hello"
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME, None, || true)
                .unwrap()
                .unwrap(),
            b""
        );
        assert!(
            read_frame(&mut r, MAX_FRAME, None, || true)
                .unwrap()
                .is_none(),
            "clean EOF"
        );
        // Oversized length prefixes: past the reply cap, and past the
        // request cap by one byte.
        let mut r = &[0xFF, 0xFF, 0xFF, 0xFF, 0][..];
        assert!(read_frame(&mut r, MAX_FRAME, None, || true).is_err());
        let mut r = &[1, 0, 1, 0, 0][..];
        let err = read_frame(&mut r, MAX_REQUEST_FRAME, None, || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("65536-byte cap"), "{err}");
        // Truncated mid-frame.
        let mut r = &[5, 0, 0, 0, b'h'][..];
        assert!(read_frame(&mut r, MAX_FRAME, None, || true).is_err());
    }

    /// Hands out one scripted step per `read`: some bytes (no more than the
    /// reader asks for), or a timeout.
    struct Stalling(std::collections::VecDeque<Option<&'static [u8]>>);

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn timeouts_idle_between_frames_and_resume_inside_one() {
        let script = [
            None,
            Some(&[5, 0][..]),
            None,
            Some(&[0, 0][..]),
            Some(&b"h"[..]),
            None,
            Some(&b"ello"[..]),
        ];
        let mut r = Stalling(script.into_iter().collect());
        // Before the first byte a timeout is the caller's to handle.
        let idle = read_frame(&mut r, MAX_FRAME, None, || false).unwrap_err();
        assert!(is_timeout(&idle));
        // Inside the frame, both timeouts resume with no byte lost.
        assert_eq!(
            read_frame(&mut r, MAX_FRAME, None, || false)
                .unwrap()
                .unwrap(),
            b"hello"
        );
        assert!(
            read_frame(&mut r, MAX_FRAME, None, || false)
                .unwrap()
                .is_none(),
            "clean EOF"
        );
        // A caller that gives up gets the timeout back.
        let mut r = Stalling([Some(&[5, 0][..]), None].into_iter().collect());
        assert!(is_timeout(
            &read_frame(&mut r, MAX_FRAME, None, || true).unwrap_err()
        ));
    }

    #[test]
    fn a_frame_past_its_deadline_is_refused() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME, Some(REQUEST_FRAME_DEADLINE), || false)
                .unwrap()
                .unwrap(),
            b"hello"
        );
        // With no time to spare, a frame that needs a second read fails
        // before it.
        let mut r = Stalling([Some(&[5, 0][..]), Some(&[0, 0][..])].into_iter().collect());
        let err = read_frame(&mut r, MAX_FRAME, Some(Duration::ZERO), || false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("0ns deadline"), "{err}");
        // The deadline runs from the first byte: idling before it is free.
        let mut r = Stalling([None].into_iter().collect());
        let idle = read_frame(&mut r, MAX_FRAME, Some(Duration::ZERO), || false).unwrap_err();
        assert!(is_timeout(&idle));
    }
}
