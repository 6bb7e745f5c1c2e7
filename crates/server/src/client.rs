//! A synchronous client for the daemon: connect, frame a request, block on
//! the reply. Used by `msf client`, the serve-mode bench entry, and the
//! integration tests; scripts can drive the same wire format from any
//! language that can write a length prefix.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use crate::proto::{
    read_frame, write_frame, Op, Request, Response, FLAG_NO_CACHE, FLAG_PARANOID, MAX_FRAME,
};

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// One connection to a daemon.
pub struct Client {
    conn: Conn,
}

impl Client {
    /// Connect to `unix:PATH` or `HOST:PORT`.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let conn = if let Some(path) = addr.strip_prefix("unix:") {
            Conn::Unix(UnixStream::connect(path)?)
        } else {
            Conn::Tcp(TcpStream::connect(addr)?)
        };
        Ok(Client { conn })
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.conn, &req.encode())?;
        match read_frame(&mut self.conn, MAX_FRAME, None, || true)? {
            Some(payload) => Response::decode(&payload),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.request(&Request::op(Op::Ping))
    }

    /// Load `path` as `graph`.
    pub fn load(&mut self, graph: &str, path: &str) -> io::Result<Response> {
        let mut req = Request::op(Op::Load);
        req.graph = graph.into();
        req.path = path.into();
        self.request(&req)
    }

    /// Compute the MSF of `graph`. Empty `algorithm` = server default;
    /// `threads` 0 = server default.
    pub fn compute(
        &mut self,
        graph: &str,
        algorithm: &str,
        threads: u32,
        paranoid: bool,
        no_cache: bool,
    ) -> io::Result<Response> {
        let mut req = Request::op(Op::Compute);
        req.graph = graph.into();
        req.algorithm = algorithm.into();
        req.threads = threads;
        req.flags =
            (if paranoid { FLAG_PARANOID } else { 0 }) | (if no_cache { FLAG_NO_CACHE } else { 0 });
        self.request(&req)
    }

    /// Compute and prove the MSF of `graph`.
    pub fn certify(&mut self, graph: &str, algorithm: &str, threads: u32) -> io::Result<Response> {
        let mut req = Request::op(Op::Certify);
        req.graph = graph.into();
        req.algorithm = algorithm.into();
        req.threads = threads;
        self.request(&req)
    }

    /// Shape and residency of `graph`.
    pub fn info(&mut self, graph: &str) -> io::Result<Response> {
        let mut req = Request::op(Op::Info);
        req.graph = graph.into();
        self.request(&req)
    }

    /// Drop `graph` from residency.
    pub fn evict(&mut self, graph: &str) -> io::Result<Response> {
        let mut req = Request::op(Op::Evict);
        req.graph = graph.into();
        self.request(&req)
    }

    /// Scrape the metrics registry.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.request(&Request::op(Op::Stats))
    }

    /// Control the daemon's sampling profiler: `action` is `start`, `stop`,
    /// or `fetch`; `hz` is the sample rate for `start` (0 = daemon default).
    pub fn profile(&mut self, action: &str, hz: u32) -> io::Result<Response> {
        let mut req = Request::op(Op::Profile);
        req.algorithm = action.into();
        req.threads = hz;
        self.request(&req)
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request(&Request::op(Op::Shutdown))
    }
}
