//! End-to-end daemon tests over a real Unix socket: concurrent clients,
//! bit-identity with the offline pipeline, admission rejection, paranoid
//! certification, and eviction under load.
//!
//! These run under all three CI harnesses (default, `RUST_TEST_THREADS=1`,
//! `MSF_SEQUENTIAL=1`); the daemon must serve the identical unique forest
//! in each, because the `(weight, edge id)` total order pins the MSF
//! regardless of the pool's width or schedule.

use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig};
use msf_graph::generators::{random_graph, GeneratorConfig};
use msf_graph::{io, EdgeList};
use msf_server::proto::{
    Op, Request, Response, MAX_FRAME, MAX_REQUEST_FRAME, REQUEST_FRAME_DEADLINE,
};
use msf_server::server::serve_with;
use msf_server::{Client, Listen, ServerConfig};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msf-serve-{tag}-{}", std::process::id()))
}

fn write_graph(path: &PathBuf, g: &EdgeList) {
    let f = File::create(path).expect("create graph file");
    io::write_dimacs(g, std::io::BufWriter::new(f)).expect("write graph");
}

/// Start a daemon on a fresh Unix socket; returns the address and the
/// thread that will yield the exit code after shutdown.
fn start_daemon(
    tag: &str,
    mut cfg: ServerConfig,
    preload: Vec<(String, String)>,
) -> (String, std::thread::JoinHandle<Result<i32, String>>) {
    let sock = temp_path(&format!("{tag}.sock"));
    let _ = std::fs::remove_file(&sock);
    cfg.listen = Listen::Unix(sock.clone());
    let handle = std::thread::spawn(move || serve_with(cfg, &preload));
    let addr = format!("unix:{}", sock.display());
    // Wait for the bind.
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(sock.exists(), "daemon failed to bind {addr}");
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<Result<i32, String>>) -> i32 {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    match c.shutdown().expect("shutdown request") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    handle.join().expect("server thread").expect("serve ran")
}

#[test]
fn eight_concurrent_clients_get_the_offline_forest_bit_for_bit() {
    let g = random_graph(&GeneratorConfig::with_seed(42), 3000, 12000);
    let path = temp_path("concurrent.gr");
    write_graph(&path, &g);

    // The offline reference: same graph, default config — the unique
    // (weight, edge id) forest every served compute must reproduce.
    let offline = minimum_spanning_forest(&g, Algorithm::BorFal, &MsfConfig::default());
    let want = offline.checksum();

    let (addr, handle) = start_daemon(
        "concurrent",
        ServerConfig::default(),
        vec![("g".into(), path.display().to_string())],
    );

    // 8 clients, mixed compute/certify, mixed algorithms — every reply
    // must carry the same checksum.
    let algos = [
        "bor-fal",
        "bor-el",
        "kruskal",
        "bor-write-min",
        "filter-kruskal",
    ];
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            let algo = algos[i % algos.len()].to_string();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                for round in 0..3 {
                    let certify = (i + round) % 2 == 0;
                    let got = if certify {
                        match c.certify("g", &algo, 0).expect("certify") {
                            Response::Certified(r) => r.checksum,
                            other => panic!("client {i}: unexpected certify reply {other:?}"),
                        }
                    } else {
                        match c.compute("g", &algo, 0, false, false).expect("compute") {
                            Response::Computed(r) => r.checksum,
                            other => panic!("client {i}: unexpected compute reply {other:?}"),
                        }
                    };
                    assert_eq!(
                        got, want,
                        "client {i} round {round} ({algo}, certify={certify}) diverged"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // The round cache must have served repeats: scrape and check.
    let mut c = Client::connect(&addr).expect("connect for stats");
    let text = match c.stats().expect("stats") {
        Response::Stats { text } => text,
        other => panic!("unexpected stats reply: {other:?}"),
    };
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("serve_cache_round_hits_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("scrape carries serve_cache_round_hits_total");
    assert!(
        hits > 0,
        "24 computes of one resident graph must hit the round cache"
    );

    assert_eq!(shutdown(&addr, handle), 0, "no hard failures");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn eviction_under_load_reloads_or_fails_cleanly() {
    let cfg_a = GeneratorConfig::with_seed(7);
    let cfg_b = GeneratorConfig::with_seed(8);
    let ga = random_graph(&cfg_a, 1500, 6000);
    let gb = random_graph(&cfg_b, 1500, 6000);
    let pa = temp_path("evict-a.gr");
    let pb = temp_path("evict-b.gr");
    write_graph(&pa, &ga);
    write_graph(&pb, &gb);
    let want_a = minimum_spanning_forest(&ga, Algorithm::BorFal, &MsfConfig::default()).checksum();
    let want_b = minimum_spanning_forest(&gb, Algorithm::BorFal, &MsfConfig::default()).checksum();

    // A registry that can hold only one of the two graphs: every load of
    // one evicts the other, so computes constantly race eviction + reload.
    let cfg = ServerConfig {
        registry_bytes: 160_000, // each graph ≈ 6000*24 + 1500*8 = 156 KB
        ..ServerConfig::default()
    };
    let (addr, handle) = start_daemon(
        "evict",
        cfg,
        vec![
            ("a".into(), pa.display().to_string()),
            ("b".into(), pb.display().to_string()),
        ],
    );

    let workers: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                for round in 0..6 {
                    let (name, want) = if (i + round) % 2 == 0 {
                        ("a", want_a)
                    } else {
                        ("b", want_b)
                    };
                    match c.compute(name, "", 0, false, false).expect("compute") {
                        Response::Computed(r) => assert_eq!(
                            r.checksum, want,
                            "worker {i} round {round}: graph {name} served a wrong forest"
                        ),
                        // A clean protocol error is acceptable only if the
                        // file vanished — it hasn't, so anything but a
                        // computed forest is a bug.
                        other => panic!("worker {i} round {round}: {other:?}"),
                    }
                }
            })
        })
        .collect();
    // Main thread hammers evictions while the workers compute.
    let mut evictor = Client::connect(&addr).expect("connect evictor");
    for round in 0..12 {
        let name = if round % 2 == 0 { "a" } else { "b" };
        match evictor.evict(name).expect("evict") {
            Response::Evicted { .. } => {}
            other => panic!("unexpected evict reply: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for w in workers {
        w.join().expect("worker thread");
    }
    assert_eq!(
        shutdown(&addr, handle),
        0,
        "eviction under load stays clean"
    );
    let _ = std::fs::remove_file(&pa);
    let _ = std::fs::remove_file(&pb);
}

#[test]
fn paranoid_mode_certifies_every_compute() {
    let g = random_graph(&GeneratorConfig::with_seed(12), 800, 3200);
    let path = temp_path("paranoid.gr");
    write_graph(&path, &g);
    let cfg = ServerConfig {
        paranoid: true,
        ..ServerConfig::default()
    };
    let (addr, handle) = start_daemon(
        "paranoid",
        cfg,
        vec![("g".into(), path.display().to_string())],
    );
    let mut c = Client::connect(&addr).expect("connect");
    match c.compute("g", "", 0, false, false).expect("compute") {
        Response::Computed(r) => assert!(r.certified, "--paranoid must certify every forest"),
        other => panic!("unexpected reply: {other:?}"),
    }
    assert_eq!(shutdown(&addr, handle), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn admission_gate_rejects_when_the_queue_is_full() {
    use msf_server::admission::{Admission, AdmissionConfig, Admitted};
    // Protocol-level behavior is covered by unit tests; here, prove the
    // served configuration threads the knobs through: a daemon whose queue
    // bound is zero still *serves* small jobs while a large one holds the
    // gate (small jobs bypass admission entirely).
    let gate = Admission::new(AdmissionConfig {
        large_threshold: 10,
        max_inflight_units: 10,
        max_queued: 0,
    });
    let _hold = match gate.admit(10) {
        Admitted::Large(p) => p,
        _ => panic!("must admit into an empty gate"),
    };
    assert!(matches!(gate.admit(5), Admitted::Small));
    assert!(matches!(gate.admit(10), Admitted::Rejected { .. }));
}

#[test]
fn malformed_frames_get_an_error_not_a_hangup() {
    let (addr, handle) = start_daemon("malformed", ServerConfig::default(), vec![]);
    // Hand-roll a frame with an unknown opcode.
    let sock = addr.strip_prefix("unix:").unwrap();
    let mut s = std::os::unix::net::UnixStream::connect(sock).expect("connect raw");
    let payload = [250u8]; // not a valid opcode
    s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    s.write_all(&payload).unwrap();
    let mut c = Client::connect(&addr).expect("connect");
    // The raw socket gets a framed error back.
    use std::io::Read as _;
    let mut len = [0u8; 4];
    s.read_exact(&mut len).expect("error frame length");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut body).expect("error frame body");
    match Response::decode(&body).expect("decodable") {
        Response::Error { message } => assert!(message.contains("malformed")),
        other => panic!("unexpected reply: {other:?}"),
    }
    // And the daemon is still healthy for everyone else.
    match c.ping().expect("ping") {
        Response::Pong => {}
        other => panic!("unexpected ping reply: {other:?}"),
    }
    assert_eq!(
        shutdown(&addr, handle),
        0,
        "malformed input is a soft error"
    );
}

/// Read one reply frame off a raw socket.
fn read_reply(s: &mut std::os::unix::net::UnixStream) -> Response {
    use std::io::Read as _;
    let mut len = [0u8; 4];
    s.read_exact(&mut len).expect("reply frame length");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut body).expect("reply frame body");
    Response::decode(&body).expect("decodable reply")
}

#[test]
fn a_writer_that_pauses_mid_frame_gets_its_reply() {
    let (addr, handle) = start_daemon("slow-writer", ServerConfig::default(), vec![]);
    let sock = addr.strip_prefix("unix:").unwrap();
    let mut s = std::os::unix::net::UnixStream::connect(sock).expect("connect raw");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = Request::op(Op::Ping).encode();
    assert!(payload.len() >= 2);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    // Pause inside the length prefix, then after one payload byte, each
    // time for longer than the daemon's 100 ms idle read timeout.
    for split in [2, 5] {
        s.write_all(&frame[..split]).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        s.write_all(&frame[split..]).unwrap();
        match read_reply(&mut s) {
            Response::Pong => {}
            other => panic!("split at byte {split}: {other:?}"),
        }
    }
    // The connection is still in step for the next request.
    s.write_all(&frame).unwrap();
    assert!(matches!(read_reply(&mut s), Response::Pong));
    assert_eq!(shutdown(&addr, handle), 0);
}

#[test]
fn oversized_request_frames_get_an_error_naming_the_cap() {
    use std::io::Read as _;
    let (addr, handle) = start_daemon("oversized", ServerConfig::default(), vec![]);
    let sock = addr.strip_prefix("unix:").unwrap();
    // One prefix past the reply cap, and one far below it but past the
    // request cap. Only the prefix is sent: the reply must not wait for a
    // payload.
    for len in [MAX_FRAME + 1, 1 << 20] {
        let mut s = std::os::unix::net::UnixStream::connect(sock).expect("connect raw");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&len.to_le_bytes()).unwrap();
        match read_reply(&mut s) {
            Response::Error { message } => assert!(
                message.contains(&format!("{MAX_REQUEST_FRAME}-byte cap")),
                "prefix {len}: {message}"
            ),
            other => panic!("prefix {len}: unexpected reply {other:?}"),
        }
        // The stream is out of step, so the daemon hangs up.
        assert_eq!(
            s.read(&mut [0u8; 1]).expect("clean close"),
            0,
            "prefix {len}"
        );
    }
    let mut c = Client::connect(&addr).expect("connect");
    assert!(matches!(c.ping().expect("ping"), Response::Pong));
    assert_eq!(
        shutdown(&addr, handle),
        0,
        "an oversized frame is a soft error"
    );
}

#[test]
fn a_stalled_frame_is_refused_at_its_deadline() {
    use std::io::Read as _;
    let (addr, handle) = start_daemon("stalled", ServerConfig::default(), vec![]);
    let sock = addr.strip_prefix("unix:").unwrap();
    let mut s = std::os::unix::net::UnixStream::connect(sock).expect("connect raw");
    let margin = Duration::from_secs(2);
    s.set_read_timeout(Some(REQUEST_FRAME_DEADLINE + 2 * margin))
        .unwrap();
    // Two bytes of a length prefix, then nothing.
    s.write_all(&[8, 0]).unwrap();
    let sent = std::time::Instant::now();
    match read_reply(&mut s) {
        Response::Error { message } => assert!(
            message.contains(&format!("{REQUEST_FRAME_DEADLINE:?} deadline")),
            "{message}"
        ),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(s.read(&mut [0u8; 1]).expect("clean close"), 0);
    let waited = sent.elapsed();
    assert!(
        waited + Duration::from_millis(200) >= REQUEST_FRAME_DEADLINE,
        "refused early, after {waited:?}"
    );
    assert!(
        waited <= REQUEST_FRAME_DEADLINE + margin,
        "closed late, after {waited:?}"
    );
    let mut c = Client::connect(&addr).expect("connect");
    assert!(matches!(c.ping().expect("ping"), Response::Pong));
    assert_eq!(
        shutdown(&addr, handle),
        0,
        "a stalled frame is a soft error"
    );
}

#[test]
fn requests_round_trip_over_tcp_too() {
    let cfg = ServerConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        ..ServerConfig::default()
    };
    // TCP needs the resolved port; drive the server loop directly on a
    // pre-bound listener instead of parsing stdout.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let server = Arc::new(msf_server::Server::new(cfg));
    let g = random_graph(&GeneratorConfig::with_seed(3), 500, 2000);
    let want = minimum_spanning_forest(&g, Algorithm::BorFal, &MsfConfig::default()).checksum();
    server.registry.put("g", g);
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            // One-connection accept loop is all this test needs.
            if let Ok((stream, _)) = listener.accept() {
                msf_server::server::serve_connection(&server, stream);
            }
        });
    }
    let mut c = Client::connect(&addr).expect("connect tcp");
    match c.compute("g", "", 0, false, false).expect("compute") {
        Response::Computed(r) => assert_eq!(r.checksum, want),
        other => panic!("unexpected reply: {other:?}"),
    }
    // Exercise a raw Request too, proving the public proto API suffices
    // without the Client convenience wrappers.
    let mut req = Request::op(Op::Info);
    req.graph = "g".into();
    match c.request(&req).expect("info") {
        Response::Info(r) => {
            assert_eq!(r.vertices, 500);
            assert!(r.resident);
        }
        other => panic!("unexpected reply: {other:?}"),
    }
}

#[test]
fn profile_op_round_trips_and_slow_requests_are_counted() {
    // A graph big enough that certify requests reliably exceed the 0 ms
    // slow threshold, so the slow-request path runs without fault hooks.
    let g = random_graph(&GeneratorConfig::with_seed(5), 20_000, 80_000);
    let path = temp_path("profile.gr");
    write_graph(&path, &g);
    let cfg = ServerConfig {
        slow_ms: Some(0),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_daemon(
        "profile",
        cfg,
        vec![("g".into(), path.display().to_string())],
    );

    let mut c = Client::connect(&addr).expect("connect");
    match c.profile("start", 997).expect("profile start") {
        Response::Profile { running, .. } => assert!(running, "start leaves the sampler running"),
        other => panic!("unexpected start reply: {other:?}"),
    }
    // A second start must refuse in-band, not kill the daemon.
    match c.profile("start", 997).expect("second start") {
        Response::Error { message } => assert!(message.contains("already running"), "{message}"),
        other => panic!("unexpected second-start reply: {other:?}"),
    }
    match c.profile("bogus", 0).expect("bad action") {
        Response::Error { message } => assert!(message.contains("bogus"), "{message}"),
        other => panic!("unexpected bad-action reply: {other:?}"),
    }

    for _ in 0..3 {
        match c.certify("g", "", 0).expect("certify") {
            Response::Certified(_) => {}
            other => panic!("unexpected certify reply: {other:?}"),
        }
    }

    match c.profile("fetch", 0).expect("fetch") {
        Response::Profile { running, .. } => assert!(running, "fetch must not stop the sampler"),
        other => panic!("unexpected fetch reply: {other:?}"),
    }
    match c.profile("stop", 0).expect("stop") {
        Response::Profile {
            running,
            folded,
            samples,
            ..
        } => {
            assert!(!running, "stop halts the sampler");
            // Sampling is statistical — only check structure when samples
            // actually landed: every folded line is `frame;frame... count`
            // and every frame is a known span-kind name. Connection threads
            // root at `serve`; the batcher and pool threads actually running
            // the computes root at `run`.
            if samples > 0 && !folded.is_empty() {
                let known = [
                    "run",
                    "setup",
                    "iteration",
                    "find-min",
                    "connect-components",
                    "compact-graph",
                    "base-case",
                    "rank",
                    "filter",
                    "serve",
                ];
                for line in folded.lines() {
                    let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
                    assert!(count.parse::<u64>().is_ok(), "weight parses: {line}");
                    for frame in stack.split(';') {
                        assert!(known.contains(&frame), "unknown frame {frame} in {line}");
                    }
                }
            }
        }
        other => panic!("unexpected stop reply: {other:?}"),
    }

    // The 0 ms threshold makes every certify a slow request; the counter
    // must have moved (the stderr dump itself is exercised in CI).
    let text = match c.stats().expect("stats") {
        Response::Stats { text } => text,
        other => panic!("unexpected stats reply: {other:?}"),
    };
    let slow: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("serve_slow_requests_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("scrape carries serve_slow_requests_total");
    assert!(
        slow > 0,
        "certifies over a 0ms threshold must count as slow"
    );

    assert_eq!(shutdown(&addr, handle), 0, "no hard failures");
    let _ = std::fs::remove_file(&path);
}
