//! The round cache under concurrent misses. This binary holds one test, so
//! the process-wide `serve.cache.round_misses` counter moves only for it.

use std::sync::{Arc, Barrier};

use msf_core::{minimum_spanning_forest, Algorithm, MsfConfig};
use msf_graph::generators::{random_graph, GeneratorConfig};
use msf_obs::metrics;
use msf_server::proto::{Op, Request, Response};
use msf_server::{Server, ServerConfig};

fn round_misses() -> u64 {
    metrics::snapshot()
        .counter("serve.cache.round_misses")
        .unwrap_or(0)
}

#[test]
fn four_concurrent_requests_compute_one_round() {
    metrics::set_enabled(true);
    // Large enough to pass the admission gate as a large job, so the four
    // requests run on their own threads rather than one after another on
    // the batcher.
    let g = random_graph(&GeneratorConfig::with_seed(31), 50_000, 200_000);
    let want = minimum_spanning_forest(&g, Algorithm::BorFal, &MsfConfig::default()).checksum();
    let server = Arc::new(Server::new(ServerConfig::default()));
    server.registry.put("g", g);
    let before = round_misses();
    let start = Arc::new(Barrier::new(4));
    let clients: Vec<_> = (1..=4u32)
        .map(|p| {
            let (server, start) = (Arc::clone(&server), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut req = Request::op(Op::Compute);
                req.graph = "g".into();
                req.threads = p;
                start.wait();
                match server.handle(&req) {
                    Response::Computed(r) => r,
                    other => panic!("p {p}: unexpected reply {other:?}"),
                }
            })
        })
        .collect();
    let replies: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    for r in &replies {
        assert_eq!(r.checksum, want, "every request gets the one forest");
    }
    assert_eq!(
        replies.iter().filter(|r| !r.round_cache_hit).count(),
        1,
        "one request computes the round; the others wait for it"
    );
    assert_eq!(round_misses() - before, 1);
}
