//! The resident-graph registry: named graphs loaded once and shared across
//! clients, with a capacity bound enforced by least-recently-used eviction
//! and refcount-safe unloading.
//!
//! Entries hand out `Arc<ResidentGraph>`, so eviction never invalidates an
//! in-flight job: the registry drops *its* reference and the memory is
//! freed when the last job finishes. The registry also remembers the path
//! each name was loaded from even after eviction, so a later request for an
//! evicted graph transparently reloads it from disk (counted separately —
//! reloads are the price of a too-small capacity, and the scrape endpoint
//! makes that visible).
//!
//! Each resident graph owns its contracted-intermediate cache: the result
//! of the first Borůvka round, keyed by algorithm prefix. Under the
//! `(weight, edge id)` total order the round-1 hooks are in the unique MSF
//! of every algorithm, so a cached round is valid for all of them — the
//! prefix key exists so a future round-k or algorithm-specific intermediate
//! can live alongside without invalidating round-1 entries. A cached round
//! counts against the capacity like the edge list it was computed from.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::sync::{Arc, Mutex};

use msf_core::job::{boruvka_round, BoruvkaRound};
use msf_graph::{binfmt, io, EdgeList};
use msf_obs::metrics::{LazyCounter, LazyGauge};

static REG_LOADS: LazyCounter = LazyCounter::new("serve.registry.loads");
static REG_HITS: LazyCounter = LazyCounter::new("serve.registry.hits");
static REG_MISSES: LazyCounter = LazyCounter::new("serve.registry.misses");
static REG_RELOADS: LazyCounter = LazyCounter::new("serve.registry.reloads");
static REG_EVICTIONS: LazyCounter = LazyCounter::new("serve.registry.evictions");
static REG_BYTES: LazyGauge = LazyGauge::new("serve.registry.resident_bytes");
static REG_GRAPHS: LazyGauge = LazyGauge::new("serve.registry.resident_graphs");
static ROUND_HITS: LazyCounter = LazyCounter::new("serve.cache.round_hits");
static ROUND_MISSES: LazyCounter = LazyCounter::new("serve.cache.round_misses");

/// Load a graph from either format, sniffing the binary magic — the same
/// dual-format entry the CLI uses, but errors are returned, not `exit(1)`:
/// the daemon answers a bad path with a protocol error and keeps serving.
pub fn load_graph_file(path: &str) -> Result<EdgeList, String> {
    let is_bin = binfmt::is_binary_file(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let parsed = if is_bin {
        binfmt::BinGraph::open(path).and_then(|bin| bin.to_edge_list())
    } else {
        File::open(path).and_then(|f| io::read_dimacs(BufReader::new(f)))
    };
    parsed.map_err(|e| format!("cannot parse {path}: {e}"))
}

/// A graph pinned in memory by the registry (and by any in-flight jobs),
/// together with its contracted-intermediate cache.
pub struct ResidentGraph {
    /// Registry key.
    pub name: String,
    /// The edge list the kernels consume.
    pub graph: EdgeList,
    /// Estimated bytes of the edge list.
    edge_bytes: u64,
    rounds: Mutex<HashMap<String, Arc<BoruvkaRound>>>,
}

impl ResidentGraph {
    fn new(name: String, graph: EdgeList) -> ResidentGraph {
        let edge_bytes = estimate_bytes(&graph);
        ResidentGraph {
            name,
            graph,
            edge_bytes,
            rounds: Mutex::new(HashMap::new()),
        }
    }

    /// Estimated resident bytes: the edge list plus every cached round.
    pub fn bytes(&self) -> u64 {
        let rounds: u64 = self
            .rounds
            .lock()
            .unwrap()
            .values()
            .map(|r| r.bytes())
            .sum();
        self.edge_bytes + rounds
    }

    /// The first Borůvka round for `prefix`, computed on miss and cached.
    /// Returns the round and whether it was a cache hit. `bypass` computes
    /// fresh without touching the cache (the `--no-cache` request flag).
    pub fn first_round(&self, prefix: &str, bypass: bool) -> (Arc<BoruvkaRound>, bool) {
        if bypass {
            return (Arc::new(boruvka_round(&self.graph)), false);
        }
        if let Some(r) = self.rounds.lock().unwrap().get(prefix) {
            ROUND_HITS.inc();
            return (Arc::clone(r), true);
        }
        // Compute outside the lock: a second client missing concurrently
        // duplicates work once rather than serializing behind a long round.
        let fresh = Arc::new(boruvka_round(&self.graph));
        let mut rounds = self.rounds.lock().unwrap();
        let r = rounds
            .entry(prefix.to_string())
            .or_insert_with(|| Arc::clone(&fresh));
        ROUND_MISSES.inc();
        (Arc::clone(r), false)
    }

    /// Cached rounds currently held (for info/tests).
    pub fn cached_rounds(&self) -> usize {
        self.rounds.lock().unwrap().len()
    }
}

fn estimate_bytes(g: &EdgeList) -> u64 {
    // Edge = {u32, u32, f64, u32} → 24 bytes with alignment; vertices cost
    // nothing here (EdgeList stores no per-vertex array), but kernels build
    // adjacency on the fly, so charge a word per vertex as a safety margin.
    g.num_edges() as u64 * 24 + g.num_vertices() as u64 * 8
}

struct Entry {
    graph: Arc<ResidentGraph>,
    /// What this entry added to `Inner::resident_bytes`, so removing it
    /// subtracts exactly that.
    charged: u64,
    last_used: u64,
}

struct Inner {
    resident: HashMap<String, Entry>,
    /// name → path, retained across eviction so evicted graphs reload.
    paths: HashMap<String, String>,
    clock: u64,
    resident_bytes: u64,
}

/// The capacity-bounded name → graph map.
pub struct Registry {
    max_bytes: u64,
    inner: Mutex<Inner>,
}

impl Registry {
    /// A registry holding at most `max_bytes` of estimated graph memory
    /// (`u64::MAX` = unbounded). The most recent load is never evicted,
    /// so a single graph larger than the cap still serves.
    pub fn new(max_bytes: u64) -> Registry {
        Registry {
            max_bytes,
            inner: Mutex::new(Inner {
                resident: HashMap::new(),
                paths: HashMap::new(),
                clock: 0,
                resident_bytes: 0,
            }),
        }
    }

    /// Load `path` under `name`. Returns the resident graph and whether
    /// the file was actually read (`false` when already resident — loads
    /// are idempotent and a re-load just bumps recency).
    pub fn load(&self, name: &str, path: &str) -> Result<(Arc<ResidentGraph>, bool), String> {
        {
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.resident.get_mut(name) {
                entry.last_used = clock;
                let arc = Arc::clone(&entry.graph);
                inner.paths.insert(name.to_string(), path.to_string());
                REG_HITS.inc();
                return Ok((arc, false));
            }
        }
        // Read the file outside the lock — loads can take seconds and must
        // not stall every other client's registry lookups.
        let graph = load_graph_file(path)?;
        let resident = Arc::new(ResidentGraph::new(name.to_string(), graph));
        self.insert(name, Some(path), Arc::clone(&resident));
        REG_LOADS.inc();
        Ok((resident, true))
    }

    /// Insert an already-built graph under `name` (in-process embedding:
    /// the serve-mode bench entry and tests). No path is remembered, so an
    /// eviction is final — `get` after evict errors instead of reloading.
    pub fn put(&self, name: &str, graph: EdgeList) -> Arc<ResidentGraph> {
        let resident = Arc::new(ResidentGraph::new(name.to_string(), graph));
        self.insert(name, None, Arc::clone(&resident));
        REG_LOADS.inc();
        resident
    }

    /// The resident graph for `name`, reloading from the remembered path
    /// if it was evicted. Returns the graph and whether a reload happened.
    pub fn get(&self, name: &str) -> Result<(Arc<ResidentGraph>, bool), String> {
        let path = {
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.resident.get_mut(name) {
                entry.last_used = clock;
                REG_HITS.inc();
                return Ok((Arc::clone(&entry.graph), false));
            }
            REG_MISSES.inc();
            inner.paths.get(name).cloned().ok_or_else(|| {
                format!("unknown graph '{name}': load it first (op=load with a path)")
            })?
        };
        let graph = load_graph_file(&path)
            .map_err(|e| format!("graph '{name}' was evicted and its file is gone: {e}"))?;
        let resident = Arc::new(ResidentGraph::new(name.to_string(), graph));
        self.insert(name, Some(&path), Arc::clone(&resident));
        REG_RELOADS.inc();
        Ok((resident, true))
    }

    fn insert(&self, name: &str, path: Option<&str>, resident: Arc<ResidentGraph>) {
        let charged = resident.bytes();
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let entry = Entry {
            graph: resident,
            charged,
            last_used: inner.clock,
        };
        // A racing load of the same name: replace the graph (last writer
        // wins; both Arcs stay valid).
        match inner.resident.insert(name.to_string(), entry) {
            Some(old) => {
                inner.resident_bytes -= old.charged;
                REG_BYTES.sub(old.charged);
            }
            None => REG_GRAPHS.add(1),
        }
        inner.resident_bytes += charged;
        REG_BYTES.add(charged);
        if let Some(path) = path {
            inner.paths.insert(name.to_string(), path.to_string());
        }
        self.evict_over_capacity(&mut inner);
    }

    /// Recharge `resident` after a compute that may have cached a round in
    /// it, evicting least-recently-used graphs if that puts the registry
    /// over capacity. A graph no longer registered under its name is not
    /// charged: it leaves memory with its last in-flight job.
    pub fn charge(&self, resident: &Arc<ResidentGraph>) {
        let bytes = resident.bytes();
        let mut inner = self.inner.lock().unwrap();
        let Some(entry) = inner
            .resident
            .get_mut(&resident.name)
            .filter(|e| Arc::ptr_eq(&e.graph, resident))
        else {
            return;
        };
        let old = std::mem::replace(&mut entry.charged, bytes);
        inner.resident_bytes = inner.resident_bytes - old + bytes;
        REG_BYTES.sub(old);
        REG_BYTES.add(bytes);
        self.evict_over_capacity(&mut inner);
    }

    /// Evict least-recently-used graphs until under capacity. The most
    /// recently used entry survives even when it is alone over the cap.
    fn evict_over_capacity(&self, inner: &mut Inner) {
        while inner.resident_bytes > self.max_bytes && inner.resident.len() > 1 {
            let victim = inner
                .resident
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("len > 1");
            remove(inner, &victim);
        }
    }

    /// Drop `name` from residency (the path is remembered for reload).
    /// Returns whether it was resident. In-flight jobs holding the `Arc`
    /// are unaffected.
    pub fn evict(&self, name: &str) -> bool {
        remove(&mut self.inner.lock().unwrap(), name)
    }

    /// Residency peek without touching recency: `Some(bytes)` when
    /// resident.
    pub fn resident_bytes_of(&self, name: &str) -> Option<u64> {
        self.inner
            .lock()
            .unwrap()
            .resident
            .get(name)
            .map(|e| e.charged)
    }

    /// Graphs currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total estimated resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().unwrap().resident_bytes
    }
}

/// Remove `name`'s entry and its charge. Returns whether it was resident.
fn remove(inner: &mut Inner, name: &str) -> bool {
    let Some(entry) = inner.resident.remove(name) else {
        return false;
    };
    inner.resident_bytes -= entry.charged;
    REG_BYTES.sub(entry.charged);
    REG_GRAPHS.sub(1);
    REG_EVICTIONS.inc();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn write_dimacs(
        dir: &std::path::Path,
        name: &str,
        n: usize,
        edges: &[(u32, u32, f64)],
    ) -> String {
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        writeln!(f, "p sp {} {}", n, edges.len()).unwrap();
        for &(u, v, w) in edges {
            writeln!(f, "a {} {} {}", u + 1, v + 1, w).unwrap();
        }
        path.to_str().unwrap().to_string()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("msf-registry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_is_idempotent_and_get_reloads_after_evict() {
        let dir = temp_dir("reload");
        let path = write_dimacs(&dir, "tri.gr", 3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
        let reg = Registry::new(u64::MAX);

        let (g1, fresh) = reg.load("tri", &path).unwrap();
        assert!(fresh);
        assert_eq!(g1.graph.num_edges(), 3);
        let (g2, fresh) = reg.load("tri", &path).unwrap();
        assert!(!fresh, "second load is a residency hit");
        assert!(Arc::ptr_eq(&g1, &g2));

        assert!(reg.evict("tri"));
        assert!(!reg.evict("tri"), "double evict is a no-op");
        assert_eq!(reg.len(), 0);
        // The Arc held above keeps the old instance alive and usable.
        assert_eq!(g1.graph.num_vertices(), 3);

        let (g3, reloaded) = reg.get("tri").unwrap();
        assert!(reloaded, "evicted graph reloads from the remembered path");
        assert!(!Arc::ptr_eq(&g1, &g3));
        assert!(reg.get("nope").is_err(), "never-loaded name is an error");
    }

    #[test]
    fn lru_eviction_keeps_recent_graphs_within_capacity() {
        let dir = temp_dir("lru");
        let edges: Vec<(u32, u32, f64)> = (0..9u32).map(|i| (i, i + 1, i as f64)).collect();
        let a = write_dimacs(&dir, "a.gr", 10, &edges);
        let b = write_dimacs(&dir, "b.gr", 10, &edges);
        let c = write_dimacs(&dir, "c.gr", 10, &edges);
        // Each graph estimates 9*24 + 10*8 = 296 bytes; cap fits two.
        let reg = Registry::new(600);

        reg.load("a", &a).unwrap();
        reg.load("b", &b).unwrap();
        assert_eq!(reg.len(), 2);
        // Touch a so b becomes the LRU victim.
        reg.get("a").unwrap();
        reg.load("c", &c).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.resident_bytes_of("a").is_some());
        assert!(reg.resident_bytes_of("b").is_none(), "b was evicted");
        assert!(reg.resident_bytes_of("c").is_some());
        assert!(reg.resident_bytes() <= 600);

        // b still serves via reload.
        let (gb, reloaded) = reg.get("b").unwrap();
        assert!(reloaded);
        assert_eq!(gb.graph.num_edges(), 9);
    }

    #[test]
    fn round_cache_hits_after_first_compute() {
        let dir = temp_dir("rounds");
        let path = write_dimacs(
            &dir,
            "sq.gr",
            4,
            &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)],
        );
        let reg = Registry::new(u64::MAX);
        let (g, _) = reg.load("sq", &path).unwrap();

        let (r1, hit) = g.first_round("boruvka1", false);
        assert!(!hit, "first request computes");
        let (r2, hit) = g.first_round("boruvka1", true);
        assert!(!hit, "bypass never hits");
        assert!(!Arc::ptr_eq(&r1, &r2));
        let (r3, hit) = g.first_round("boruvka1", false);
        assert!(hit, "second request hits");
        assert!(Arc::ptr_eq(&r1, &r3));
        assert_eq!(g.cached_rounds(), 1);
    }
}
