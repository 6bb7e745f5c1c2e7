//! The edge-list graph representation.

use crate::edge::Edge;
use msf_primitives::pool;

/// Fewest edges one [`EdgeList::try_from_edges`] task checks.
const CHECK_GRAIN: usize = 1 << 14;

/// Why a set of `(u, v, w)` triples cannot form a valid [`EdgeList`].
///
/// Every ingestion boundary (DIMACS, the binary loader, the builder API)
/// reports through this type instead of panicking, so hostile or corrupt
/// input becomes a clean error. The `Display` messages deliberately
/// contain the historic panic phrases ("out of range", "self-loops",
/// "finite") that the panicking constructors still raise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphBuildError {
    /// The vertex count exceeds the `u32` id space (`n > 2³²`; ids run
    /// `0..n`, so `n == 2³²` is the largest representable count).
    TooManyVertices {
        /// The offending vertex count.
        n: u128,
    },
    /// The edge count exceeds the `u32` edge-id space.
    TooManyEdges {
        /// The offending edge count.
        m: u128,
    },
    /// An endpoint is not `< n`.
    EndpointOutOfRange {
        /// Index of the offending edge in input order.
        index: usize,
        /// The endpoint value.
        endpoint: u64,
        /// The declared vertex count.
        n: u64,
    },
    /// Both endpoints are the same vertex.
    SelfLoop {
        /// Index of the offending edge in input order.
        index: usize,
        /// The repeated endpoint.
        vertex: u64,
    },
    /// The weight is NaN or ±∞, which would break the total edge order.
    NonFiniteWeight {
        /// Index of the offending edge in input order.
        index: usize,
    },
}

impl std::fmt::Display for GraphBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphBuildError::TooManyVertices { n } => {
                write!(f, "vertex count {n} exceeds the u32 id space (max 2^32)")
            }
            GraphBuildError::TooManyEdges { m } => {
                write!(f, "edge count {m} exceeds the u32 edge-id space")
            }
            GraphBuildError::EndpointOutOfRange { index, endpoint, n } => {
                write!(
                    f,
                    "edge {index}: endpoint {endpoint} out of range for {n} vertices"
                )
            }
            GraphBuildError::SelfLoop { index, vertex } => {
                write!(
                    f,
                    "edge {index}: self-loops are not valid input edges (vertex {vertex})"
                )
            }
            GraphBuildError::NonFiniteWeight { index } => {
                write!(f, "edge {index}: weights must be finite")
            }
        }
    }
}

impl std::error::Error for GraphBuildError {}

impl From<GraphBuildError> for std::io::Error {
    fn from(e: GraphBuildError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Refuse `n` vertices or `m` edges beyond the u32 vertex-id and edge-id
/// spaces, before anything is reserved for them.
pub(crate) fn check_id_space(n: usize, m: usize) -> Result<(), GraphBuildError> {
    if (n as u128) > <u32 as crate::vertexid::VertexId>::MAX_COUNT {
        return Err(GraphBuildError::TooManyVertices { n: n as u128 });
    }
    if (m as u128) > u32::MAX as u128 {
        return Err(GraphBuildError::TooManyEdges { m: m as u128 });
    }
    Ok(())
}

/// Edge `index` of a graph on `n` vertices, checked in one order: `u` in
/// range, then `v`, then no self-loop, then a finite weight. The first
/// failing check names the error. The caller keeps `index` inside the u32
/// edge-id space.
#[inline]
pub(crate) fn check_edge(
    n: u64,
    u: u64,
    v: u64,
    w: f64,
    index: usize,
) -> Result<Edge, GraphBuildError> {
    if u >= n {
        return Err(GraphBuildError::EndpointOutOfRange {
            index,
            endpoint: u,
            n,
        });
    }
    if v >= n {
        return Err(GraphBuildError::EndpointOutOfRange {
            index,
            endpoint: v,
            n,
        });
    }
    if u == v {
        return Err(GraphBuildError::SelfLoop { index, vertex: u });
    }
    if !w.is_finite() {
        return Err(GraphBuildError::NonFiniteWeight { index });
    }
    Ok(Edge::new(u as u32, v as u32, w, index as u32))
}

/// Incremental, validating [`EdgeList`] constructor.
///
/// The generators push one edge at a time as they draw it; every push
/// re-validates endpoints, self-loops, weight finiteness, and the edge-id
/// capacity, so a finished builder is a valid graph by construction.
#[derive(Debug, Clone)]
pub struct EdgeListBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl EdgeListBuilder {
    /// Start a builder over `n` vertices.
    pub fn new(n: usize) -> Result<Self, GraphBuildError> {
        Self::with_capacity(n, 0)
    }

    /// Start a builder over `n` vertices, reserving room for `m` edges (the
    /// generators pass the edge count they will draw, so the hot loop never
    /// reallocates).
    pub fn with_capacity(n: usize, m: usize) -> Result<Self, GraphBuildError> {
        check_id_space(n, m)?;
        Ok(EdgeListBuilder {
            n,
            edges: Vec::with_capacity(m),
        })
    }

    /// Validate and append one edge; its id is its push order.
    #[inline]
    pub fn try_push(&mut self, u: u64, v: u64, w: f64) -> Result<(), GraphBuildError> {
        let index = self.edges.len();
        if index as u128 >= u32::MAX as u128 {
            return Err(GraphBuildError::TooManyEdges {
                m: index as u128 + 1,
            });
        }
        self.edges.push(check_edge(self.n as u64, u, v, w, index)?);
        Ok(())
    }

    /// Number of edges pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edge has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finish into the immutable edge list.
    pub fn finish(self) -> EdgeList {
        EdgeList {
            n: self.n,
            edges: self.edges,
        }
    }
}

/// An undirected weighted graph stored as a flat edge list. Each edge is
/// stored once; phases that want both directions (Bor-EL's global sort, CSR
//  construction) mirror internally.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeList {
    n: usize,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Build from raw `(u, v, w)` triples; edge ids are assigned in order.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, an edge is a self-loop, or a
    /// weight is non-finite. (Multi-edges are allowed — Borůvka's
    /// compact-graph step is *about* merging them — but the generators never
    /// produce them.) Use [`EdgeList::try_from_triples`] to get a checked
    /// error instead; ingestion boundaries must.
    pub fn from_triples(n: usize, triples: impl IntoIterator<Item = (u32, u32, f64)>) -> Self {
        Self::try_from_triples(n, triples).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from raw `(u, v, w)` triples, reporting the first violation as
    /// a [`GraphBuildError`] instead of panicking.
    pub fn try_from_triples(
        n: usize,
        triples: impl IntoIterator<Item = (u32, u32, f64)>,
    ) -> Result<Self, GraphBuildError> {
        let iter = triples.into_iter();
        let mut b = EdgeListBuilder::with_capacity(n, iter.size_hint().0)?;
        for (u, v, w) in iter {
            b.try_push(u as u64, v as u64, w)?;
        }
        Ok(b.finish())
    }

    /// Build from edges on the pool: each edge passes the checks of
    /// [`EdgeListBuilder::try_push`] and takes its position as its id. The
    /// first failing edge in order names the error.
    pub fn try_from_edges(n: usize, mut edges: Vec<Edge>) -> Result<Self, GraphBuildError> {
        check_id_space(n, edges.len())?;
        let mut blocks: Vec<&mut [Edge]> = edges.chunks_mut(CHECK_GRAIN).collect();
        pool::map_mut(&mut blocks, |b, block| {
            block.iter_mut().enumerate().try_for_each(|(i, e)| {
                *e = check_edge(n as u64, e.u as u64, e.v as u64, e.w, b * CHECK_GRAIN + i)?;
                Ok(())
            })
        })
        .into_iter()
        .collect::<Result<(), GraphBuildError>>()?;
        Ok(EdgeList { n, edges })
    }

    /// Wrap edges a loader has already validated: each id equals its
    /// position, endpoints are `< n` and distinct, weights are finite, and
    /// `n` and the edge count pass [`check_id_space`]. The loaders that
    /// validate in parallel build their edges directly and hand them over
    /// here instead of re-checking each one through [`EdgeListBuilder`].
    pub(crate) fn from_validated(n: usize, edges: Vec<Edge>) -> Self {
        debug_assert!(check_id_space(n, edges.len()).is_ok());
        debug_assert!(edges.iter().enumerate().all(|(i, e)| {
            e.id as usize == i
                && (e.u as usize) < n
                && (e.v as usize) < n
                && e.u != e.v
                && e.w.is_finite()
        }));
        EdgeList { n, edges }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, ids matching their positions.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Look an edge up by its id.
    #[inline]
    pub fn edge(&self, id: u32) -> Edge {
        self.edges[id as usize]
    }

    /// Density m/n as used throughout the paper's Table 1.
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.edges.len() as f64 / self.n as f64
        }
    }

    /// Total weight of all edges (used by tests as a checksum).
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Mirrored directed copy: every `{u, v}` appears as `(u → v)` and
    /// `(v → u)`, as the Bor-EL representation requires ("each edge (u,v)
    /// appearing twice in the list for both directions", §2.1).
    pub fn to_directed_pairs(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edges.len() * 2);
        for e in &self.edges {
            out.push(*e);
            out.push(Edge::new(e.v, e.u, e.w, e.id));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> EdgeList {
        EdgeList::from_triples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    }

    #[test]
    fn builds_and_exposes_edges() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge(1), Edge::new(1, 2, 2.0, 1));
        assert_eq!(g.total_weight(), 6.0);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn directed_pairs_mirror() {
        let g = triangle();
        let d = g.to_directed_pairs();
        assert_eq!(d.len(), 6);
        assert_eq!(d[0], Edge::new(0, 1, 1.0, 0));
        assert_eq!(d[1], Edge::new(1, 0, 1.0, 0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loops() {
        EdgeList::from_triples(2, vec![(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        EdgeList::from_triples(2, vec![(0, 2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weights() {
        EdgeList::from_triples(2, vec![(0, 1, f64::NAN)]);
    }

    #[test]
    fn try_from_triples_reports_instead_of_panicking() {
        assert_eq!(
            EdgeList::try_from_triples(2, vec![(1, 1, 1.0)]),
            Err(GraphBuildError::SelfLoop {
                index: 0,
                vertex: 1
            })
        );
        assert_eq!(
            EdgeList::try_from_triples(2, vec![(0, 1, 1.0), (0, 2, 1.0)]),
            Err(GraphBuildError::EndpointOutOfRange {
                index: 1,
                endpoint: 2,
                n: 2
            })
        );
        assert_eq!(
            EdgeList::try_from_triples(2, vec![(0, 1, f64::INFINITY)]),
            Err(GraphBuildError::NonFiniteWeight { index: 0 })
        );
    }

    #[test]
    fn try_from_edges_renumbers_and_reports_the_first_fault() {
        let m = 3 * CHECK_GRAIN;
        let n = m + 1;
        let triples = (0..m as u32).map(|i| (i, i + 1, f64::from(i % 7)));
        let edges: Vec<Edge> = triples
            .clone()
            .map(|(u, v, w)| Edge::new(u, v, w, 99))
            .collect();
        assert_eq!(
            EdgeList::try_from_edges(n, edges.clone()),
            Ok(EdgeList::from_triples(n, triples))
        );
        // Faults in two blocks: the earlier one wins.
        let mut bad = edges;
        bad[2 * CHECK_GRAIN + 1].w = f64::NAN;
        bad[CHECK_GRAIN + 5].v = bad[CHECK_GRAIN + 5].u;
        assert_eq!(
            EdgeList::try_from_edges(n, bad),
            Err(GraphBuildError::SelfLoop {
                index: CHECK_GRAIN + 5,
                vertex: (CHECK_GRAIN + 5) as u64
            })
        );
    }

    #[test]
    fn builder_validates_incrementally() {
        let mut b = EdgeListBuilder::with_capacity(3, 2).unwrap();
        b.try_push(0, 1, 0.5).unwrap();
        assert!(b.try_push(1, 3, 1.0).is_err(), "endpoint == n rejected");
        b.try_push(1, 2, 1.5).unwrap();
        let g = b.finish();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge(1), Edge::new(1, 2, 1.5, 1));
    }

    #[test]
    fn vertex_capacity_boundary_admits_full_u32_space() {
        // n = 2³² is representable (ids 0..=u32::MAX); n = 2³² + 1 is not.
        // Neither allocates: capacity checks precede any reservation.
        let full = 1usize << 32;
        assert!(EdgeListBuilder::new(full).is_ok());
        assert_eq!(
            EdgeListBuilder::new(full + 1).unwrap_err(),
            GraphBuildError::TooManyVertices {
                n: (full + 1) as u128
            }
        );
    }

    #[test]
    fn empty_graph() {
        let g = EdgeList::from_triples(0, vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
    }
}
