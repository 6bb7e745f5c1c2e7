//! Structure-of-arrays graph containers, generic over vertex-id width.
//!
//! [`SoaEdgeList`] is the transport representation behind the binary
//! on-disk format and the out-of-core generators: three parallel arrays
//! (`u`, `v`, `w`) with edge ids implicit in position. [`GenericCsr`] is
//! the matching CSR adjacency structure. Both are parameterized by
//! [`VertexId`] — `u32` keeps the bandwidth of today's in-memory layouts,
//! `u64` makes >4-billion-vertex graphs representable end to end (build,
//! store, convert) even though the compute kernels still require the
//! narrow case.

use crate::edgelist::{EdgeList, GraphBuildError};
use crate::vertexid::VertexId;

/// Flat `(u[], v[], w[])` edge storage with implicit ids.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaEdgeList<V: VertexId> {
    n: u64,
    u: Vec<V>,
    v: Vec<V>,
    w: Vec<f64>,
}

impl<V: VertexId> SoaEdgeList<V> {
    /// An empty graph over `n` vertices. Errors when `n` exceeds the id
    /// space of `V`.
    pub fn new(n: u64) -> Result<Self, GraphBuildError> {
        Self::with_capacity(n, 0)
    }

    /// [`SoaEdgeList::new`] with room reserved for `m` edges.
    pub fn with_capacity(n: u64, m: usize) -> Result<Self, GraphBuildError> {
        if (n as u128) > V::MAX_COUNT {
            return Err(GraphBuildError::TooManyVertices { n: n as u128 });
        }
        Ok(SoaEdgeList {
            n,
            u: Vec::with_capacity(m),
            v: Vec::with_capacity(m),
            w: Vec::with_capacity(m),
        })
    }

    /// Validate and append one edge.
    #[inline]
    pub fn try_push(&mut self, u: u64, v: u64, w: f64) -> Result<(), GraphBuildError> {
        let index = self.u.len();
        if u >= self.n {
            return Err(GraphBuildError::EndpointOutOfRange {
                index,
                endpoint: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphBuildError::EndpointOutOfRange {
                index,
                endpoint: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphBuildError::SelfLoop { index, vertex: u });
        }
        if !w.is_finite() {
            return Err(GraphBuildError::NonFiniteWeight { index });
        }
        self.u.push(V::from_u64(u));
        self.v.push(V::from_u64(v));
        self.w.push(w);
        Ok(())
    }

    /// Vertex count.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Edge count.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.u.len()
    }

    /// The parallel arrays `(u, v, w)`.
    #[inline]
    pub fn arrays(&self) -> (&[V], &[V], &[f64]) {
        (&self.u, &self.v, &self.w)
    }

    /// Edge `i` as widened `(u, v, w)`.
    #[inline]
    pub fn edge(&self, i: usize) -> (u64, u64, f64) {
        (self.u[i].to_u64(), self.v[i].to_u64(), self.w[i])
    }

    /// Iterate edges as widened `(u, v, w)` triples in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, f64)> + '_ {
        (0..self.num_edges()).map(|i| self.edge(i))
    }

    /// Convert from the AoS edge list (always fits: `EdgeList` ids are u32).
    pub fn from_edge_list(g: &EdgeList) -> Result<Self, GraphBuildError> {
        let mut s = Self::with_capacity(g.num_vertices() as u64, g.num_edges())?;
        for e in g.edges() {
            s.try_push(u64::from(e.u), u64::from(e.v), e.w)?;
        }
        Ok(s)
    }

    /// Convert to the AoS edge list the compute kernels consume. Errors when
    /// the vertex or edge count exceeds the u32 id space.
    pub fn to_edge_list(&self) -> Result<EdgeList, GraphBuildError> {
        if (self.n as u128) > <u32 as VertexId>::MAX_COUNT {
            return Err(GraphBuildError::TooManyVertices { n: self.n as u128 });
        }
        let mut b =
            crate::edgelist::EdgeListBuilder::with_capacity(self.n as usize, self.num_edges())?;
        for (u, v, w) in self.iter() {
            b.try_push(u, v, w)?;
        }
        Ok(b.finish())
    }
}

/// CSR adjacency arrays generic over vertex-id width. Both directions of
/// every undirected edge are laid out; `ids` carries the input edge id of
/// each directed entry (edge ids must also fit `V`, checked at build).
#[derive(Debug, Clone, PartialEq)]
pub struct GenericCsr<V: VertexId> {
    offsets: Vec<u64>,
    targets: Vec<V>,
    weights: Vec<f64>,
    ids: Vec<V>,
}

impl<V: VertexId> GenericCsr<V> {
    /// Build from parallel `(u, v, w)` arrays over `n` vertices (counting
    /// sort by source, same layout discipline as
    /// [`crate::adjacency::AdjacencyArray`]). Endpoints must already be
    /// validated `< n`; edge count must fit `V`'s id space.
    pub fn from_arrays(n: u64, us: &[V], vs: &[V], ws: &[f64]) -> Result<Self, GraphBuildError> {
        assert_eq!(us.len(), vs.len());
        assert_eq!(us.len(), ws.len());
        let m = us.len();
        if (m as u128) > V::MAX_COUNT {
            return Err(GraphBuildError::TooManyEdges { m: m as u128 });
        }
        let n_idx =
            usize::try_from(n).map_err(|_| GraphBuildError::TooManyVertices { n: n as u128 })?;
        let mut counts = vec![0u64; n_idx + 1];
        for i in 0..m {
            counts[us[i].to_index()] += 1;
            counts[vs[i].to_index()] += 1;
        }
        // Exclusive scan in place: counts becomes the offsets.
        let mut acc = 0u64;
        for c in counts.iter_mut() {
            let here = *c;
            *c = acc;
            acc += here;
        }
        let total = acc as usize;
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut targets = vec![V::from_u64(0); total];
        let mut weights = vec![0f64; total];
        let mut ids = vec![V::from_u64(0); total];
        for i in 0..m {
            let (u, v, w) = (us[i], vs[i], ws[i]);
            for (src, dst) in [(u, v), (v, u)] {
                let slot = cursor[src.to_index()] as usize;
                cursor[src.to_index()] += 1;
                targets[slot] = dst;
                weights[slot] = w;
                ids[slot] = V::from_u64(i as u64);
            }
        }
        Ok(GenericCsr {
            offsets,
            targets,
            weights,
            ids,
        })
    }

    /// Build from a [`SoaEdgeList`].
    pub fn from_soa(g: &SoaEdgeList<V>) -> Result<Self, GraphBuildError> {
        let (u, v, w) = g.arrays();
        Self::from_arrays(g.num_vertices(), u, v, w)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed entries (2m).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// The row of `v` as parallel slices `(targets, weights, ids)`.
    #[inline]
    pub fn row(&self, v: u64) -> (&[V], &[f64], &[V]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (
            &self.targets[lo..hi],
            &self.weights[lo..hi],
            &self.ids[lo..hi],
        )
    }

    /// Heap bytes of the four arrays — the "in-memory CSR size" yardstick
    /// the ingestion-memory acceptance gate compares peaks against.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * V::WIDTH
            + self.weights.len() * std::mem::size_of::<f64>()
            + self.ids.len() * V::WIDTH
    }
}

/// Analytic size (bytes) of a `GenericCsr<V>` over `n` vertices and `m`
/// undirected edges, without building it.
pub fn csr_bytes<V: VertexId>(n: u64, m: u64) -> u128 {
    (n as u128 + 1) * 8 + 2 * (m as u128) * (V::WIDTH as u128 * 2 + 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyArray;
    use crate::generators::{random_graph, GeneratorConfig};

    #[test]
    fn soa_round_trips_through_edge_list() {
        let g = random_graph(&GeneratorConfig::with_seed(5), 60, 140);
        let narrow = SoaEdgeList::<u32>::from_edge_list(&g).unwrap();
        let wide = SoaEdgeList::<u64>::from_edge_list(&g).unwrap();
        assert_eq!(narrow.to_edge_list().unwrap(), g);
        assert_eq!(wide.to_edge_list().unwrap(), g);
        assert_eq!(
            narrow.iter().collect::<Vec<_>>(),
            wide.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn soa_validates_pushes() {
        let mut s = SoaEdgeList::<u32>::new(3).unwrap();
        assert!(s.try_push(0, 3, 1.0).is_err());
        assert!(s.try_push(1, 1, 1.0).is_err());
        assert!(s.try_push(0, 1, f64::NAN).is_err());
        s.try_push(0, 1, 1.0).unwrap();
        assert_eq!(s.num_edges(), 1);
    }

    #[test]
    fn wide_soa_accepts_huge_vertex_counts() {
        // Representable, not materialized: no per-vertex allocation happens.
        let s = SoaEdgeList::<u64>::new(1 << 40).unwrap();
        assert_eq!(s.num_vertices(), 1 << 40);
        assert!(SoaEdgeList::<u32>::new(1 << 40).is_err());
        assert!(s.to_edge_list().is_err(), "narrowing must fail");
    }

    #[test]
    fn generic_csr_matches_adjacency_array() {
        let g = random_graph(&GeneratorConfig::with_seed(9), 50, 120);
        let soa = SoaEdgeList::<u32>::from_edge_list(&g).unwrap();
        let csr = GenericCsr::from_soa(&soa).unwrap();
        let reference = AdjacencyArray::from_edge_list(&g);
        assert_eq!(csr.num_vertices(), reference.num_vertices());
        assert_eq!(csr.num_directed_edges(), reference.num_directed_edges());
        for v in 0..g.num_vertices() as u32 {
            let (t, w, i) = csr.row(u64::from(v));
            let row: Vec<(u32, f64, u32)> = (0..t.len()).map(|j| (t[j], w[j], i[j])).collect();
            assert_eq!(
                row,
                reference.neighbors(v).collect::<Vec<_>>(),
                "row of {v}"
            );
        }
    }

    #[test]
    fn generic_csr_u64_matches_u32() {
        let g = random_graph(&GeneratorConfig::with_seed(11), 40, 100);
        let narrow =
            GenericCsr::from_soa(&SoaEdgeList::<u32>::from_edge_list(&g).unwrap()).unwrap();
        let wide = GenericCsr::from_soa(&SoaEdgeList::<u64>::from_edge_list(&g).unwrap()).unwrap();
        for v in 0..g.num_vertices() as u64 {
            let (t32, w32, i32_) = narrow.row(v);
            let (t64, w64, i64_) = wide.row(v);
            assert_eq!(
                t32.iter().map(|&t| u64::from(t)).collect::<Vec<_>>(),
                t64.to_vec()
            );
            assert_eq!(w32, w64);
            assert_eq!(
                i32_.iter().map(|&i| u64::from(i)).collect::<Vec<_>>(),
                i64_.to_vec()
            );
        }
    }

    #[test]
    fn csr_size_model_matches_reality() {
        let g = random_graph(&GeneratorConfig::with_seed(2), 100, 400);
        let csr = GenericCsr::from_soa(&SoaEdgeList::<u32>::from_edge_list(&g).unwrap()).unwrap();
        assert_eq!(csr.heap_bytes() as u128, csr_bytes::<u32>(100, 400));
    }
}
