//! Decoding graphs built from detector error models.
//!
//! A decoding graph has one node per detector plus a single virtual boundary
//! node. Every graphlike DEM error becomes an edge: two-detector errors join
//! their detectors, single-detector errors join the detector to the boundary.
//! Edge weights are the usual log-likelihood ratios `ln((1-p)/p)`, and each
//! edge carries the observable mask its underlying error flips.

use raa_stabsim::dem::DetectorErrorModel;
use std::fmt;

/// Error building a decoding graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The DEM contained an error flipping more than two detectors.
    NotGraphlike {
        /// Number of detectors of the offending mechanism.
        num_detectors: usize,
    },
    /// The edge weights cannot be quantized for weighted cluster growth:
    /// either an edge weight is non-finite (a NaN probability survives the
    /// construction clamp), or the maximum weight is indistinguishable from
    /// zero (every probability ≈ 1/2), so dividing by it would flatten or
    /// corrupt the growth order.
    DegenerateWeights {
        /// The first offending edge for a non-finite weight; `None` when
        /// the failure is a ~zero maximum weight.
        edge: Option<u32>,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NotGraphlike { num_detectors } => write!(
                f,
                "detector error model is not graphlike: mechanism flips {num_detectors} detectors \
                 (decompose it first)"
            ),
            GraphError::DegenerateWeights { edge: Some(e) } => write!(
                f,
                "edge {e} has a non-finite weight: cannot quantize weights for cluster growth"
            ),
            GraphError::DegenerateWeights { edge: None } => write!(
                f,
                "maximum edge weight is ~zero (all probabilities ≈ 1/2): cannot quantize weights \
                 for cluster growth"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// One edge of the decoding graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Edge {
    /// First endpoint (a detector index).
    pub(crate) u: u32,
    /// Second endpoint, or `None` for the boundary.
    pub(crate) v: Option<u32>,
    /// Log-likelihood weight `ln((1-p)/p)`, clamped to be positive.
    pub(crate) weight: f64,
    /// Firing probability of the underlying mechanism.
    pub(crate) probability: f64,
    /// Observable mask flipped when this edge is in the correction.
    pub(crate) observables: u64,
}

/// A matching/union-find decoding graph.
///
/// # Example
///
/// ```
/// use raa_stabsim::{Circuit, MeasRecord, DetectorErrorModel};
/// use raa_decode::{graph::DecodingGraph, unionfind::UnionFindDecoder, Decoder};
///
/// let mut c = Circuit::new();
/// c.r(&[0]);
/// c.x_error(&[0], 1e-3);
/// c.m(&[0]);
/// c.detector(&[MeasRecord::back(1)]);
/// c.observable_include(0, &[MeasRecord::back(1)]);
/// let dem = DetectorErrorModel::from_circuit(&c);
/// let graph = DecodingGraph::from_dem(&dem)?;
/// // One boundary edge: the lone fired detector is explained by the X
/// // error, which flips the observable.
/// assert_eq!(UnionFindDecoder::new(graph).predict(&[0]), 1);
/// # Ok::<(), raa_decode::graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    num_detectors: usize,
    edges: Vec<Edge>,
    /// Edge indices incident to each detector.
    adjacency: Vec<Vec<u32>>,
}

impl DecodingGraph {
    /// Builds the graph from a graphlike DEM.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotGraphlike`] if a mechanism flips more than two
    /// detectors; call [`DetectorErrorModel::decompose_graphlike`] first, or
    /// use [`DecodingGraph::from_dem_decomposed`].
    // raa-audit: allow(orphan-pub): batch_proptest.rs builds graphs from hand-written graphlike DEMs; the pipeline decomposes through from_dem_decomposed.
    pub fn from_dem(dem: &DetectorErrorModel) -> Result<Self, GraphError> {
        let mut graph = Self {
            num_detectors: dem.num_detectors,
            edges: Vec::new(),
            adjacency: vec![Vec::new(); dem.num_detectors],
        };
        for e in dem.iter() {
            match e.detectors.len() {
                // A mechanism that flips no detector cannot be decoded.
                0 => {}
                1 => graph.push_edge(e.detectors[0], None, e.probability, e.observables),
                2 => graph.push_edge(
                    e.detectors[0],
                    Some(e.detectors[1]),
                    e.probability,
                    e.observables,
                ),
                n => return Err(GraphError::NotGraphlike { num_detectors: n }),
            }
        }
        Ok(graph)
    }

    /// Builds the graph from any DEM, decomposing hyperedges first.
    ///
    /// Returns the graph and the number of hyperedges that needed arbitrary
    /// (non-matching) decomposition.
    pub fn from_dem_decomposed(dem: &DetectorErrorModel) -> (Self, usize) {
        let (graphlike, arbitrary) = dem.decompose_graphlike();
        let graph =
            Self::from_dem(&graphlike).expect("decompose_graphlike output must be graphlike");
        (graph, arbitrary)
    }

    fn push_edge(&mut self, u: u32, v: Option<u32>, probability: f64, observables: u64) {
        let p = probability.clamp(1e-15, 0.5 - 1e-15);
        let weight = ((1.0 - p) / p).ln();
        let idx = self.edges.len() as u32;
        self.edges.push(Edge {
            u,
            v,
            weight,
            probability,
            observables,
        });
        self.adjacency[u as usize].push(idx);
        if let Some(v) = v {
            self.adjacency[v as usize].push(idx);
        }
    }

    /// Number of detector nodes.
    pub(crate) fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges.
    pub(crate) fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge indices incident to detector `d`.
    pub(crate) fn incident(&self, d: u32) -> &[u32] {
        &self.adjacency[d as usize]
    }
}

/// Growth resolution for quantized union-find weights: the heaviest edge
/// costs this many unit growth steps.
pub(crate) const WEIGHT_QUANTA: f64 = 32.0;

/// A decoding graph compiled once into flat arenas for the decode hot path.
///
/// [`DecodingGraph`] keeps one `Vec` of incident edges per detector, which is
/// convenient to build but scatters the per-shot adjacency walk across as
/// many heap allocations as there are detectors. `CompiledGraph` repacks the
/// same structure into CSR form — one offsets array plus one flat edge-index
/// arena — along with struct-of-arrays edge endpoints, weights already
/// quantized to `WEIGHT_QUANTA` units, and the per-edge observable masks.
/// It is built once per `(DEM, window)` and shared read-only by every decode
/// worker; nothing in it changes per shot.
///
/// The virtual boundary is encoded as node index `num_detectors` so endpoint
/// comparisons stay branch-free in the growth loop.
#[derive(Debug, Clone)]
pub(crate) struct CompiledGraph {
    num_detectors: usize,
    /// CSR offsets: edges incident to detector `d` live at
    /// `adj_edges[adj_off[d]..adj_off[d + 1]]`.
    adj_off: Vec<u32>,
    adj_edges: Vec<u32>,
    /// Edge endpoints; the boundary is encoded as `num_detectors`.
    endpoints: Vec<[u32; 2]>,
    /// Edge weights in integer growth quanta (always ≥ 1).
    weights: Vec<u32>,
    /// Observable mask flipped when the edge joins a correction.
    observables: Vec<u64>,
}

impl CompiledGraph {
    /// Compiles `graph` with log-likelihood weights quantized to
    /// `WEIGHT_QUANTA` integer growth units.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DegenerateWeights`] when a weight is non-finite
    /// or the maximum weight is ~zero (all probabilities ≈ 1/2), because the
    /// quantization divides by the maximum weight. Callers that can tolerate
    /// losing the weighting should fall back to
    /// [`CompiledGraph::compile_uniform`].
    pub(crate) fn compile(graph: &DecodingGraph) -> Result<Self, GraphError> {
        let mut max_w = 0.0f64;
        for (i, e) in graph.edges().iter().enumerate() {
            if !e.weight.is_finite() {
                return Err(GraphError::DegenerateWeights {
                    edge: Some(i as u32),
                });
            }
            max_w = max_w.max(e.weight);
        }
        if !graph.edges().is_empty() && max_w < 1e-9 {
            return Err(GraphError::DegenerateWeights { edge: None });
        }
        let weights = graph
            .edges()
            .iter()
            .map(|e| ((e.weight / max_w * WEIGHT_QUANTA).round() as u32).max(1))
            .collect();
        Ok(Self::assemble(graph, weights))
    }

    /// Compiles `graph` with every edge given unit weight, ignoring the
    /// probabilities. This is the degenerate-weight fallback: growth order
    /// becomes pure hop distance, which matches what the quantizer produces
    /// anyway when all weights collapse to the same quantum.
    pub(crate) fn compile_uniform(graph: &DecodingGraph) -> Self {
        Self::assemble(graph, vec![1; graph.num_edges()])
    }

    fn assemble(graph: &DecodingGraph, weights: Vec<u32>) -> Self {
        let nd = graph.num_detectors();
        let boundary = nd as u32;
        let mut adj_off = Vec::with_capacity(nd + 1);
        let mut adj_edges = Vec::new();
        adj_off.push(0);
        for d in 0..nd {
            adj_edges.extend_from_slice(graph.incident(d as u32));
            adj_off.push(adj_edges.len() as u32);
        }
        let endpoints = graph
            .edges()
            .iter()
            .map(|e| [e.u, e.v.unwrap_or(boundary)])
            .collect();
        let observables = graph.edges().iter().map(|e| e.observables).collect();
        Self {
            num_detectors: nd,
            adj_off,
            adj_edges,
            endpoints,
            weights,
            observables,
        }
    }

    /// Number of detector nodes (the boundary is encoded as this index).
    #[inline]
    pub(crate) fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of edges.
    #[inline]
    pub(crate) fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Edge indices incident to detector `d`.
    #[inline]
    pub(crate) fn incident(&self, d: u32) -> &[u32] {
        let d = d as usize;
        &self.adj_edges[self.adj_off[d] as usize..self.adj_off[d + 1] as usize]
    }

    /// Both endpoints of edge `e`; the boundary is `num_detectors`.
    #[inline]
    pub(crate) fn endpoints(&self, e: u32) -> [u32; 2] {
        self.endpoints[e as usize]
    }

    /// Quantized integer weight of edge `e` (growth units, ≥ 1).
    #[inline]
    pub(crate) fn weight(&self, e: u32) -> u32 {
        self.weights[e as usize]
    }

    /// Observable mask of edge `e`.
    #[inline]
    pub(crate) fn observables(&self, e: u32) -> u64 {
        self.observables[e as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_stabsim::dem::{DemError, DetectorErrorModel};

    fn dem(errors: Vec<DemError>, nd: usize) -> DetectorErrorModel {
        DetectorErrorModel {
            num_detectors: nd,
            num_observables: 1,
            errors,
        }
    }

    fn err(dets: &[u32], obs: u64, p: f64) -> DemError {
        DemError {
            probability: p,
            detectors: dets.to_vec(),
            observables: obs,
        }
    }

    #[test]
    fn builds_boundary_and_bulk_edges() {
        let d = dem(
            vec![
                err(&[0], 1, 0.01),
                err(&[0, 1], 0, 0.02),
                err(&[1], 0, 0.01),
            ],
            2,
        );
        let g = DecodingGraph::from_dem(&d).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.incident(0).len(), 2);
        assert_eq!(g.incident(1).len(), 2);
        let boundary_edges = g.edges().iter().filter(|e| e.v.is_none()).count();
        assert_eq!(boundary_edges, 2);
    }

    #[test]
    fn weights_are_log_likelihood_ratios() {
        let d = dem(vec![err(&[0], 0, 0.01)], 1);
        let g = DecodingGraph::from_dem(&d).unwrap();
        assert!((g.edges()[0].weight - (0.99f64 / 0.01).ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_hyperedges() {
        let d = dem(vec![err(&[0, 1, 2], 0, 0.01)], 3);
        let e = DecodingGraph::from_dem(&d).unwrap_err();
        assert_eq!(e, GraphError::NotGraphlike { num_detectors: 3 });
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn decomposed_constructor_accepts_hyperedges() {
        let d = dem(
            vec![
                err(&[0, 1], 0, 0.01),
                err(&[2], 1, 0.01),
                err(&[0, 1, 2], 1, 0.001),
            ],
            3,
        );
        let (g, arbitrary) = DecodingGraph::from_dem_decomposed(&d);
        assert_eq!(arbitrary, 0);
        assert!(g.num_edges() >= 2);
    }

    #[test]
    fn compiled_graph_mirrors_adjacency_and_quantizes_weights() {
        let d = dem(
            vec![err(&[0], 1, 0.01), err(&[0, 1], 0, 0.1), err(&[1], 0, 0.01)],
            2,
        );
        let g = DecodingGraph::from_dem(&d).unwrap();
        let c = CompiledGraph::compile(&g).unwrap();
        assert_eq!(c.num_detectors(), 2);
        assert_eq!(c.num_edges(), 3);
        for det in 0..2u32 {
            assert_eq!(c.incident(det), g.incident(det));
        }
        // Boundary encoded as num_detectors.
        assert_eq!(c.endpoints(0), [0, 2]);
        assert_eq!(c.endpoints(1), [0, 1]);
        assert_eq!(c.observables(0), 1);
        // Heaviest edge gets WEIGHT_QUANTA units; the less likely edges are
        // heavier than the p=0.1 bulk edge.
        assert_eq!(c.weight(0), WEIGHT_QUANTA as u32);
        assert!(c.weight(1) < c.weight(0));
        for e in 0..3 {
            assert!(c.weight(e) >= 1);
        }
    }

    #[test]
    fn compile_rejects_all_half_probability_weights() {
        // p = 0.5 clamps to weight ~0 for every edge: max_w ~ 0.
        let d = dem(vec![err(&[0], 0, 0.5), err(&[0, 1], 0, 0.5)], 2);
        let g = DecodingGraph::from_dem(&d).unwrap();
        let e = CompiledGraph::compile(&g).unwrap_err();
        assert_eq!(e, GraphError::DegenerateWeights { edge: None });
        assert!(e.to_string().contains("maximum edge weight"));
    }

    #[test]
    fn compile_rejects_non_finite_weights() {
        // A NaN probability survives the clamp as NaN and yields a NaN weight.
        let d = dem(vec![err(&[0], 0, 0.01), err(&[0, 1], 0, f64::NAN)], 2);
        let g = DecodingGraph::from_dem(&d).unwrap();
        let e = CompiledGraph::compile(&g).unwrap_err();
        assert_eq!(e, GraphError::DegenerateWeights { edge: Some(1) });
        assert!(e.to_string().contains("non-finite"));
    }

    #[test]
    fn uniform_fallback_compiles_degenerate_graphs() {
        let d = dem(vec![err(&[0], 0, 0.5), err(&[0, 1], 0, 0.5)], 2);
        let g = DecodingGraph::from_dem(&d).unwrap();
        let c = CompiledGraph::compile_uniform(&g);
        assert_eq!(c.num_edges(), 2);
        assert!((0..2).all(|e| c.weight(e) == 1));
    }

    #[test]
    fn empty_graph_compiles() {
        let d = dem(vec![], 0);
        let g = DecodingGraph::from_dem(&d).unwrap();
        let c = CompiledGraph::compile(&g).unwrap();
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.num_detectors(), 0);
    }
}
