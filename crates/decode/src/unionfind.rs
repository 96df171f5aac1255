//! Weighted union–find decoder with peeling.
//!
//! The union–find decoder (Delfosse–Nickerson style, with weighted growth)
//! grows clusters around syndrome defects until every cluster has even parity
//! or touches the boundary, then peels a spanning forest of the grown region
//! to produce a correction. It runs in near-linear time and is the workhorse
//! decoder for the paper's transversal-circuit simulations; the paper notes
//! (§III.4, Fig. 13a) that cheaper-but-less-accurate decoders simply show up
//! as a larger decoding factor α.
//!
//! Growth is frontier-driven: each odd cluster carries the list of edges on
//! its boundary and only those edges are visited per growth round, so the
//! cost of a decode scales with the grown region rather than with the whole
//! graph. Two further mechanisms make the batched Monte-Carlo hot path cheap:
//!
//! - **Compiled graph.** The decoder walks a [`CompiledGraph`] — CSR
//!   adjacency in one flat arena with pre-quantized integer weights — built
//!   once at construction and shared read-only by every worker, instead of
//!   chasing per-detector `Vec`s on each decode.
//! - **Epoch-tagged scratch.** [`UfScratch`] stamps every node/edge/frontier
//!   slot with the epoch that last wrote it and lazily reinitializes a slot
//!   on first touch per decode, so resetting between shots costs O(touched)
//!   rather than O(nodes + edges). Weighted growth additionally jumps over
//!   growth rounds in which no edge can reach its weight (the per-round
//!   increments are computed in closed form), which matters for heavy edges
//!   quantized to many growth quanta.
//!
//! Both mechanisms are exact: the decision stream (solidification order,
//! merge order, peel order) is bit-identical to the literal one-quantum-per-
//! round formulation.
//!
//! Every syndrome takes the same path — seed, grow, peel — and leaves two
//! records in its scratch: the correction edges ([`UfScratch::correction`])
//! and the decode's *reach*, every edge that ever entered a frontier list.
//! The windowed decoder reads both: the correction to split at the commit
//! boundary, the reach to prove a window-template decode never touched a
//! clipped neighborhood.

use crate::graph::{CompiledGraph, DecodingGraph, GraphError};
use crate::Decoder;
use raa_stabsim::SyndromeBatch;
use std::collections::VecDeque;

/// Outcome of a union–find decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnionFindOutcome {
    /// Predicted observable mask.
    pub observables: u64,
    /// Whether peeling fully resolved every defect (it should whenever the
    /// graph connects all detectors to the boundary).
    pub converged: bool,
}

const NONE: u32 = u32::MAX;

/// Reusable working state for [`UnionFindDecoder`].
///
/// Construct with `Default::default()`; the first decode sizes every buffer
/// to the decoder's graph and later decodes reuse the capacity. One scratch
/// serves one decoder at a time (sizes adapt automatically if reused across
/// decoders of different shapes).
///
/// Per-node and per-edge state is epoch-tagged: each decode bumps a
/// generation counter and slots are lazily reinitialized on first touch, so
/// the inter-shot reset is O(1) plus the handful of explicit list clears —
/// the batched Monte-Carlo path never pays an O(graph) wipe for a sparse
/// syndrome.
#[derive(Debug, Clone, Default)]
pub struct UfScratch {
    /// Current decode generation; `*_epoch` slots not equal to this are
    /// stale and reinitialized on first touch.
    epoch: u32,
    node_epoch: Vec<u32>,
    edge_epoch: Vec<u32>,
    frontier_epoch: Vec<u32>,
    // Union-find forest over detector nodes + virtual boundary node.
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Root-indexed: parity of defect count in the cluster.
    parity: Vec<bool>,
    /// Root-indexed: whether the cluster touches the boundary node.
    boundary: Vec<bool>,
    /// Root-indexed: frontier edge list of the cluster.
    frontier: Vec<Vec<u32>>,
    /// Per-edge accumulated growth.
    growth: Vec<u32>,
    /// Per-edge solid flag.
    solid: Vec<bool>,
    /// Per-edge visit count of the current growth round (round-jump pass).
    pending: Vec<u32>,
    /// Edges visited by the current growth round (clears `pending`).
    round_edges: Vec<u32>,
    /// The current round's live frontier visits, in scan order (an edge
    /// appears once per active endpoint). Recorded by the counting pass so
    /// the literal unit round can replay it without re-resolving clusters.
    visit_edges: Vec<u32>,
    /// Solidified edge indices, in solidification order (drives peeling).
    solid_edges: Vec<u32>,
    /// Per-node: whether the node's incident edges were already added to a
    /// cluster frontier.
    seeded: Vec<bool>,
    /// Roots of clusters that may still be active.
    active: Vec<u32>,
    /// Scratch for the next round's active list.
    next_active: Vec<u32>,
    /// Edges that reached their weight this round.
    to_merge: Vec<u32>,
    // Peeling state.
    defect: Vec<bool>,
    visited: Vec<bool>,
    /// BFS visit order of (node, incoming edge).
    order: Vec<(u32, u32)>,
    queue: VecDeque<u32>,
    /// Linked-list adjacency over solid edges: per-node head into `adj_*`.
    adj_head: Vec<u32>,
    adj_next: Vec<u32>,
    adj_edge: Vec<u32>,
    /// Edge indices of the last decode's correction, in peel order.
    correction: Vec<u32>,
    /// Defect-extraction buffer for the batched decode path.
    defects_buf: Vec<u32>,
    /// Bitset of the edges that ever entered a frontier list this epoch —
    /// the decode's reach (see [`UfScratch::reach_intersects`]).
    edge_mask: Vec<u64>,
}

impl UfScratch {
    /// Opens a new decode epoch for a graph with `num_nodes` nodes
    /// (detectors + boundary) and `num_edges` edges. Stale per-slot state is
    /// reinitialized lazily by the `touch_*` methods; only the compact lists
    /// are cleared eagerly.
    fn begin(&mut self, num_nodes: usize, num_edges: usize) {
        if self.epoch == u32::MAX {
            // Epoch counter wrap: restamp everything as stale once.
            self.node_epoch.iter_mut().for_each(|e| *e = 0);
            self.edge_epoch.iter_mut().for_each(|e| *e = 0);
            self.frontier_epoch.iter_mut().for_each(|e| *e = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.node_epoch.len() < num_nodes {
            self.node_epoch.resize(num_nodes, 0);
            self.parent.resize(num_nodes, 0);
            self.rank.resize(num_nodes, 0);
            self.parity.resize(num_nodes, false);
            self.boundary.resize(num_nodes, false);
            self.seeded.resize(num_nodes, false);
            self.defect.resize(num_nodes, false);
            self.visited.resize(num_nodes, false);
            self.adj_head.resize(num_nodes, NONE);
        }
        if self.frontier_epoch.len() < num_nodes {
            self.frontier_epoch.resize(num_nodes, 0);
            self.frontier.resize_with(num_nodes, Vec::new);
        }
        if self.edge_epoch.len() < num_edges {
            self.edge_epoch.resize(num_edges, 0);
            self.growth.resize(num_edges, 0);
            self.solid.resize(num_edges, false);
            self.pending.resize(num_edges, 0);
        }
        self.round_edges.clear();
        self.visit_edges.clear();
        self.solid_edges.clear();
        self.active.clear();
        self.next_active.clear();
        self.to_merge.clear();
        self.order.clear();
        self.queue.clear();
        self.adj_next.clear();
        self.adj_edge.clear();
        self.correction.clear();
        self.edge_mask.clear();
        self.edge_mask.resize(num_edges.div_ceil(64).max(1), 0);
    }

    /// Records edges entering a frontier list (the decode's reach).
    #[inline]
    fn mark_edges(&mut self, edges: &[u32]) {
        for &ei in edges {
            self.edge_mask[(ei >> 6) as usize] |= 1 << (ei & 63);
        }
    }

    /// Reinitializes node `x`'s slots if they are stale.
    #[inline]
    fn touch_node(&mut self, x: u32) {
        let xi = x as usize;
        if self.node_epoch[xi] != self.epoch {
            self.node_epoch[xi] = self.epoch;
            self.parent[xi] = x;
            self.rank[xi] = 0;
            self.parity[xi] = false;
            self.boundary[xi] = false;
            self.seeded[xi] = false;
            self.defect[xi] = false;
            self.visited[xi] = false;
            self.adj_head[xi] = NONE;
        }
    }

    /// Reinitializes edge `e`'s slots if they are stale.
    #[inline]
    fn touch_edge(&mut self, e: u32) {
        let ei = e as usize;
        if self.edge_epoch[ei] != self.epoch {
            self.edge_epoch[ei] = self.epoch;
            self.growth[ei] = 0;
            self.solid[ei] = false;
            self.pending[ei] = 0;
        }
    }

    /// Clears root `r`'s frontier list if it is stale.
    #[inline]
    fn touch_frontier(&mut self, r: u32) {
        let ri = r as usize;
        if self.frontier_epoch[ri] != self.epoch {
            self.frontier_epoch[ri] = self.epoch;
            self.frontier[ri].clear();
        }
    }

    /// The correction of the last decode through this scratch: the graph
    /// edge indices peeling selected, in peel order. The predicted
    /// observable mask is the XOR of these edges' observable masks; the
    /// windowed decoder uses the edges themselves to split a correction at
    /// the commit boundary (syndrome projection).
    pub fn correction(&self) -> &[u32] {
        &self.correction
    }

    /// Whether the last decode's reach (every edge that entered a frontier
    /// list) intersects `mask`, a bitset over edge indices. Only meaningful
    /// after a non-empty decode (an empty syndrome returns before touching
    /// the scratch); the windowed decoder uses this to prove a
    /// window-template decode never touched an edge whose neighborhood the
    /// template clips.
    pub(crate) fn reach_intersects(&self, mask: &[u64]) -> bool {
        self.edge_mask
            .iter()
            .zip(mask.iter())
            .any(|(&a, &b)| a & b != 0)
    }

    fn find(&mut self, x: u32) -> u32 {
        // Nodes on a parent chain were all touched when they were unioned,
        // so only the entry point needs the staleness check.
        self.touch_node(x);
        let mut x = x;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unions the clusters of `a` and `b`, merging parity, boundary flags and
    /// frontier lists (small list drains into large); returns the new root.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        if self.rank[big as usize] == self.rank[small as usize] {
            self.rank[big as usize] += 1;
        }
        let parity = self.parity[ra as usize] ^ self.parity[rb as usize];
        let boundary = self.boundary[ra as usize] | self.boundary[rb as usize];
        self.parity[big as usize] = parity;
        self.boundary[big as usize] = boundary;
        // Merge frontier lists small-into-big without allocating: swap the
        // shorter one out, drain it into the longer.
        self.touch_frontier(big);
        self.touch_frontier(small);
        let (bi, si) = (big as usize, small as usize);
        if self.frontier[bi].len() < self.frontier[si].len() {
            self.frontier.swap(bi, si);
        }
        let mut donor = std::mem::take(&mut self.frontier[si]);
        self.frontier[bi].append(&mut donor);
        self.frontier[si] = donor; // restore the (now empty) allocation
        big
    }

    fn push_adj(&mut self, node: u32, edge: u32) {
        let slot = self.adj_next.len() as u32;
        self.adj_next.push(self.adj_head[node as usize]);
        self.adj_edge.push(edge);
        self.adj_head[node as usize] = slot;
    }
}

/// Weighted union–find decoder over a [`DecodingGraph`].
///
/// At construction the graph is compiled into a [`CompiledGraph`] (flat CSR
/// adjacency, quantized integer weights) that the decode loop walks; the
/// original graph stays available through [`UnionFindDecoder::graph`] for
/// callers that need edge endpoints or observables in floating-point form
/// (e.g. the windowed decoder's commit-boundary split).
///
/// # Example
///
/// ```
/// use raa_stabsim::{Circuit, MeasRecord, DetectorErrorModel};
/// use raa_decode::{graph::DecodingGraph, unionfind::UnionFindDecoder, Decoder};
///
/// // Distance-3 repetition code, single round: 2 detectors.
/// let mut c = Circuit::new();
/// c.r(&[0, 1, 2, 3, 4]);
/// c.x_error(&[0, 2, 4], 0.01);
/// c.cx(&[(0, 1), (2, 1), (2, 3), (4, 3)]);
/// c.mr(&[1, 3]);
/// c.detector(&[MeasRecord::back(2)]);
/// c.detector(&[MeasRecord::back(1)]);
/// c.m(&[0, 2, 4]);
/// c.observable_include(0, &[MeasRecord::back(3)]);
/// let dem = DetectorErrorModel::from_circuit(&c);
/// let graph = DecodingGraph::from_dem(&dem).unwrap();
/// let decoder = UnionFindDecoder::new(graph);
/// // A single fired detector at the edge: the correction crosses the boundary.
/// let prediction = decoder.predict(&[0]);
/// assert_eq!(prediction, 1); // flips the logical observable on qubit 0
/// ```
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    graph: DecodingGraph,
    compiled: CompiledGraph,
}

impl UnionFindDecoder {
    /// Builds a decoder owning `graph`, quantizing edge weights to at most
    /// 32 growth quanta (minimum 1) for the growth stage.
    ///
    /// If the weights are degenerate (non-finite, or all ≈ 0 because every
    /// probability ≈ 1/2) the decoder falls back to uniform unit weights —
    /// exactly what the quantizer used to produce silently for such graphs.
    /// Use [`UnionFindDecoder::try_new`] to surface the degeneracy as a
    /// typed error instead.
    pub fn new(graph: DecodingGraph) -> Self {
        let compiled = CompiledGraph::compile(&graph)
            .unwrap_or_else(|_| CompiledGraph::compile_uniform(&graph));
        Self::from_parts(graph, compiled)
    }

    /// Builds a decoder owning `graph`, rejecting graphs whose edge weights
    /// cannot be meaningfully quantized.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DegenerateWeights`] when an edge weight is
    /// non-finite or the maximum weight is ~zero (all probabilities ≈ 1/2);
    /// quantizing such weights would silently flatten the weighted growth
    /// order. [`UnionFindDecoder::new`] instead falls back to uniform
    /// weights for these graphs.
    pub fn try_new(graph: DecodingGraph) -> Result<Self, GraphError> {
        let compiled = CompiledGraph::compile(&graph)?;
        Ok(Self::from_parts(graph, compiled))
    }

    /// Assembles a decoder from an already-compiled graph. Crate-internal:
    /// the windowed decoder uses this to build per-window-template decoders
    /// whose [`CompiledGraph`] carries weights quantized against the *full*
    /// circuit graph (see [`CompiledGraph::compile_with_weights`]).
    pub(crate) fn from_parts(graph: DecodingGraph, compiled: CompiledGraph) -> Self {
        Self { graph, compiled }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// The compiled (CSR, quantized-weight) form the decode loop runs on.
    pub fn compiled(&self) -> &CompiledGraph {
        &self.compiled
    }

    /// Decodes a syndrome with a fresh scratch; prefer
    /// [`UnionFindDecoder::decode_into`] in loops.
    pub fn decode(&self, defects: &[u32]) -> UnionFindOutcome {
        self.decode_into(defects, &mut UfScratch::default())
    }

    /// Decodes a syndrome (the list of fired detectors), reporting
    /// convergence: seed a cluster at every defect, grow and merge until no
    /// odd cluster can grow, then peel. All working state lives in
    /// `scratch`; steady state performs no heap allocation. Besides the
    /// outcome, the scratch holds the correction edges
    /// ([`UfScratch::correction`]) and, for a non-empty syndrome, the
    /// decode's reach.
    pub fn decode_into(&self, defects: &[u32], scratch: &mut UfScratch) -> UnionFindOutcome {
        if defects.is_empty() {
            scratch.correction.clear();
            return UnionFindOutcome {
                observables: 0,
                converged: true,
            };
        }
        let g = &self.compiled;
        let nd = g.num_detectors();
        let boundary_node = nd as u32;
        let num_nodes = nd + 1;
        scratch.begin(num_nodes, g.num_edges());
        scratch.touch_node(boundary_node);
        scratch.boundary[nd] = true;

        // Seed odd-parity singleton clusters at the defects. Each defect's
        // frontier starts as its incident edges.
        for &d in defects {
            let r = scratch.find(d) as usize;
            scratch.parity[r] = !scratch.parity[r];
            if !scratch.seeded[d as usize] {
                scratch.seeded[d as usize] = true;
                scratch.touch_frontier(d);
                scratch.frontier[d as usize].extend_from_slice(g.incident(d));
                scratch.mark_edges(g.incident(d));
            }
        }
        for &d in defects {
            let r = scratch.find(d);
            if scratch.parity[r as usize] {
                scratch.active.push(r);
            }
        }
        scratch.active.sort_unstable();
        scratch.active.dedup();

        // Growth: per round, every edge on an odd non-boundary cluster's
        // frontier grows by one quantum per active endpoint (all growth is
        // applied before any merge, matching simultaneous dense growth);
        // edges reaching their weight solidify and merge their endpoints.
        //
        // Rounds in which no edge can reach its weight are jumped over: a
        // read-only pass counts how many frontiers grow each still-open edge
        // (`pending`), the number of whole rounds until the earliest
        // solidification is computed in closed form, and all but the last of
        // those rounds are applied as a single multiple-of-`pending`
        // increment. Because no edge solidifies during the jumped rounds,
        // cluster membership and frontiers are unchanged across them, so the
        // literal round that follows sees exactly the state the one-quantum
        // formulation would have produced — the decision stream is
        // bit-identical.
        loop {
            // Pass 1: prune dead (solid or intra-cluster) frontier edges in
            // place, count per-edge visits for the round jump, and record
            // the surviving visit sequence. `swap_remove` keeps live edges
            // in encounter order, so the recorded sequence is exactly the
            // visit order the literal unit round would produce; nothing
            // solidifies or merges between the passes, so pass 2 can replay
            // it without re-resolving clusters.
            scratch.round_edges.clear();
            scratch.visit_edges.clear();
            for ai in 0..scratch.active.len() {
                let root = scratch.active[ai];
                let rooti = root as usize;
                let mut i = 0;
                while i < scratch.frontier[rooti].len() {
                    let ei = scratch.frontier[rooti][i];
                    scratch.touch_edge(ei);
                    if scratch.solid[ei as usize] {
                        scratch.frontier[rooti].swap_remove(i);
                        continue;
                    }
                    let [u, v] = g.endpoints(ei);
                    // Every frontier edge of `root` has at least one
                    // endpoint inside the cluster, so when one endpoint
                    // resolves elsewhere the edge cannot be internal.
                    let fu = scratch.find(u);
                    debug_assert!(fu == root || scratch.find(v) == root);
                    if fu == root && scratch.find(v) == root {
                        scratch.frontier[rooti].swap_remove(i);
                        continue;
                    }
                    if scratch.pending[ei as usize] == 0 {
                        scratch.round_edges.push(ei);
                    }
                    scratch.pending[ei as usize] += 1;
                    scratch.visit_edges.push(ei);
                    i += 1;
                }
            }
            if scratch.round_edges.is_empty() {
                break; // nothing grew: all clusters even or on the boundary
            }
            // Rounds until the earliest edge reaches its weight; apply all
            // but the last silently (growth only — no merges can happen).
            let mut delta = u32::MAX;
            for &ei in &scratch.round_edges {
                let remaining = g.weight(ei) - scratch.growth[ei as usize];
                let per_round = scratch.pending[ei as usize];
                delta = delta.min(remaining.div_ceil(per_round));
            }
            for ri in 0..scratch.round_edges.len() {
                let ei = scratch.round_edges[ri] as usize;
                if delta > 1 {
                    scratch.growth[ei] += (delta - 1) * scratch.pending[ei];
                }
                scratch.pending[ei] = 0;
            }
            // Pass 2: the literal unit round — replay the recorded visits,
            // growing each live edge once per active endpoint and collecting
            // edges that reach their weight in visit order (an edge shared
            // by two active clusters may be pushed twice; the merge loop
            // below skips the duplicate via its solid check).
            scratch.to_merge.clear();
            for vi in 0..scratch.visit_edges.len() {
                let ei = scratch.visit_edges[vi];
                scratch.growth[ei as usize] += 1;
                if scratch.growth[ei as usize] >= g.weight(ei) {
                    scratch.to_merge.push(ei);
                }
            }
            for ti in 0..scratch.to_merge.len() {
                let ei = scratch.to_merge[ti];
                if scratch.solid[ei as usize] {
                    continue; // both endpoints pushed it this round
                }
                let [u, v] = g.endpoints(ei);
                if scratch.find(u) == scratch.find(v) {
                    continue; // became internal via an earlier merge
                }
                scratch.solid[ei as usize] = true;
                scratch.solid_edges.push(ei);
                // A node joining its first cluster contributes its incident
                // edges to the merged frontier (the boundary node has none).
                for node in [u, v] {
                    if node != boundary_node && !scratch.seeded[node as usize] {
                        scratch.seeded[node as usize] = true;
                        let root = scratch.find(node);
                        // `node` may already be inside a cluster only if it
                        // was seeded before, so here it is its own root or a
                        // fresh member of this merge round's cluster.
                        scratch.touch_frontier(root);
                        scratch.frontier[root as usize].extend_from_slice(g.incident(node));
                        scratch.mark_edges(g.incident(node));
                    }
                }
                scratch.union(u, v);
            }
            // Refresh the active list: re-resolve every candidate root and
            // keep odd, non-boundary clusters that can still grow.
            let mut candidates = std::mem::take(&mut scratch.active);
            for &cand in &candidates {
                let r = scratch.find(cand);
                if scratch.parity[r as usize]
                    && !scratch.boundary[r as usize]
                    && !scratch.frontier[r as usize].is_empty()
                {
                    scratch.next_active.push(r);
                }
            }
            candidates.clear();
            scratch.active = candidates;
            std::mem::swap(&mut scratch.active, &mut scratch.next_active);
            scratch.active.sort_unstable();
            scratch.active.dedup();
            if scratch.active.is_empty() {
                break;
            }
        }

        self.peel(defects, scratch)
    }

    /// Peeling stage: spanning forest over solid edges, leaves first.
    fn peel(&self, defects: &[u32], scratch: &mut UfScratch) -> UnionFindOutcome {
        let g = &self.compiled;
        let boundary_node = g.num_detectors() as u32;

        // Adjacency restricted to solidified edges. Every endpoint of a
        // solid edge was touched during growth (it joined a cluster).
        for si in 0..scratch.solid_edges.len() {
            let ei = scratch.solid_edges[si];
            let [u, v] = g.endpoints(ei);
            scratch.push_adj(u, ei);
            scratch.push_adj(v, ei);
        }

        for &d in defects {
            scratch.defect[d as usize] = true;
        }

        let mut observables = 0u64;
        let mut converged = true;

        // Component roots: boundary first so it absorbs parity where possible.
        for root_idx in 0..=defects.len() {
            let root = if root_idx == 0 {
                boundary_node
            } else {
                defects[root_idx - 1]
            };
            if scratch.visited[root as usize] {
                continue;
            }
            // BFS recording (node, incoming edge) in visit order.
            let order_start = scratch.order.len();
            scratch.visited[root as usize] = true;
            scratch.queue.push_back(root);
            scratch.order.push((root, NONE));
            while let Some(v) = scratch.queue.pop_front() {
                let mut slot = scratch.adj_head[v as usize];
                while slot != NONE {
                    let ei = scratch.adj_edge[slot as usize];
                    let [eu, ev] = g.endpoints(ei);
                    let other = if eu == v { ev } else { eu };
                    if !scratch.visited[other as usize] {
                        scratch.visited[other as usize] = true;
                        scratch.queue.push_back(other);
                        scratch.order.push((other, ei));
                    }
                    slot = scratch.adj_next[slot as usize];
                }
            }
            // Peel leaves-first (reverse BFS order), toggling the parent's
            // defect and accumulating observable flips on used edges.
            for oi in (order_start..scratch.order.len()).rev() {
                let (v, ei) = scratch.order[oi];
                if ei == NONE {
                    // Root: leftover defect must be absorbed by the boundary.
                    if scratch.defect[v as usize] && v != boundary_node {
                        converged = false;
                    }
                    continue;
                }
                if scratch.defect[v as usize] {
                    scratch.defect[v as usize] = false;
                    let [eu, ev] = g.endpoints(ei);
                    let p = if eu == v { ev } else { eu };
                    if p != boundary_node {
                        scratch.defect[p as usize] = !scratch.defect[p as usize];
                    }
                    observables ^= g.observables(ei);
                    scratch.correction.push(ei);
                }
            }
        }
        // Any defect never resolved by peeling: isolated failure. A leftover
        // defect can only sit at a BFS root (every defect is used as one),
        // so scanning the defect list — all touched this epoch — is exact;
        // untouched slots must not be read under the epoch scheme.
        if defects.iter().any(|&d| scratch.defect[d as usize]) {
            converged = false;
        }
        UnionFindOutcome {
            observables,
            converged,
        }
    }
}

impl Decoder for UnionFindDecoder {
    type Scratch = UfScratch;

    fn predict_into(&self, defects: &[u32], scratch: &mut UfScratch) -> u64 {
        self.decode_into(defects, scratch).observables
    }

    fn predict_batch_into(
        &self,
        syndromes: &SyndromeBatch,
        out: &mut Vec<u64>,
        scratch: &mut UfScratch,
    ) {
        out.clear();
        // Word-skipping extraction straight into the scratch-resident buffer;
        // the epoch-tagged scratch makes the per-shot reset O(touched), so
        // the all-zero rows that dominate below threshold cost almost
        // nothing.
        let mut defects = std::mem::take(&mut scratch.defects_buf);
        for s in 0..syndromes.num_shots() {
            syndromes.fired_into(s, &mut defects);
            out.push(self.decode_into(&defects, scratch).observables);
        }
        scratch.defects_buf = defects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_stabsim::dem::{DemError, DetectorErrorModel};

    /// Chain graph: B - 0 - 1 - 2 - B with uniform probability, observable on
    /// the left boundary edge (like a distance-4 repetition code slice).
    fn chain_graph(p: f64) -> DecodingGraph {
        let dem = DetectorErrorModel {
            num_detectors: 3,
            num_observables: 1,
            errors: vec![
                DemError {
                    probability: p,
                    detectors: vec![0],
                    observables: 1,
                },
                DemError {
                    probability: p,
                    detectors: vec![0, 1],
                    observables: 0,
                },
                DemError {
                    probability: p,
                    detectors: vec![1, 2],
                    observables: 0,
                },
                DemError {
                    probability: p,
                    detectors: vec![2],
                    observables: 0,
                },
            ],
        };
        DecodingGraph::from_dem(&dem).unwrap()
    }

    #[test]
    fn empty_syndrome_is_trivial() {
        let d = UnionFindDecoder::new(chain_graph(0.01));
        let out = d.decode(&[]);
        assert!(out.converged);
        assert_eq!(out.observables, 0);
    }

    #[test]
    fn single_defect_matches_nearest_boundary() {
        let d = UnionFindDecoder::new(chain_graph(0.01));
        // Defect at node 0: nearest boundary is the left (observable) edge.
        assert_eq!(d.predict(&[0]), 1);
        // Defect at node 2: right boundary, no observable flip.
        assert_eq!(d.predict(&[2]), 0);
    }

    #[test]
    fn adjacent_pair_matches_internally() {
        let d = UnionFindDecoder::new(chain_graph(0.01));
        let out = d.decode(&[0, 1]);
        assert!(out.converged);
        assert_eq!(out.observables, 0, "pair should match via the {{0,1}} edge");
    }

    #[test]
    fn all_defects_resolve() {
        let d = UnionFindDecoder::new(chain_graph(0.01));
        let out = d.decode(&[0, 1, 2]);
        assert!(out.converged);
        // 0-1 pair internal, 2 to right boundary: no observable flip expected
        // (or 1-2 pair and 0 to left: one flip). Either is a valid matching of
        // equal weight; just require convergence and a consistent parity.
        assert!(out.observables <= 1);
    }

    #[test]
    fn weighted_growth_prefers_likely_edges() {
        // Node 0 has a low-probability boundary edge (heavy) and a
        // high-probability edge to node 1 which has a high-probability
        // boundary edge. With defect {0}, the correction should route through
        // node 1's side... but that flips detector 1, so matching must still
        // terminate at a boundary. The cheap path 0-1-B beats the heavy 0-B
        // when peeled; both resolve, and the observable rides on 0-B only.
        let dem = DetectorErrorModel {
            num_detectors: 2,
            num_observables: 1,
            errors: vec![
                DemError {
                    probability: 1e-6,
                    detectors: vec![0],
                    observables: 1,
                },
                DemError {
                    probability: 0.1,
                    detectors: vec![0, 1],
                    observables: 0,
                },
                DemError {
                    probability: 0.1,
                    detectors: vec![1],
                    observables: 0,
                },
            ],
        };
        let g = DecodingGraph::from_dem(&dem).unwrap();
        let d = UnionFindDecoder::new(g);
        let out = d.decode(&[0]);
        assert!(out.converged);
        assert_eq!(out.observables, 0, "should avoid the unlikely direct edge");
    }

    #[test]
    fn isolated_defect_reports_nonconvergence() {
        let dem = DetectorErrorModel {
            num_detectors: 2,
            num_observables: 0,
            errors: vec![DemError {
                probability: 0.1,
                detectors: vec![0],
                observables: 0,
            }],
        };
        let g = DecodingGraph::from_dem(&dem).unwrap();
        let d = UnionFindDecoder::new(g);
        let out = d.decode(&[1]);
        assert!(!out.converged);
    }

    #[test]
    fn correction_edges_match_outcome_and_syndrome() {
        // The recorded correction must (a) XOR to the predicted observable
        // mask and (b) have the decoded syndrome as its boundary (every
        // defect toggled odd, every other detector even) — the invariant
        // the windowed decoder's commit-boundary split relies on.
        let d = UnionFindDecoder::new(chain_graph(0.01));
        let mut scratch = UfScratch::default();
        for syndrome in [vec![0u32], vec![0, 1], vec![0, 1, 2], vec![2], vec![]] {
            let out = d.decode_into(&syndrome, &mut scratch);
            assert!(out.converged);
            let mut obs = 0u64;
            let mut parity = vec![false; d.graph().num_detectors()];
            for &ei in scratch.correction() {
                let e = &d.graph().edges()[ei as usize];
                obs ^= e.observables;
                parity[e.u as usize] = !parity[e.u as usize];
                if let Some(v) = e.v {
                    parity[v as usize] = !parity[v as usize];
                }
            }
            assert_eq!(obs, out.observables, "syndrome {syndrome:?}");
            for (det, &p) in parity.iter().enumerate() {
                assert_eq!(
                    p,
                    syndrome.contains(&(det as u32)),
                    "syndrome {syndrome:?}, detector {det}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stable() {
        // Decoding different syndromes through one scratch gives the same
        // answers as fresh scratches every time.
        let d = UnionFindDecoder::new(chain_graph(0.01));
        let syndromes: Vec<Vec<u32>> = vec![
            vec![0],
            vec![],
            vec![0, 1],
            vec![2],
            vec![0, 1, 2],
            vec![1],
            vec![0, 2],
        ];
        let mut scratch = UfScratch::default();
        for s in &syndromes {
            let reused = d.decode_into(s, &mut scratch);
            let fresh = d.decode(s);
            assert_eq!(reused, fresh, "syndrome {s:?}");
        }
    }

    #[test]
    fn long_chain_far_defects() {
        // Two far-apart defects on a long chain must both resolve (via
        // boundaries or an internal path) with frontier-driven growth.
        let n = 40usize;
        let mut errors = vec![DemError {
            probability: 0.01,
            detectors: vec![0],
            observables: 1,
        }];
        for i in 0..n - 1 {
            errors.push(DemError {
                probability: 0.01,
                detectors: vec![i as u32, i as u32 + 1],
                observables: 0,
            });
        }
        errors.push(DemError {
            probability: 0.01,
            detectors: vec![n as u32 - 1],
            observables: 0,
        });
        let g = DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: n,
            num_observables: 1,
            errors,
        })
        .unwrap();
        let d = UnionFindDecoder::new(g);
        let out = d.decode(&[1, 38]);
        assert!(out.converged);
        assert_eq!(out.observables, 1, "each defect exits its nearest boundary");
    }

    /// A 4×4 detector grid with horizontal and vertical edges, boundary
    /// edges on the top and bottom rims, varied probabilities (hence varied
    /// quantized weights), and scattered observables.
    fn grid_graph() -> DecodingGraph {
        let idx = |r: usize, c: usize| (r * 4 + c) as u32;
        let mut errors = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                let p = 0.01 + 0.02 * ((r * 4 + c) % 5) as f64;
                if c + 1 < 4 {
                    errors.push(DemError {
                        probability: p,
                        detectors: vec![idx(r, c), idx(r, c + 1)],
                        observables: ((r + c) % 4) as u64,
                    });
                }
                if r + 1 < 4 {
                    errors.push(DemError {
                        probability: 0.3 - p,
                        detectors: vec![idx(r, c), idx(r + 1, c)],
                        observables: ((r * c) % 3) as u64,
                    });
                }
                if r == 0 || r == 3 {
                    errors.push(DemError {
                        probability: p,
                        detectors: vec![idx(r, c)],
                        observables: (c % 2) as u64,
                    });
                }
            }
        }
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: 16,
            num_observables: 2,
            errors,
        })
        .unwrap()
    }

    #[test]
    fn mixed_weight_growth_matches_unjumped_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Graphs with strongly mixed weights exercise the round-jump path
        // (heavy edges take many quanta). The outcome and correction must
        // match a decode on the same graph compiled with the same weights
        // but driven only through fresh scratches (identical decisions, so
        // any divergence would show up as a different correction).
        let dem = DetectorErrorModel {
            num_detectors: 4,
            num_observables: 2,
            errors: vec![
                DemError {
                    probability: 1e-9,
                    detectors: vec![0],
                    observables: 1,
                },
                DemError {
                    probability: 0.2,
                    detectors: vec![0, 1],
                    observables: 0,
                },
                DemError {
                    probability: 1e-4,
                    detectors: vec![1, 2],
                    observables: 2,
                },
                DemError {
                    probability: 0.3,
                    detectors: vec![2, 3],
                    observables: 0,
                },
                DemError {
                    probability: 0.05,
                    detectors: vec![3],
                    observables: 0,
                },
            ],
        };
        let d = UnionFindDecoder::new(DecodingGraph::from_dem(&dem).unwrap());
        let fixed = vec![
            vec![0u32],
            vec![3],
            vec![0, 3],
            vec![1, 2],
            vec![0, 1, 2, 3],
            vec![2],
        ];
        // The weighted grid, on 400 seeded random syndromes.
        let grid = UnionFindDecoder::new(grid_graph());
        let mut rng = StdRng::seed_from_u64(41);
        let random: Vec<Vec<u32>> = (0..400)
            .map(|_| (0..16).filter(|_| rng.random_bool(0.3)).collect())
            .collect();
        for (decoder, syndromes) in [(&d, fixed), (&grid, random)] {
            let mut scratch = UfScratch::default();
            for syndrome in syndromes {
                let reused = decoder.decode_into(&syndrome, &mut scratch);
                let mut fresh_scratch = UfScratch::default();
                let fresh = decoder.decode_into(&syndrome, &mut fresh_scratch);
                assert_eq!(reused, fresh, "syndrome {syndrome:?}");
                assert_eq!(
                    scratch.correction(),
                    fresh_scratch.correction(),
                    "syndrome {syndrome:?}"
                );
                assert!(reused.converged, "syndrome {syndrome:?}");
            }
        }
    }

    #[test]
    fn new_falls_back_to_uniform_weights_on_degenerate_graphs() {
        // All p = 0.5: every weight ~0, so quantization would divide by ~0.
        // `new` must fall back to uniform weights and still decode.
        let dem = DetectorErrorModel {
            num_detectors: 2,
            num_observables: 1,
            errors: vec![
                DemError {
                    probability: 0.5,
                    detectors: vec![0],
                    observables: 1,
                },
                DemError {
                    probability: 0.5,
                    detectors: vec![0, 1],
                    observables: 0,
                },
                DemError {
                    probability: 0.5,
                    detectors: vec![1],
                    observables: 0,
                },
            ],
        };
        let g = DecodingGraph::from_dem(&dem).unwrap();
        let d = UnionFindDecoder::new(g.clone());
        assert!(d.compiled().is_uniform());
        let out = d.decode(&[0]);
        assert!(out.converged);
        // And the typed-error constructor surfaces the degeneracy instead.
        assert_eq!(
            UnionFindDecoder::try_new(g).unwrap_err(),
            GraphError::DegenerateWeights { edge: None }
        );
    }

    #[test]
    fn try_new_rejects_non_finite_weights() {
        let dem = DetectorErrorModel {
            num_detectors: 1,
            num_observables: 0,
            errors: vec![
                DemError {
                    probability: 0.01,
                    detectors: vec![0],
                    observables: 0,
                },
                DemError {
                    probability: f64::NAN,
                    detectors: vec![0],
                    observables: 0,
                },
            ],
        };
        let g = DecodingGraph::from_dem(&dem).unwrap();
        assert_eq!(
            UnionFindDecoder::try_new(g.clone()).unwrap_err(),
            GraphError::DegenerateWeights { edge: Some(1) }
        );
        // The lenient constructor still produces a working decoder.
        let d = UnionFindDecoder::new(g);
        assert!(d.compiled().is_uniform());
        assert!(d.decode(&[0]).converged);
    }

    #[test]
    fn healthy_graphs_keep_weighted_growth_in_new() {
        let d = UnionFindDecoder::new(chain_graph(0.01));
        assert!(!d.compiled().is_uniform());
    }

    #[test]
    fn batch_predict_matches_per_shot() {
        use raa_stabsim::SyndromeBatch;
        let d = UnionFindDecoder::new(chain_graph(0.01));
        let syndromes: Vec<Vec<u32>> = vec![
            vec![0],
            vec![],
            vec![0, 1],
            vec![2],
            vec![0, 1, 2],
            vec![1],
            vec![0, 2],
            vec![],
        ];
        let mut batch = SyndromeBatch::default();
        batch.reset(syndromes.len(), d.graph().num_detectors());
        for (s, syn) in syndromes.iter().enumerate() {
            for &det in syn {
                batch.set_detector(s, det as usize);
            }
        }
        let mut scratch = UfScratch::default();
        let mut out = Vec::new();
        d.predict_batch_into(&batch, &mut out, &mut scratch);
        assert_eq!(out.len(), syndromes.len());
        let mut per_shot_scratch = UfScratch::default();
        for (s, syn) in syndromes.iter().enumerate() {
            assert_eq!(
                out[s],
                d.predict_into(syn, &mut per_shot_scratch),
                "shot {s}"
            );
        }
    }
}
