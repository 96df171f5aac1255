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
//! graph. A round is two passes over the active clusters' frontiers: pass 1
//! prunes dead (solid or internal) edges and counts each live edge's visits,
//! pass 2 grows every live edge one quantum per visit and collects the edges
//! that reach their weight, which then solidify and merge in visit order.
//! Five mechanisms make the batched Monte-Carlo hot path cheap:
//!
//! - **Compiled graph.** The decoder walks a [`CompiledGraph`] — CSR
//!   adjacency in one flat arena with pre-quantized integer weights — built
//!   once at construction and shared read-only by every worker, instead of
//!   chasing per-detector `Vec`s on each decode.
//! - **Packed, epoch-tagged scratch.** [`UfScratch`] keeps one slot per node
//!   and one per edge, each stamped with the decode that last wrote it and
//!   reinitialized on first touch, so resetting between shots costs
//!   O(touched) rather than O(nodes + edges) and touching a node or an edge
//!   writes one slot.
//! - **Pruning only merged clusters.** Pass 1 prunes only the clusters
//!   seeded or merged since it last pruned them. A cluster that took part
//!   in no merge kept its nodes, so every edge on its pruned frontier still
//!   leaves the cluster and is not solid (solidifying it would have merged
//!   the cluster); pass 1 only counts its visits.
//! - **Pruning by copy parity.** A prune looks up no root. An edge on an
//!   active cluster's frontier is dead exactly when both of its copies are
//!   on that list, so the prune toggles a parity bit per listed copy, then
//!   drops the edges left even and counts the odd ones' visits in the same
//!   sweep. Each edge keeps the quanta it still needs in its scratch slot,
//!   so neither pass reads the compiled weights, and a merge resolves each
//!   endpoint's root once.
//! - **Folded round jump.** Weighted growth jumps over rounds in which no
//!   edge can reach its weight, which matters for heavy edges quantized to
//!   many growth quanta. Pass 1 keeps the running minimum of
//!   ⌈remaining / visits⌉ over the live edges, the rounds until the first
//!   one reaches its weight; pass 2 adds the skipped rounds' growth on its
//!   first visit of each edge. Nothing solidifies in the skipped rounds, so
//!   clusters and frontiers are the same across them and the literal round
//!   that follows sees the state the unit rounds would have produced.
//!
//! The parity rule is exact because of how copies enter and leave lists:
//!
//! - Every node of a cluster has been seeded: defects at the start, and
//!   both endpoints of a solidifying edge before their union. Seeding
//!   appends each incident edge once to the node's cluster list, so an
//!   edge has one copy per seeded endpoint (a self-loop has two).
//! - Lists only merge, with their clusters. A prune drops a dead edge only
//!   from the list it scans, and both copies of a dead edge are on it, so
//!   the two copies always leave together.
//! - So on an active cluster's list an edge between two detectors has two
//!   copies exactly when both endpoints are in the cluster, and a solid
//!   edge is internal. A boundary edge has one copy and is never dead
//!   there, because an active cluster never holds the boundary.
//!
//! All of these are exact: the decision stream (solidified set and order,
//! merge order, frontier and peel order, and the correction) is
//! bit-identical to the literal one-quantum-per-round formulation, which the
//! tests keep as an independent reference. Debug builds also check every
//! parity verdict against the endpoints' roots.
//!
//! Every syndrome takes the same path — seed, grow, peel — and leaves one
//! record in its scratch besides the outcome: the correction edges
//! ([`UfScratch::correction`]), which the windowed decoder splits at its
//! commit boundary.

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

// `NodeSlot::flags` bits. Parity, boundary and unpruned are read at roots.
/// Root: the cluster holds an odd number of defects.
const PARITY: u8 = 1;
/// Root: the cluster contains the boundary node.
const BOUNDARY: u8 = 1 << 1;
/// The node's incident edges have joined a cluster frontier.
const SEEDED: u8 = 1 << 2;
/// Root: the cluster was seeded or merged since pass 1 last pruned its
/// frontier, so the frontier may hold solid or internal edges.
const UNPRUNED: u8 = 1 << 3;
/// Peeling: the node holds an unresolved defect.
const DEFECT: u8 = 1 << 4;
/// Peeling: the BFS has reached the node.
const VISITED: u8 = 1 << 5;

/// Per-node working state, reinitialized on the node's first touch in a
/// decode.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSlot {
    /// Decode generation that last initialized this slot.
    epoch: u32,
    /// Union–find parent; a root is its own parent.
    parent: u32,
    /// Head of the node's solid-edge list in `adj_next`/`adj_edge`.
    adj_head: u32,
    rank: u8,
    /// `PARITY`, `BOUNDARY`, `SEEDED`, `UNPRUNED`, `DEFECT`, `VISITED`.
    flags: u8,
}

/// Per-edge working state, reinitialized on the edge's first touch in a
/// decode (the first prune of a list that holds it).
#[derive(Debug, Clone, Copy, Default)]
struct EdgeSlot {
    /// Decode generation that last initialized this slot.
    epoch: u32,
    /// Growth quanta the edge still needs to reach its weight; set from the
    /// weight on first touch, 0 once reached.
    remaining: u32,
    /// This round's pass-1 visits that pass 2 has not yet applied.
    pending: u8,
    /// Parity of the edge's copies on the list being pruned; clear outside
    /// [`UfScratch::prune_and_count`].
    odd: bool,
}

impl EdgeSlot {
    /// Counts one pass-1 visit of a live edge and folds ⌈remaining /
    /// pending⌉, the rounds until the edge reaches its weight, into the
    /// running minimum `delta` (a shift, since `pending` ≤ 2).
    #[inline]
    fn count_visit(&mut self, delta: &mut u32) {
        self.pending += 1;
        debug_assert!(self.pending <= 2 && self.remaining > 0);
        let rounds = (self.remaining + u32::from(self.pending) - 1) >> (self.pending - 1);
        *delta = (*delta).min(rounds);
    }
}

/// Reusable working state for [`UnionFindDecoder`].
///
/// Construct with `Default::default()`; the first decode sizes every buffer
/// to the decoder's graph and later decodes reuse the capacity. One scratch
/// serves one decoder at a time (sizes adapt automatically if reused across
/// decoders of different shapes).
///
/// Per-node state (union–find forest, cluster flags, peeling marks) is
/// packed into one `NodeSlot` per node and per-edge state (quanta still
/// needed, pending visits, copy parity) into one `EdgeSlot` per edge. Each
/// slot carries the
/// decode generation that last wrote it and is reinitialized on first
/// touch, which for a node also clears its frontier list, so the
/// inter-shot reset is O(1) plus the handful of explicit list clears: the
/// batched Monte-Carlo path never pays an O(graph) wipe for a sparse
/// syndrome, and touching a node or an edge writes a single slot.
///
/// Three invariants tie the slots to the growth loop (see the
/// [module docs](self)):
///
/// - A cluster root without the unpruned flag has a frontier of live edges
///   only: each was touched this decode, is not solid, and leaves the
///   cluster. Only seeding and merging break this, and both set the flag.
/// - A node slot is read only after a `find` touched it this decode:
///   seeding and union get nodes `find` just resolved, and peeling reads
///   only defects and endpoints of solid edges.
/// - An edge's `pending` count is nonzero only between a round's two
///   passes: its pass-1 visits, at most one per endpoint and so at most 2,
///   which pass 2 applies together with the folded round jump.
#[derive(Debug, Clone, Default)]
pub struct UfScratch {
    /// Current decode generation; slots stamped with another value are
    /// stale and reinitialized on first touch.
    epoch: u32,
    /// Detector nodes, then the virtual boundary node.
    nodes: Vec<NodeSlot>,
    edges: Vec<EdgeSlot>,
    /// Root-indexed: frontier edge list of the cluster.
    frontier: Vec<Vec<u32>>,
    /// Solidified edge indices, in solidification order (drives peeling).
    solid_edges: Vec<u32>,
    /// Roots of clusters that may still be active.
    active: Vec<u32>,
    /// Scratch for the next round's active list.
    next_active: Vec<u32>,
    /// Edges that reached their weight this round.
    to_merge: Vec<u32>,
    /// Peeling: BFS visit order of (node, incoming edge).
    order: Vec<(u32, u32)>,
    queue: VecDeque<u32>,
    /// Linked-list adjacency over solid edges, headed by `NodeSlot::adj_head`.
    adj_next: Vec<u32>,
    adj_edge: Vec<u32>,
    /// Edge indices of the last decode's correction, in peel order.
    correction: Vec<u32>,
    /// Defect-extraction buffer for the batched decode path.
    defects_buf: Vec<u32>,
}

impl UfScratch {
    /// Opens a new decode epoch for a graph with `num_nodes` nodes
    /// (detectors + boundary) and `num_edges` edges. Stale slots are
    /// reinitialized lazily by the `touch_*` methods; only the compact lists
    /// are cleared eagerly.
    fn begin(&mut self, num_nodes: usize, num_edges: usize) {
        if self.epoch == u32::MAX {
            // Epoch counter wrap: restamp everything as stale once.
            self.nodes.iter_mut().for_each(|n| n.epoch = 0);
            self.edges.iter_mut().for_each(|e| e.epoch = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.nodes.len() < num_nodes {
            self.nodes.resize(num_nodes, NodeSlot::default());
            self.frontier.resize_with(num_nodes, Vec::new);
        }
        if self.edges.len() < num_edges {
            self.edges.resize(num_edges, EdgeSlot::default());
        }
        self.solid_edges.clear();
        self.active.clear();
        self.next_active.clear();
        self.to_merge.clear();
        self.order.clear();
        self.queue.clear();
        self.adj_next.clear();
        self.adj_edge.clear();
        self.correction.clear();
    }

    /// Reinitializes node `x`'s slot and frontier list if they are stale.
    #[inline]
    fn touch_node(&mut self, x: u32) {
        let slot = &mut self.nodes[x as usize];
        if slot.epoch != self.epoch {
            *slot = NodeSlot {
                epoch: self.epoch,
                parent: x,
                adj_head: NONE,
                rank: 0,
                flags: 0,
            };
            self.frontier[x as usize].clear();
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

    fn find(&mut self, x: u32) -> u32 {
        // Nodes on a parent chain were all touched when they were unioned,
        // so only the entry point needs the staleness check.
        self.touch_node(x);
        let mut x = x;
        while self.nodes[x as usize].parent != x {
            let gp = self.nodes[self.nodes[x as usize].parent as usize].parent;
            self.nodes[x as usize].parent = gp;
            x = gp;
        }
        x
    }

    /// Adds `node`'s incident edges to the frontier of its cluster `root`
    /// the first time the node joins a cluster.
    fn seed(&mut self, g: &CompiledGraph, node: u32, root: u32) {
        if self.nodes[node as usize].flags & SEEDED == 0 {
            self.nodes[node as usize].flags |= SEEDED;
            self.nodes[root as usize].flags |= UNPRUNED;
            self.frontier[root as usize].extend_from_slice(g.incident(node));
        }
    }

    /// Prunes the frontier of cluster `root` and counts its live edges'
    /// pass-1 visits into `delta`. Pass A touches each listed edge and
    /// toggles its copy parity; pass B drops the edges left even (both
    /// copies listed: solid or internal, see the module docs) with
    /// `swap_remove`, which keeps the live edges in encounter order, and
    /// clears and counts the odd ones.
    fn prune_and_count(&mut self, g: &CompiledGraph, root: u32, delta: &mut u32) {
        let ri = root as usize;
        self.nodes[ri].flags &= !UNPRUNED;
        let epoch = self.epoch;
        for &ei in &self.frontier[ri] {
            let e = &mut self.edges[ei as usize];
            if e.epoch != epoch {
                *e = EdgeSlot {
                    epoch,
                    remaining: g.weight(ei),
                    ..EdgeSlot::default()
                };
            }
            e.odd = !e.odd;
        }
        #[cfg(debug_assertions)]
        for &ei in &self.frontier[ri] {
            let [u, v] = g.endpoints(ei).map(|x| self.root_of(x) == root);
            debug_assert!(u || v, "frontier edge {ei} has no endpoint inside");
            debug_assert_eq!(self.edges[ei as usize].odd, !(u && v), "edge {ei}");
        }
        let frontier = &mut self.frontier[ri];
        let mut i = 0;
        while i < frontier.len() {
            let e = &mut self.edges[frontier[i] as usize];
            if e.odd {
                e.odd = false;
                e.count_visit(delta);
                i += 1;
            } else {
                frontier.swap_remove(i);
            }
        }
    }

    /// `x`'s root, read without touching or compressing anything: a node
    /// stale in this decode is its own singleton cluster.
    #[cfg(debug_assertions)]
    fn root_of(&self, mut x: u32) -> u32 {
        if self.nodes[x as usize].epoch != self.epoch {
            return x;
        }
        while self.nodes[x as usize].parent != x {
            x = self.nodes[x as usize].parent;
        }
        x
    }

    /// Unions the distinct clusters with roots `ra` and `rb`, merging
    /// parity, boundary flags and frontier lists (small list drains into
    /// large) and marking the merged frontier unpruned.
    fn union(&mut self, ra: u32, rb: u32) {
        debug_assert!(ra != rb && self.nodes[ra as usize].parent == ra);
        debug_assert!(self.nodes[rb as usize].parent == rb);
        let (big, small) = if self.nodes[ra as usize].rank >= self.nodes[rb as usize].rank {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let (bi, si) = (big as usize, small as usize);
        self.nodes[si].parent = big;
        if self.nodes[bi].rank == self.nodes[si].rank {
            self.nodes[bi].rank += 1;
        }
        let fs = self.nodes[si].flags;
        self.nodes[bi].flags ^= fs & PARITY;
        self.nodes[bi].flags |= (fs & BOUNDARY) | UNPRUNED;
        // Merge frontier lists small-into-big without allocating: swap the
        // shorter one out, drain it into the longer.
        if self.frontier[bi].len() < self.frontier[si].len() {
            self.frontier.swap(bi, si);
        }
        let mut donor = std::mem::take(&mut self.frontier[si]);
        self.frontier[bi].append(&mut donor);
        self.frontier[si] = donor; // restore the (now empty) allocation
    }

    fn push_adj(&mut self, node: u32, edge: u32) {
        let slot = self.adj_next.len() as u32;
        self.adj_next.push(self.nodes[node as usize].adj_head);
        self.adj_edge.push(edge);
        self.nodes[node as usize].adj_head = slot;
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
        Self { graph, compiled }
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
        Ok(Self { graph, compiled })
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
    /// ([`UfScratch::correction`]).
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
        scratch.begin(nd + 1, g.num_edges());
        scratch.touch_node(boundary_node);
        // The boundary node has no incident edges to seed.
        scratch.nodes[nd].flags = BOUNDARY | SEEDED;

        // Seed odd-parity singleton clusters at the defects. Each defect's
        // frontier starts as its incident edges.
        for &d in defects {
            let r = scratch.find(d);
            scratch.nodes[r as usize].flags ^= PARITY;
            scratch.seed(g, d, r);
        }
        for &d in defects {
            let r = scratch.find(d);
            if scratch.nodes[r as usize].flags & PARITY != 0 {
                scratch.active.push(r);
            }
        }
        scratch.active.sort_unstable();
        scratch.active.dedup();

        // Growth: per round, every edge on an odd non-boundary cluster's
        // frontier grows by one quantum per active endpoint (all growth is
        // applied before any merge, matching simultaneous dense growth);
        // edges reaching their weight solidify and merge their endpoints.
        // Pass 1 prunes the frontiers of clusters seeded or merged since
        // their last prune, counts each live edge's visits (`pending`) and
        // keeps the running minimum `delta` of ⌈remaining / pending⌉, the
        // rounds until the first edge reaches its weight. Pass 2 adds the
        // `delta − 1` skipped rounds' growth on its first visit of an edge,
        // then grows one quantum per visit. The module docs explain why the
        // shortcuts are exact.
        loop {
            let mut delta = u32::MAX;
            for ai in 0..scratch.active.len() {
                let root = scratch.active[ai];
                if scratch.nodes[root as usize].flags & UNPRUNED != 0 {
                    scratch.prune_and_count(g, root, &mut delta);
                } else {
                    for &ei in &scratch.frontier[root as usize] {
                        scratch.edges[ei as usize].count_visit(&mut delta);
                    }
                }
            }
            if delta == u32::MAX {
                break; // nothing grew: all clusters even or on the boundary
            }
            // Pass 2, in pass-1 visit order: collect edges that reach their
            // weight (an edge shared by two active clusters may be pushed
            // twice; the merge loop below skips the duplicate, whose
            // endpoints the first copy merged).
            scratch.to_merge.clear();
            for &root in &scratch.active {
                for &ei in &scratch.frontier[root as usize] {
                    let e = &mut scratch.edges[ei as usize];
                    let growth = (delta - 1) * u32::from(e.pending) + 1;
                    e.remaining = e.remaining.saturating_sub(growth);
                    e.pending = 0;
                    if e.remaining == 0 {
                        scratch.to_merge.push(ei);
                    }
                }
            }
            for ti in 0..scratch.to_merge.len() {
                let ei = scratch.to_merge[ti];
                let [u, v] = g.endpoints(ei);
                let (ru, rv) = (scratch.find(u), scratch.find(v));
                // Skip the duplicate of an edge both endpoints pushed, and
                // an edge made internal by an earlier merge this round.
                if ru == rv {
                    continue;
                }
                scratch.solid_edges.push(ei);
                // A node joining its first cluster contributes its incident
                // edges to the merged frontier.
                scratch.seed(g, u, ru);
                scratch.seed(g, v, rv);
                scratch.union(ru, rv);
            }
            // Refresh the active list: re-resolve every candidate root and
            // keep odd, non-boundary clusters that can still grow.
            let mut candidates = std::mem::take(&mut scratch.active);
            for &cand in &candidates {
                let r = scratch.find(cand);
                if scratch.nodes[r as usize].flags & (PARITY | BOUNDARY) == PARITY
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
            scratch.nodes[d as usize].flags |= DEFECT;
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
            if scratch.nodes[root as usize].flags & VISITED != 0 {
                continue;
            }
            // BFS recording (node, incoming edge) in visit order.
            let order_start = scratch.order.len();
            scratch.nodes[root as usize].flags |= VISITED;
            scratch.queue.push_back(root);
            scratch.order.push((root, NONE));
            while let Some(v) = scratch.queue.pop_front() {
                let mut slot = scratch.nodes[v as usize].adj_head;
                while slot != NONE {
                    let ei = scratch.adj_edge[slot as usize];
                    let [eu, ev] = g.endpoints(ei);
                    let other = if eu == v { ev } else { eu };
                    if scratch.nodes[other as usize].flags & VISITED == 0 {
                        scratch.nodes[other as usize].flags |= VISITED;
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
                let is_defect = scratch.nodes[v as usize].flags & DEFECT != 0;
                if ei == NONE {
                    // Root: leftover defect must be absorbed by the boundary.
                    if is_defect && v != boundary_node {
                        converged = false;
                    }
                    continue;
                }
                if is_defect {
                    scratch.nodes[v as usize].flags &= !DEFECT;
                    let [eu, ev] = g.endpoints(ei);
                    let p = if eu == v { ev } else { eu };
                    if p != boundary_node {
                        scratch.nodes[p as usize].flags ^= DEFECT;
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
        if defects
            .iter()
            .any(|&d| scratch.nodes[d as usize].flags & DEFECT != 0)
        {
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

    /// A four-detector chain with strongly mixed weights (1 to 32 quanta),
    /// so heavy edges take many growth rounds.
    fn mixed_weight_graph() -> DecodingGraph {
        let edge = |p: f64, detectors: Vec<u32>, observables: u64| DemError {
            probability: p,
            detectors,
            observables,
        };
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: 4,
            num_observables: 2,
            errors: vec![
                edge(1e-9, vec![0], 1),
                edge(0.2, vec![0, 1], 0),
                edge(1e-4, vec![1, 2], 2),
                edge(0.3, vec![2, 3], 0),
                edge(0.05, vec![3], 0),
            ],
        })
        .unwrap()
    }

    /// A `d`-bit repetition-code memory over `rounds` rounds, with data
    /// flips at `p` and measurement flips at `p_meas` so that space-like
    /// and time-like edges carry different weights.
    fn repetition_graph(d: usize, rounds: usize, p: f64, p_meas: f64) -> DecodingGraph {
        use raa_stabsim::{Circuit, MeasRecord};
        let data: Vec<u32> = (0..d as u32).map(|i| 2 * i).collect();
        let anc: Vec<u32> = (0..d as u32 - 1).map(|i| 2 * i + 1).collect();
        let na = anc.len();
        let mut c = Circuit::new();
        c.r(&(0..2 * d as u32 - 1).collect::<Vec<_>>());
        for round in 0..rounds {
            c.x_error(&data, p);
            let pairs: Vec<(u32, u32)> = (0..na)
                .flat_map(|i| [(data[i], anc[i]), (data[i + 1], anc[i])])
                .collect();
            c.cx(&pairs);
            c.x_error(&anc, p_meas);
            c.mr(&anc);
            for i in 0..na {
                if round == 0 {
                    c.detector(&[MeasRecord::back(na - i)]);
                } else {
                    c.detector(&[MeasRecord::back(na - i), MeasRecord::back(2 * na - i)]);
                }
            }
        }
        c.m(&data);
        for i in 0..na {
            c.detector(&[
                MeasRecord::back(d - i),
                MeasRecord::back(d - i - 1),
                MeasRecord::back(d + na - i),
            ]);
        }
        c.observable_include(0, &[MeasRecord::back(d)]);
        DecodingGraph::from_dem(&DetectorErrorModel::from_circuit(&c)).unwrap()
    }

    /// A seeded random graphlike DEM: bulk and boundary edges (parallel
    /// edges allowed) with log-uniform probabilities from 10⁻⁹ to `p_max`,
    /// so that `p_max` = 0.45 spreads the quantized weights over 1 to 32
    /// quanta, while `p_max` = 0.5 makes every probability 1/2 and the
    /// decoder falls back to uniform weights. Some detectors may be left
    /// without edges, which exercises the non-converging path.
    fn random_graph(seed: u64, p_max: f64) -> DecodingGraph {
        use rand::rngs::StdRng;
        use rand::{Rng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let nd = rng.random_range(2..40usize);
        let num_edges = rng.random_range(nd..3 * nd);
        let errors = (0..num_edges)
            .map(|_| {
                let u = rng.random_range(0..nd as u32);
                let v = rng.random_range(0..nd as u32);
                let detectors = if u == v || rng.random_bool(0.2) {
                    vec![u]
                } else {
                    vec![u, v]
                };
                let p = if p_max < 0.5 {
                    10f64.powf(rng.random_range(-9.0..p_max.log10()))
                } else {
                    p_max
                };
                DemError {
                    probability: p,
                    detectors,
                    observables: rng.random_range(0..4u64),
                }
            })
            .collect();
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: nd,
            num_observables: 2,
            errors,
        })
        .unwrap()
    }

    /// The literal weighted union–find, written for clarity: one growth
    /// quantum per round with no round jump, every active frontier pruned
    /// every round, fresh dense state per call, and the decoder's
    /// `swap_remove`, small-into-big merge and peel order.
    struct Literal<'g> {
        g: &'g CompiledGraph,
        parent: Vec<u32>,
        rank: Vec<u8>,
        parity: Vec<bool>,
        boundary: Vec<bool>,
        seeded: Vec<bool>,
        frontier: Vec<Vec<u32>>,
    }

    impl Literal<'_> {
        fn find(&self, mut x: u32) -> u32 {
            while self.parent[x as usize] != x {
                x = self.parent[x as usize];
            }
            x
        }

        /// Adds a node's incident edges to its cluster's frontier the first
        /// time the node joins a cluster.
        fn seed(&mut self, node: u32) {
            if !self.seeded[node as usize] {
                self.seeded[node as usize] = true;
                let root = self.find(node) as usize;
                self.frontier[root].extend_from_slice(self.g.incident(node));
            }
        }

        fn union(&mut self, a: u32, b: u32) {
            let (ra, rb) = (self.find(a) as usize, self.find(b) as usize);
            if ra == rb {
                return;
            }
            let (big, small) = if self.rank[ra] >= self.rank[rb] {
                (ra, rb)
            } else {
                (rb, ra)
            };
            self.parent[small] = big as u32;
            if self.rank[big] == self.rank[small] {
                self.rank[big] += 1;
            }
            self.parity[big] = self.parity[ra] ^ self.parity[rb];
            self.boundary[big] = self.boundary[ra] | self.boundary[rb];
            // The longer list keeps its order; the shorter one is appended.
            let mut long = std::mem::take(&mut self.frontier[big]);
            let mut short = std::mem::take(&mut self.frontier[small]);
            if long.len() < short.len() {
                std::mem::swap(&mut long, &mut short);
            }
            long.extend(short);
            self.frontier[big] = long;
        }

        /// Returns the outcome and the correction edges in peel order.
        fn decode(g: &CompiledGraph, defects: &[u32]) -> (UnionFindOutcome, Vec<u32>) {
            let nd = g.num_detectors();
            let boundary_node = nd as u32;
            let mut lit = Literal {
                g,
                parent: (0..=boundary_node).collect(),
                rank: vec![0; nd + 1],
                parity: vec![false; nd + 1],
                boundary: (0..=nd).map(|n| n == nd).collect(),
                seeded: vec![false; nd + 1],
                frontier: vec![Vec::new(); nd + 1],
            };
            let mut growth = vec![0u32; g.num_edges()];
            let mut solid = vec![false; g.num_edges()];
            let mut solid_edges = Vec::new();
            for &d in defects {
                lit.parity[d as usize] = !lit.parity[d as usize];
                lit.seed(d);
            }
            let mut active: Vec<u32> = defects
                .iter()
                .copied()
                .filter(|&d| lit.parity[d as usize])
                .collect();
            active.sort_unstable();
            active.dedup();
            loop {
                let mut visits = Vec::new();
                for &root in &active {
                    let mut i = 0;
                    while i < lit.frontier[root as usize].len() {
                        let ei = lit.frontier[root as usize][i];
                        let [u, v] = g.endpoints(ei);
                        if solid[ei as usize] || (lit.find(u) == root && lit.find(v) == root) {
                            lit.frontier[root as usize].swap_remove(i);
                        } else {
                            visits.push(ei);
                            i += 1;
                        }
                    }
                }
                if visits.is_empty() {
                    break;
                }
                let mut to_merge = Vec::new();
                for &ei in &visits {
                    growth[ei as usize] += 1;
                    if growth[ei as usize] >= g.weight(ei) {
                        to_merge.push(ei);
                    }
                }
                for ei in to_merge {
                    let [u, v] = g.endpoints(ei);
                    if solid[ei as usize] || lit.find(u) == lit.find(v) {
                        continue;
                    }
                    solid[ei as usize] = true;
                    solid_edges.push(ei);
                    for node in [u, v] {
                        if node != boundary_node {
                            lit.seed(node);
                        }
                    }
                    lit.union(u, v);
                }
                active = active.iter().map(|&r| lit.find(r)).collect();
                active.retain(|&r| {
                    let r = r as usize;
                    lit.parity[r] && !lit.boundary[r] && !lit.frontier[r].is_empty()
                });
                active.sort_unstable();
                active.dedup();
                if active.is_empty() {
                    break;
                }
            }

            // Peel a BFS forest of the solid edges (boundary first, then
            // each defect), leaves first. Neighbours are visited in reverse
            // solidification order, as the decoder's linked-list adjacency
            // yields them.
            let mut adj = vec![Vec::new(); nd + 1];
            for &ei in &solid_edges {
                let [u, v] = g.endpoints(ei);
                adj[u as usize].push(ei);
                adj[v as usize].push(ei);
            }
            let mut defect = vec![false; nd + 1];
            for &d in defects {
                defect[d as usize] = true;
            }
            let mut visited = vec![false; nd + 1];
            let mut correction = Vec::new();
            let (mut observables, mut converged) = (0u64, true);
            for root in std::iter::once(boundary_node).chain(defects.iter().copied()) {
                if visited[root as usize] {
                    continue;
                }
                visited[root as usize] = true;
                let mut order = vec![(root, NONE)];
                let mut head = 0;
                while head < order.len() {
                    let node = order[head].0;
                    head += 1;
                    for &ei in adj[node as usize].iter().rev() {
                        let [eu, ev] = g.endpoints(ei);
                        let other = if eu == node { ev } else { eu };
                        if !visited[other as usize] {
                            visited[other as usize] = true;
                            order.push((other, ei));
                        }
                    }
                }
                for &(node, ei) in order.iter().rev() {
                    if ei == NONE {
                        converged &= !defect[node as usize] || node == boundary_node;
                    } else if defect[node as usize] {
                        defect[node as usize] = false;
                        let [eu, ev] = g.endpoints(ei);
                        let p = if eu == node { ev } else { eu };
                        if p != boundary_node {
                            defect[p as usize] = !defect[p as usize];
                        }
                        observables ^= g.observables(ei);
                        correction.push(ei);
                    }
                }
            }
            converged &= defects.iter().all(|&d| !defect[d as usize]);
            let outcome = UnionFindOutcome {
                observables,
                converged,
            };
            (outcome, correction)
        }
    }

    #[test]
    fn growth_matches_literal_unit_round_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngExt, SeedableRng};

        // Every decision of the decoder — outcome, convergence and
        // correction edges in peel order — must equal the literal
        // one-quantum-per-round formulation's, on hand-built, circuit-built
        // and random graphs. One scratch serves every graph, so lazy
        // resizing and epoch reuse across shapes are exercised too.
        let mut graphs = vec![chain_graph(0.01), mixed_weight_graph(), grid_graph()];
        graphs.push(repetition_graph(5, 5, 0.01, 0.002));
        graphs.push(repetition_graph(7, 3, 1e-4, 0.05));
        graphs.extend((0..24).map(|seed| random_graph(seed, 0.45)));
        graphs.push(random_graph(99, 0.5)); // degenerate: uniform fallback

        // Real circuit graphs, decomposed from golden DEMs: they carry
        // hyperedge pieces and parallel edges with conflicting observable
        // masks, which the graphs above lack.
        for text in [
            include_str!("../../../tests/fixtures/d3_rotated_memory.dem"),
            include_str!("../../../tests/fixtures/factory_distill15_d3.dem"),
        ] {
            let dem = raa_stabsim::parse_dem(text).unwrap();
            let graph = DecodingGraph::from_dem_decomposed(&dem).0;
            let mut masks = std::collections::BTreeMap::new();
            let conflicting = graph
                .edges()
                .iter()
                .filter(|e| *masks.entry((e.u, e.v)).or_insert(e.observables) != e.observables)
                .count();
            assert!(conflicting > 0, "the fixture must carry conflicting masks");
            graphs.push(graph);
        }
        let mut rng = StdRng::seed_from_u64(41);
        // The low-weight faults below draw from a second stream, so the
        // density syndromes do not depend on them.
        let mut fault_rng = StdRng::seed_from_u64(43);
        let mut scratch = UfScratch::default();
        let (mut min_w, mut max_w) = (u32::MAX, 0);
        for graph in graphs {
            let decoder = UnionFindDecoder::new(graph);
            let g = decoder.compiled();
            let nd = g.num_detectors() as u32;
            for ei in 0..g.num_edges() as u32 {
                if !g.is_uniform() {
                    min_w = min_w.min(g.weight(ei));
                    max_w = max_w.max(g.weight(ei));
                }
            }
            let mut syndromes: Vec<Vec<u32>> = (0..(1u32 << nd.min(4)))
                .map(|bits| (0..nd.min(4)).filter(|i| bits >> i & 1 == 1).collect())
                .collect();
            for density in [0.05, 0.15, 0.3, 0.6] {
                syndromes.extend(
                    (0..60).map(|_| (0..nd).filter(|_| rng.random_bool(density)).collect()),
                );
            }
            // Low-weight faults, the regime sampled shots decode in: the
            // syndrome of 1 to 4 random edges.
            for faults in 1..=4 {
                syndromes.extend((0..15).map(|_| {
                    let mut fired = vec![false; nd as usize + 1];
                    for _ in 0..faults {
                        let ei = fault_rng.random_range(0..g.num_edges() as u32);
                        for x in g.endpoints(ei) {
                            fired[x as usize] ^= true;
                        }
                    }
                    (0..nd).filter(|&x| fired[x as usize]).collect()
                }));
            }
            for syndrome in syndromes {
                let out = decoder.decode_into(&syndrome, &mut scratch);
                let (want, correction) = Literal::decode(g, &syndrome);
                assert_eq!(out, want, "syndrome {syndrome:?}");
                assert_eq!(
                    scratch.correction(),
                    &correction[..],
                    "syndrome {syndrome:?}"
                );
            }
        }
        assert_eq!((min_w, max_w), (1, 32), "weights must span 1..=32 quanta");
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
