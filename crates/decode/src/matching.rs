//! Exact minimum-weight perfect matching for small syndromes.
//!
//! A decode partitions the defects into independent components (defects
//! `i` and `j` interact only when pairing them beats sending both to the
//! boundary), then pairs each component exactly by a subset dynamic program
//! (DP), or greedily past a cap (default 20 defects). Within the cap it
//! plays the role of the paper's most-likely-error (MLE) reference decoder
//! for calibrating the decoding factor α on small instances.
//!
//! - **One cost source.** Graphs with at most `PRECOMPUTE_MAX_DETECTORS`
//!   detectors get all-pairs shortest-path tables in
//!   [`MatchingDecoder::new`], and a decode on them searches the graph not
//!   at all: the partition, the DP, the greedy fallback and the observable
//!   mask all read the tables. Only a graph without tables (a larger one;
//!   the unit tests also switch them off to compare the two sources) runs
//!   one early-exit Dijkstra per defect per decode, and the same pairing code reads its
//!   rows instead. Both sources hold the same bits: an early-exit Dijkstra
//!   settles a prefix of the full search's deterministic settle order, so
//!   every distance and predecessor chain it settles equals the tabulated
//!   one. Each pair entry is read in the direction that search runs, from
//!   the lower-indexed defect to its partner, because a path summed the
//!   other way adds the same weights in the opposite order and can differ
//!   in the last bit.
//! - **A reachable-subset DP.** The pairing of a g-defect component
//!   removes its lowest defect, alone to the boundary or with one partner,
//!   and recurses on the rest. Only the F(g+2) subsets reachable from the
//!   full set by such moves are ever read (F the Fibonacci numbers: 17,711
//!   of the 2^20 subsets at g = 20), and the DP solves exactly those,
//!   top-down over epoch-stamped tables. Every subset's value is the same
//!   recurrence over the same smaller subsets, with the same f64
//!   additions, the options in the same order (boundary first, then
//!   partners ascending) and the same strict `<`, so each solved subset
//!   gets the cost bits and the choice a fill of all 2^g subsets gives it.
//!
//! All working state (per-defect Dijkstra rows, component costs, the DP
//! tables, the greedy option list) lives in a reusable [`MatchScratch`], so
//! the steady-state decode loop is allocation-free.

use crate::graph::DecodingGraph;
use crate::Decoder;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default maximum number of defects for the exact DP.
pub(crate) const DEFAULT_MAX_EXACT_DEFECTS: usize = 20;

/// Detector-count ceiling below which [`MatchingDecoder::new`] precomputes
/// the all-pairs distance/path tables (the tables are O(detectors²)).
pub(crate) const PRECOMPUTE_MAX_DETECTORS: usize = 512;

/// Reusable working state for [`MatchingDecoder`].
///
/// Construct with `Default::default()`; buffers grow to the largest problem
/// seen and are reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Per-defect Dijkstra rows, filled only on graphs without tables.
    search: SearchScratch,
    /// Component partition: union-find parents over defect indices.
    comp_parent: Vec<u32>,
    /// `(component root, defect index)` pairs, sorted to group components.
    comp_groups: Vec<(u32, u32)>,
    /// Defect indices of the component currently being solved.
    comp_rows: Vec<u32>,
    /// Component-local boundary costs: `bnd[a]` for component defect `a`.
    bnd: Vec<f64>,
    /// Component-local pair costs: `pair[a * g + b]` for `a < b`, read from
    /// defect `a`.
    pair: Vec<f64>,
    /// The reachable-subset DP's tables.
    dp: SubsetDp,
    /// Greedy fallback's sorted option list.
    options: Vec<(f64, Match)>,
    /// Greedy fallback's per-defect used flags.
    used: Vec<bool>,
    /// The selected pairing, in component-local indices.
    pairing: Vec<Match>,
}

/// Dijkstra working state: one row per search.
#[derive(Debug, Clone, Default)]
struct SearchScratch {
    /// Flattened per-row distance tables: `dist[row * num_nodes + node]`.
    dist: Vec<f64>,
    /// Flattened per-row shortest-path-tree predecessor edges.
    pred: Vec<u32>,
    heap: BinaryHeap<HeapItem>,
    /// Per-node flags marking early-exit targets (defects + boundary).
    is_target: Vec<bool>,
}

/// Construction-time all-pairs tables: for every detector, the shortest-path
/// distance and observable mask to the boundary and to every other detector.
///
/// Built by running each detector's Dijkstra to exhaustion once at decoder
/// construction, so an entry holds the bits a decode-time early-exit search
/// from the same detector would have settled (see the module doc).
#[derive(Debug, Clone)]
struct Precomputed {
    /// `bnd_dist[d]`: distance from detector `d` to the boundary.
    bnd_dist: Vec<f64>,
    /// `bnd_mask[d]`: observable mask along that boundary path.
    bnd_mask: Vec<u64>,
    /// `pair_dist[d * nd + e]`: distance from detector `d` to detector `e`.
    pair_dist: Vec<f64>,
    /// `pair_mask[d * nd + e]`: observable mask along that path.
    pair_mask: Vec<u64>,
}

/// Exact small-instance matching decoder with greedy fallback.
///
/// # Example
///
/// ```
/// use raa_stabsim::dem::{DemError, DetectorErrorModel};
/// use raa_decode::{graph::DecodingGraph, matching::MatchingDecoder, Decoder};
///
/// let dem = DetectorErrorModel {
///     num_detectors: 2,
///     num_observables: 1,
///     errors: vec![
///         DemError { probability: 0.01, detectors: vec![0], observables: 1 },
///         DemError { probability: 0.01, detectors: vec![0, 1], observables: 0 },
///         DemError { probability: 0.01, detectors: vec![1], observables: 0 },
///     ],
/// };
/// let graph = DecodingGraph::from_dem(&dem).unwrap();
/// let decoder = MatchingDecoder::new(graph);
/// // Two adjacent defects: matched internally, no logical flip.
/// assert_eq!(decoder.predict(&[0, 1]), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MatchingDecoder {
    graph: DecodingGraph,
    max_exact_defects: usize,
    precomputed: Option<Precomputed>,
}

impl MatchingDecoder {
    /// Builds a decoder owning `graph` with the default exact-DP cap.
    ///
    /// Graphs with at most `PRECOMPUTE_MAX_DETECTORS` detectors get
    /// all-pairs distance/path tables precomputed here, and every decode on
    /// them reads its costs and path masks from the tables with no graph
    /// search at all.
    /// Without tables a decode runs one early-exit Dijkstra per defect,
    /// which settles the same bits the tables hold (see the module doc).
    /// Either way each component is paired by the reachable-subset DP,
    /// which solves F(g+2) of a g-defect component's 2^g subsets, or
    /// greedily past the cap.
    pub fn new(graph: DecodingGraph) -> Self {
        let mut decoder = Self {
            graph,
            max_exact_defects: DEFAULT_MAX_EXACT_DEFECTS,
            precomputed: None,
        };
        let nd = decoder.graph.num_detectors();
        if nd > 0 && nd <= PRECOMPUTE_MAX_DETECTORS {
            decoder.precomputed = Some(decoder.build_precomputed());
        }
        decoder
    }

    /// Enables or disables the all-pairs precompute, regardless of graph
    /// size: the tests' switch between the two cost sources. The tables are
    /// O(detectors²) in memory and cost one full Dijkstra per detector to
    /// build; decoding results are bit-identical either way (the tables
    /// hold exactly what the per-shot searches would settle).
    #[cfg(test)]
    pub(crate) fn with_precompute(mut self, enabled: bool) -> Self {
        self.precomputed = if enabled {
            Some(self.build_precomputed())
        } else {
            None
        };
        self
    }

    /// Runs a full (no early exit) Dijkstra from every detector and records
    /// distance + path-observable mask to the boundary and to every other
    /// detector.
    fn build_precomputed(&self) -> Precomputed {
        let nd = self.graph.num_detectors();
        let n = nd + 1;
        let mut search = SearchScratch::default();
        search.dist.resize(n, f64::INFINITY);
        search.pred.resize(n, u32::MAX);
        // All-false targets with `targets == 0`: the early-exit counter never
        // fires, so the search settles every reachable node.
        search.is_target.resize(n, false);
        let mut pre = Precomputed {
            bnd_dist: vec![f64::INFINITY; nd],
            bnd_mask: vec![0; nd],
            pair_dist: vec![f64::INFINITY; nd * nd],
            pair_mask: vec![0; nd * nd],
        };
        for d in 0..nd {
            self.dijkstra(d as u32, 0, 0, &mut search);
            pre.bnd_dist[d] = search.dist[nd];
            pre.bnd_mask[d] = self.path_observables(&search, 0, nd as u32);
            for e in 0..nd {
                pre.pair_dist[d * nd + e] = search.dist[e];
                pre.pair_mask[d * nd + e] = self.path_observables(&search, 0, e as u32);
            }
        }
        pre
    }

    /// Sets the maximum number of defects decoded exactly (≤ 24), so the
    /// tests can force the greedy fallback.
    ///
    /// # Panics
    ///
    /// Panics if `cap` exceeds 24 (the DP table would be too large).
    #[cfg(test)]
    pub(crate) fn with_max_exact_defects(mut self, cap: usize) -> Self {
        assert!(cap <= 24, "exact matching cap too large: {cap}");
        self.max_exact_defects = cap;
        self
    }

    /// Dijkstra from `source`, writing into row `row` of the search tables.
    /// Terminates once every marked target (`search.is_target`) is settled:
    /// the pairing only needs defect→defect and defect→boundary distances,
    /// and settled targets carry final predecessor chains.
    fn dijkstra(&self, source: u32, row: usize, targets: usize, search: &mut SearchScratch) {
        let nd = self.graph.num_detectors();
        let boundary = nd;
        let n = nd + 1;
        let dist = &mut search.dist[row * n..(row + 1) * n];
        let pred = &mut search.pred[row * n..(row + 1) * n];
        dist.fill(f64::INFINITY);
        pred.fill(u32::MAX);
        search.heap.clear();
        dist[source as usize] = 0.0;
        search.heap.push(HeapItem {
            dist: 0.0,
            node: source,
        });
        let mut remaining = targets;
        while let Some(HeapItem { dist: d, node }) = search.heap.pop() {
            if d > dist[node as usize] {
                continue;
            }
            if search.is_target[node as usize] {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            if node as usize == boundary {
                // Paths through the boundary are not physical error chains.
                continue;
            }
            for &ei in self.graph.incident(node) {
                let e = &self.graph.edges()[ei as usize];
                let other = if e.u == node {
                    e.v.unwrap_or(boundary as u32)
                } else {
                    e.u
                };
                let nd2 = d + e.weight;
                if nd2 < dist[other as usize] {
                    dist[other as usize] = nd2;
                    pred[other as usize] = ei;
                    search.heap.push(HeapItem {
                        dist: nd2,
                        node: other,
                    });
                }
            }
        }
    }

    /// Observable mask along search row `row`'s shortest-path tree from
    /// `from` back to the tree's source.
    fn path_observables(&self, search: &SearchScratch, row: usize, mut from: u32) -> u64 {
        let boundary = self.graph.num_detectors() as u32;
        let n = self.graph.num_detectors() + 1;
        let pred = &search.pred[row * n..(row + 1) * n];
        let mut mask = 0u64;
        while pred[from as usize] != u32::MAX {
            let e = &self.graph.edges()[pred[from as usize] as usize];
            mask ^= e.observables;
            let next = if e.u == from {
                e.v.unwrap_or(boundary)
            } else {
                e.u
            };
            if next == from {
                break;
            }
            from = next;
            if pred[from as usize] == u32::MAX {
                break;
            }
            if from == boundary {
                break;
            }
        }
        mask
    }

    /// Runs one early-exit Dijkstra per defect (row `i` from `defects[i]`),
    /// each stopping once the boundary and every distinct defect are
    /// settled: the cost source of a graph without tables.
    fn search_rows(&self, defects: &[u32], search: &mut SearchScratch) {
        let boundary = self.graph.num_detectors();
        let n = boundary + 1;
        let k = defects.len();
        if search.dist.len() < k * n {
            search.dist.resize(k * n, f64::INFINITY);
            search.pred.resize(k * n, u32::MAX);
        }
        search.is_target.clear();
        search.is_target.resize(n, false);
        search.is_target[boundary] = true;
        for &d in defects {
            search.is_target[d as usize] = true;
        }
        // Distinct targets: boundary + distinct defects (duplicates in the
        // syndrome would otherwise make the early-exit count unreachable).
        let targets = 1 + search.is_target[..boundary].iter().filter(|&&t| t).count();
        for (row, &d) in defects.iter().enumerate() {
            self.dijkstra(d, row, targets, search);
        }
    }

    /// Decodes with a fresh scratch.
    #[cfg(test)]
    pub(crate) fn decode(&self, defects: &[u32]) -> u64 {
        self.decode_into(defects, &mut MatchScratch::default())
    }

    /// Decodes exactly (if within the cap) or greedily, reusing `scratch`.
    ///
    /// A component whose defects admit no finite-cost pairing (some defect
    /// reaches neither the boundary nor a partner that can complete the
    /// pairing) contributes no flip: its defects stay unmatched. The greedy
    /// fallback still takes its cheapest options in order, finite or not.
    pub(crate) fn decode_into(&self, defects: &[u32], scratch: &mut MatchScratch) -> u64 {
        let k = defects.len();
        if k == 0 {
            return 0;
        }
        let costs = match &self.precomputed {
            Some(pre) => Costs::Tables { pre, defects },
            None => {
                self.search_rows(defects, &mut scratch.search);
                Costs::Rows {
                    decoder: self,
                    search: &scratch.search,
                    defects,
                }
            }
        };

        // Partition defects into independent components: i and j can only
        // end up paired in a min-weight solution when pairing beats sending
        // both to the boundary. The pairing then runs per component, so its
        // cost scales with the largest interacting cluster rather than the
        // whole syndrome.
        scratch.comp_parent.clear();
        scratch.comp_parent.extend(0..k as u32);
        for i in 0..k {
            for j in (i + 1)..k {
                let (pc, bi, bj) = (costs.pair(i, j), costs.boundary(i), costs.boundary(j));
                if pc < bi + bj {
                    comp_union(&mut scratch.comp_parent, i as u32, j as u32);
                }
            }
        }
        scratch.comp_groups.clear();
        for i in 0..k as u32 {
            let root = comp_find(&mut scratch.comp_parent, i);
            scratch.comp_groups.push((root, i));
        }
        scratch.comp_groups.sort_unstable();

        let mut mask = 0u64;
        let mut g0 = 0usize;
        while g0 < k {
            let root = scratch.comp_groups[g0].0;
            let mut g1 = g0;
            while g1 < k && scratch.comp_groups[g1].0 == root {
                g1 += 1;
            }
            scratch.comp_rows.clear();
            for gi in g0..g1 {
                scratch.comp_rows.push(scratch.comp_groups[gi].1);
            }
            let rows = &scratch.comp_rows;
            let g = rows.len();
            scratch.pairing.clear();
            if g <= self.max_exact_defects {
                scratch.bnd.clear();
                scratch
                    .bnd
                    .extend(rows.iter().map(|&r| costs.boundary(r as usize)));
                scratch.pair.clear();
                scratch.pair.resize(g * g, f64::INFINITY);
                for a in 0..g {
                    for b in (a + 1)..g {
                        scratch.pair[a * g + b] = costs.pair(rows[a] as usize, rows[b] as usize);
                    }
                }
                scratch
                    .dp
                    .solve(&scratch.bnd, &scratch.pair, &mut scratch.pairing);
            } else {
                greedy_pairing(
                    rows,
                    &costs,
                    &mut scratch.options,
                    &mut scratch.used,
                    &mut scratch.pairing,
                );
            }
            for &m in &scratch.pairing {
                mask ^= match m {
                    Match::Pair(a, b) => {
                        costs.pair_mask(rows[a as usize] as usize, rows[b as usize] as usize)
                    }
                    Match::Boundary(a) => costs.boundary_mask(rows[a as usize] as usize),
                };
            }
            g0 = g1;
        }
        mask
    }
}

impl Decoder for MatchingDecoder {
    type Scratch = MatchScratch;

    fn predict_into(&self, defects: &[u32], scratch: &mut MatchScratch) -> u64 {
        self.decode_into(defects, scratch)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Match {
    Pair(u32, u32),
    Boundary(u32),
}

/// One decode's shortest-path costs and path observable masks, indexed by
/// position in the syndrome. Pair entries are read from the lower position
/// `i` to `j > i`, the direction the per-defect search runs.
enum Costs<'a> {
    /// The decoder's all-pairs tables, indexed by detector.
    Tables {
        pre: &'a Precomputed,
        defects: &'a [u32],
    },
    /// This decode's Dijkstra rows: row `i` searched from `defects[i]`.
    Rows {
        decoder: &'a MatchingDecoder,
        search: &'a SearchScratch,
        defects: &'a [u32],
    },
}

impl Costs<'_> {
    /// Cost of sending defect `i` to the boundary.
    fn boundary(&self, i: usize) -> f64 {
        match *self {
            Costs::Tables { pre, defects } => pre.bnd_dist[defects[i] as usize],
            Costs::Rows {
                decoder, search, ..
            } => {
                let boundary = decoder.graph.num_detectors();
                search.dist[i * (boundary + 1) + boundary]
            }
        }
    }

    /// Cost of pairing defects `i` and `j`, read from `i`.
    fn pair(&self, i: usize, j: usize) -> f64 {
        match *self {
            Costs::Tables { pre, defects } => {
                pre.pair_dist[defects[i] as usize * pre.bnd_dist.len() + defects[j] as usize]
            }
            Costs::Rows {
                decoder,
                search,
                defects,
            } => search.dist[i * (decoder.graph.num_detectors() + 1) + defects[j] as usize],
        }
    }

    /// Observable mask of defect `i`'s boundary path.
    fn boundary_mask(&self, i: usize) -> u64 {
        match *self {
            Costs::Tables { pre, defects } => pre.bnd_mask[defects[i] as usize],
            Costs::Rows {
                decoder, search, ..
            } => decoder.path_observables(search, i, decoder.graph.num_detectors() as u32),
        }
    }

    /// Observable mask of the path pairing defects `i` and `j`, read from `i`.
    fn pair_mask(&self, i: usize, j: usize) -> u64 {
        match *self {
            Costs::Tables { pre, defects } => {
                pre.pair_mask[defects[i] as usize * pre.bnd_dist.len() + defects[j] as usize]
            }
            Costs::Rows {
                decoder,
                search,
                defects,
            } => decoder.path_observables(search, i, defects[j]),
        }
    }
}

/// Union-find `find` over the component-partition parents.
fn comp_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let gp = parent[parent[x as usize] as usize];
        parent[x as usize] = gp;
        x = gp;
    }
    x
}

/// Union-find `union` over the component-partition parents.
fn comp_union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (comp_find(parent, a), comp_find(parent, b));
    if ra != rb {
        parent[rb as usize] = ra;
    }
}

/// `SubsetDp::partner` value for "the lowest defect takes the boundary".
const BOUNDARY: u8 = u8::MAX;

/// Tables of the reachable-subset DP over one component's defect subsets
/// (bitmasks of component-local indices). An entry is valid only when its
/// stamp equals the current epoch, which [`SubsetDp::solve`] advances per
/// component, so no component pays a 2^g reset and nothing outlives one.
#[derive(Debug, Clone, Default)]
struct SubsetDp {
    /// Min pairing cost of each solved subset.
    cost: Vec<f64>,
    /// Each solved subset's choice for its lowest defect: the partner's
    /// local index, or [`BOUNDARY`]. The lowest defect itself is implied by
    /// the mask.
    partner: Vec<u8>,
    /// Epoch at which each subset was solved.
    stamp: Vec<u32>,
    epoch: u32,
}

impl SubsetDp {
    /// Exact min-cost pairing of the `g = bnd.len()` defects of a component
    /// (`bnd[a]` boundary costs, `pair[a * g + b]` pair costs for `a < b`):
    /// every defect pairs with another or with the boundary. Appends the
    /// pairing in component-local indices to `out`, lowest defect first, and
    /// returns its cost; when no pairing has finite cost it appends nothing
    /// and returns infinity.
    fn solve(&mut self, bnd: &[f64], pair: &[f64], out: &mut Vec<Match>) -> f64 {
        let g = bnd.len();
        let full = (1usize << g) - 1;
        if self.epoch == u32::MAX {
            // Epoch counter wrap: restamp everything as stale once.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.stamp.len() <= full {
            self.cost.resize(full + 1, 0.0);
            self.partner.resize(full + 1, BOUNDARY);
            self.stamp.resize(full + 1, 0);
        }
        let total = self.subset_cost(full, bnd, pair);
        if total < f64::INFINITY {
            let mut mask = full;
            while mask != 0 {
                let i = mask.trailing_zeros();
                let partner = self.partner[mask];
                mask &= !(1 << i);
                if partner == BOUNDARY {
                    out.push(Match::Boundary(i));
                } else {
                    out.push(Match::Pair(i, u32::from(partner)));
                    mask &= !(1 << partner);
                }
            }
        }
        total
    }

    /// Min pairing cost of subset `mask`, solving it (and, recursively, the
    /// subsets its options reach) unless it is already solved this epoch.
    /// The recursion removes at least one defect per level, so its depth is
    /// at most g ≤ 24.
    fn subset_cost(&mut self, mask: usize, bnd: &[f64], pair: &[f64]) -> f64 {
        if mask == 0 {
            return 0.0;
        }
        if self.stamp[mask] == self.epoch {
            return self.cost[mask];
        }
        let g = bnd.len();
        let i = mask.trailing_zeros() as usize;
        let rest = mask & !(1 << i);
        // Boundary first, then partners in ascending order; the strict `<`
        // keeps the first minimum.
        let mut best = f64::INFINITY;
        let mut partner = BOUNDARY;
        let c = self.subset_cost(rest, bnd, pair) + bnd[i];
        if c < best {
            best = c;
        }
        let mut rem = rest;
        while rem != 0 {
            let j = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            let c = self.subset_cost(rest & !(1 << j), bnd, pair) + pair[i * g + j];
            if c < best {
                best = c;
                partner = j as u8;
            }
        }
        self.cost[mask] = best;
        self.partner[mask] = partner;
        self.stamp[mask] = self.epoch;
        best
    }
}

/// Greedy pairing of the defects in `rows` (syndrome positions):
/// repeatedly take the cheapest remaining option. Appends the chosen
/// pairing in component-local indices to `out`.
fn greedy_pairing(
    rows: &[u32],
    costs: &Costs<'_>,
    options: &mut Vec<(f64, Match)>,
    used: &mut Vec<bool>,
    out: &mut Vec<Match>,
) {
    let g = rows.len();
    options.clear();
    for i in 0..g {
        let gi = rows[i] as usize;
        options.push((costs.boundary(gi), Match::Boundary(i as u32)));
        for (j, &rj) in rows.iter().enumerate().skip(i + 1) {
            options.push((costs.pair(gi, rj as usize), Match::Pair(i as u32, j as u32)));
        }
    }
    options.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
    used.clear();
    used.resize(g, false);
    for &(_, m) in options.iter() {
        match m {
            Match::Boundary(i) if !used[i as usize] => {
                used[i as usize] = true;
                out.push(m);
            }
            Match::Pair(i, j) if !used[i as usize] && !used[j as usize] => {
                used[i as usize] = true;
                used[j as usize] = true;
                out.push(m);
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem {
    dist: f64,
    node: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_stabsim::dem::{DemError, DetectorErrorModel};

    fn chain(n: usize, p: f64) -> DecodingGraph {
        // B - 0 - 1 - ... - (n-1) - B, observable on the left boundary edge.
        let mut errors = vec![DemError {
            probability: p,
            detectors: vec![0],
            observables: 1,
        }];
        for i in 0..n - 1 {
            errors.push(DemError {
                probability: p,
                detectors: vec![i as u32, i as u32 + 1],
                observables: 0,
            });
        }
        errors.push(DemError {
            probability: p,
            detectors: vec![n as u32 - 1],
            observables: 0,
        });
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: n,
            num_observables: 1,
            errors,
        })
        .unwrap()
    }

    #[test]
    fn single_defect_left_goes_left() {
        let d = MatchingDecoder::new(chain(5, 0.01));
        assert_eq!(d.predict(&[0]), 1);
        assert_eq!(d.predict(&[4]), 0);
    }

    #[test]
    fn middle_pair_matches_internally() {
        let d = MatchingDecoder::new(chain(5, 0.01));
        assert_eq!(d.predict(&[1, 2]), 0);
    }

    #[test]
    fn far_pair_splits_to_boundaries() {
        // Defects at both ends of a long chain: cheaper to go out both sides.
        let d = MatchingDecoder::new(chain(9, 0.01));
        assert_eq!(d.predict(&[0, 8]), 1);
    }

    #[test]
    fn four_defects_exact() {
        let d = MatchingDecoder::new(chain(9, 0.01));
        // Clusters {1,2} and {6,7}: both internal.
        assert_eq!(d.predict(&[1, 2, 6, 7]), 0);
    }

    #[test]
    fn empty_syndrome() {
        let d = MatchingDecoder::new(chain(3, 0.01));
        assert_eq!(d.predict(&[]), 0);
    }

    #[test]
    fn greedy_fallback_matches_exact_on_easy_instances() {
        let g = chain(12, 0.01);
        let exact = MatchingDecoder::new(g.clone());
        let greedy = MatchingDecoder::new(g).with_max_exact_defects(0);
        for syndrome in [vec![0u32], vec![2, 3], vec![0, 1, 10, 11], vec![5, 6]] {
            assert_eq!(
                exact.predict(&syndrome),
                greedy.predict(&syndrome),
                "syndrome {syndrome:?}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let d = MatchingDecoder::new(chain(9, 0.01));
        let mut scratch = MatchScratch::default();
        for syndrome in [
            vec![0u32],
            vec![],
            vec![1, 2, 6, 7],
            vec![0, 8],
            vec![4],
            vec![2, 3],
        ] {
            assert_eq!(
                d.decode_into(&syndrome, &mut scratch),
                d.decode(&syndrome),
                "syndrome {syndrome:?}"
            );
        }
    }

    #[test]
    fn component_decomposition_scales_past_the_exact_cap() {
        // 30 defects, every one with a cheap private boundary edge and only
        // expensive links to its neighbours: the partition yields 30
        // singleton components, so the "exact" path runs even though the
        // total defect count is far beyond the 2^k DP cap.
        let n = 30usize;
        let mut errors = Vec::new();
        for i in 0..n {
            errors.push(DemError {
                probability: 0.2,
                detectors: vec![i as u32],
                observables: u64::from(i == 0),
            });
        }
        for i in 0..n - 1 {
            errors.push(DemError {
                probability: 1e-6,
                detectors: vec![i as u32, i as u32 + 1],
                observables: 0,
            });
        }
        let g = DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: n,
            num_observables: 1,
            errors,
        })
        .unwrap();
        let d = MatchingDecoder::new(g);
        let all: Vec<u32> = (0..n as u32).collect();
        // Every defect exits through its own boundary edge; only defect 0
        // carries the observable.
        assert_eq!(d.predict(&all), 1);
    }

    /// Irregular weighted graph: chain + skip links + sparse boundary exits,
    /// probabilities varied deterministically so shortest paths differ per
    /// node and exercise non-trivial path masks.
    fn tangle(n: usize) -> DecodingGraph {
        let p_of = |i: usize| 0.01 + 0.015 * ((i * 7919 % 13) as f64) / 13.0;
        let mut errors = Vec::new();
        for i in 0..n - 1 {
            errors.push(DemError {
                probability: p_of(i),
                detectors: vec![i as u32, i as u32 + 1],
                observables: 1 << (i % 3),
            });
        }
        for i in 0..n - 2 {
            errors.push(DemError {
                probability: p_of(i + n),
                detectors: vec![i as u32, i as u32 + 2],
                observables: 1 << ((i + 1) % 3),
            });
        }
        for i in (0..n).step_by(3) {
            errors.push(DemError {
                probability: p_of(i + 2 * n),
                detectors: vec![i as u32],
                observables: u64::from(i % 2 == 0),
            });
        }
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: n,
            num_observables: 3,
            errors,
        })
        .unwrap()
    }

    /// Seeded random graphlike DEM on `n` detectors: cheap edges to two
    /// random partners per detector and rare, expensive boundary exits, so
    /// defects seldom prefer the boundary and components grow large. Some
    /// draws leave a cluster with no boundary exit at all.
    fn random_graph(n: usize, rng: &mut rand::rngs::StdRng) -> DecodingGraph {
        use rand::{Rng, RngExt};
        let mut errors = Vec::new();
        for i in 0..n as u32 {
            for _ in 0..2 {
                let j = rng.random_range(0..n as u32);
                if j != i {
                    errors.push(DemError {
                        probability: rng.random_range(0.03..0.2),
                        detectors: vec![i.min(j), i.max(j)],
                        observables: rng.random_range(0..4u64),
                    });
                }
            }
            if rng.random_bool(0.2) {
                errors.push(DemError {
                    probability: rng.random_range(0.002..0.02),
                    detectors: vec![i],
                    observables: rng.random_range(0..4u64),
                });
            }
        }
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: n,
            num_observables: 2,
            errors,
        })
        .unwrap()
    }

    /// Size of the largest component the last decode into `scratch` formed.
    fn largest_component(scratch: &MatchScratch) -> usize {
        scratch
            .comp_groups
            .chunk_by(|a, b| a.0 == b.0)
            .map(<[_]>::len)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn precompute_on_off_bit_identical_on_random_syndromes() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngExt, SeedableRng};
        let mut s_on = MatchScratch::default();
        let mut s_off = MatchScratch::default();
        for graph in [chain(12, 0.03), tangle(14)] {
            let nd = graph.num_detectors() as u32;
            let on = MatchingDecoder::new(graph);
            assert!(
                on.precomputed.is_some(),
                "small graphs precompute by default"
            );
            let off = on.clone().with_precompute(false);
            assert!(off.precomputed.is_none());
            let mut rng = StdRng::seed_from_u64(41);
            for trial in 0..400 {
                let syndrome: Vec<u32> = (0..nd).filter(|_| rng.random_bool(0.3)).collect();
                assert_eq!(
                    on.decode_into(&syndrome, &mut s_on),
                    off.decode_into(&syndrome, &mut s_off),
                    "trial {trial}, syndrome {syndrome:?}"
                );
            }
        }
        // Random graphs of 20–60 detectors, dense enough for components
        // deep into the exact DP and past its cap.
        let mut rng = StdRng::seed_from_u64(47);
        let mut largest = 0;
        for graph_index in 0..24 {
            let nd = rng.random_range(20..=60usize);
            let on = MatchingDecoder::new(random_graph(nd, &mut rng));
            let off = on.clone().with_precompute(false);
            for trial in 0..25 {
                let density = rng.random_range(0.2..0.5);
                let syndrome: Vec<u32> = (0..nd as u32)
                    .filter(|_| rng.random_bool(density))
                    .collect();
                assert_eq!(
                    on.decode_into(&syndrome, &mut s_on),
                    off.decode_into(&syndrome, &mut s_off),
                    "graph {graph_index}, trial {trial}, syndrome {syndrome:?}"
                );
                largest = largest.max(largest_component(&s_on));
            }
        }
        assert!(
            largest >= 12,
            "largest component only {largest} defects: the random graphs no longer reach the DP's deep end"
        );
    }

    #[test]
    fn component_without_a_finite_pairing_stays_unmatched() {
        // D0–D1–D2 is a chain with no boundary exit; D3 exits through a
        // boundary edge carrying L0. An odd defect set on the chain has no
        // finite-cost pairing: it must contribute no flip, not panic, and
        // both cost sources must agree.
        let edge = |detectors: Vec<u32>, observables| DemError {
            probability: 0.1,
            detectors,
            observables,
        };
        let dem = DetectorErrorModel {
            num_detectors: 4,
            num_observables: 1,
            errors: vec![edge(vec![0, 1], 0), edge(vec![1, 2], 0), edge(vec![3], 1)],
        };
        let on = MatchingDecoder::new(DecodingGraph::from_dem(&dem).unwrap());
        let off = on.clone().with_precompute(false);
        for (syndrome, expected) in [
            (vec![0u32, 1, 2], 0u64),
            (vec![0], 0),
            (vec![0, 1, 2, 3], 1),
            (vec![2, 3], 1),
            (vec![0, 2], 0),
        ] {
            assert_eq!(on.decode(&syndrome), expected, "tables, {syndrome:?}");
            assert_eq!(off.decode(&syndrome), expected, "searches, {syndrome:?}");
        }
    }

    /// The bottom-up DP that preceded the reachable-subset DP, kept verbatim
    /// (with the scratch fields and cost helpers it reads) as the exactness
    /// reference: it fills the cost and choice of all 2^g subsets.
    mod reference {
        use crate::matching::Match;

        #[derive(Default)]
        pub(super) struct MatchScratch {
            pub(super) dist: Vec<f64>,
            pub(super) cost: Vec<f64>,
            pub(super) choice: Vec<Match>,
            pub(super) pairing: Vec<Match>,
        }

        /// Cost of pairing defects `i` and `j` via defect `i`'s distance table.
        #[inline]
        fn pair_cost(scratch: &MatchScratch, n: usize, defects: &[u32], i: usize, j: usize) -> f64 {
            scratch.dist[i * n + defects[j] as usize]
        }

        /// Cost of sending defect `i` to the boundary.
        #[inline]
        fn boundary_cost(scratch: &MatchScratch, n: usize, boundary: usize, i: usize) -> f64 {
            scratch.dist[i * n + boundary]
        }

        /// Exact min-cost pairing of the defects in `rows` by bitmask DP: every
        /// defect pairs with another or with the boundary. Appends the chosen
        /// pairing (in global defect indices) to `scratch.pairing`.
        pub(super) fn exact_pairing(
            rows: &[u32],
            defects: &[u32],
            boundary: usize,
            n: usize,
            scratch: &mut MatchScratch,
        ) {
            let g = rows.len();
            let full = (1usize << g) - 1;
            scratch.cost.clear();
            scratch.cost.resize(full + 1, f64::INFINITY);
            scratch.choice.clear();
            scratch.choice.resize(full + 1, Match::Boundary(u32::MAX));
            scratch.cost[0] = 0.0;
            for mask in 1..=full {
                let i = mask.trailing_zeros() as usize;
                let gi = rows[i] as usize;
                // Option A: defect i to boundary.
                let rest = mask & !(1 << i);
                let c = scratch.cost[rest] + boundary_cost(scratch, n, boundary, gi);
                if c < scratch.cost[mask] {
                    scratch.cost[mask] = c;
                    scratch.choice[mask] = Match::Boundary(i as u32);
                }
                // Option B: defect i paired with j.
                let mut rem = rest;
                while rem != 0 {
                    let j = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let c = scratch.cost[mask & !(1 << i) & !(1 << j)]
                        + pair_cost(scratch, n, defects, gi, rows[j] as usize);
                    if c < scratch.cost[mask] {
                        scratch.cost[mask] = c;
                        scratch.choice[mask] = Match::Pair(i as u32, j as u32);
                    }
                }
            }
            let mut mask = full;
            while mask != 0 {
                let m = scratch.choice[mask];
                match m {
                    Match::Boundary(i) => {
                        scratch.pairing.push(Match::Boundary(rows[i as usize]));
                        mask &= !(1 << i);
                    }
                    Match::Pair(i, j) => {
                        scratch
                            .pairing
                            .push(Match::Pair(rows[i as usize], rows[j as usize]));
                        mask &= !(1 << i);
                        mask &= !(1 << j);
                    }
                }
            }
        }
    }

    #[test]
    fn subset_dp_matches_the_bottom_up_reference() {
        // Seeded random cost tables for every g = 1..=16. Small integer
        // costs make ties frequent, so the option order and the strict `<`
        // decide many pairings; every other trial draws tenths instead, whose
        // sums round, so the f64 additions must also match bit for bit. About
        // one entry in seven is infinite, which leaves some full sets with
        // no finite pairing.
        use rand::rngs::StdRng;
        use rand::{Rng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(53);
        let mut dp = SubsetDp::default();
        let mut out = Vec::new();
        let (mut finite, mut infinite) = (0, 0);
        for g in 1..=16usize {
            let (n, boundary) = (g + 1, g);
            let rows: Vec<u32> = (0..g as u32).collect();
            let trials = if g <= 12 { 60 } else { 12 };
            for trial in 0..trials {
                let tenths = trial % 2 == 1;
                let mut draw = || {
                    if rng.random_bool(0.15) {
                        f64::INFINITY
                    } else if tenths {
                        f64::from(rng.random_range(1..=30u32)) * 0.1
                    } else {
                        f64::from(rng.random_range(0..=4u32))
                    }
                };
                let mut reference = reference::MatchScratch {
                    dist: vec![f64::INFINITY; g * n],
                    ..Default::default()
                };
                let mut bnd = vec![0.0; g];
                let mut pair = vec![f64::INFINITY; g * g];
                for i in 0..g {
                    bnd[i] = draw();
                    reference.dist[i * n + boundary] = bnd[i];
                    for j in (i + 1)..g {
                        pair[i * g + j] = draw();
                        reference.dist[i * n + j] = pair[i * g + j];
                    }
                }
                // The reference panics when it reconstructs a full set with
                // no finite pairing (it reads an unset choice), so catch it
                // and compare the cost it filled in.
                let filled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    reference::exact_pairing(&rows, &rows, boundary, n, &mut reference);
                }));
                let full_cost = reference.cost[(1 << g) - 1];
                out.clear();
                let cost = dp.solve(&bnd, &pair, &mut out);
                assert_eq!(cost.to_bits(), full_cost.to_bits(), "g={g}, trial {trial}");
                if full_cost < f64::INFINITY {
                    finite += 1;
                    assert!(filled.is_ok(), "g={g}, trial {trial}");
                    assert_eq!(out, reference.pairing, "g={g}, trial {trial}");
                } else {
                    infinite += 1;
                    assert!(filled.is_err(), "g={g}, trial {trial}");
                    assert!(out.is_empty(), "g={g}, trial {trial}: {out:?}");
                }
            }
        }
        assert!(
            finite > 0 && infinite > 0,
            "{finite} finite, {infinite} infinite"
        );
    }

    #[test]
    fn precompute_respects_the_greedy_fallback() {
        // With the exact cap at 0 every component takes the greedy path,
        // which may split a pair to both boundaries: both cost sources must
        // still give bit-identical decodes.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = tangle(14);
        let on = MatchingDecoder::new(g).with_max_exact_defects(0);
        let off = on.clone().with_precompute(false);
        let mut s_on = MatchScratch::default();
        let mut s_off = MatchScratch::default();
        let mut rng = StdRng::seed_from_u64(43);
        for trial in 0..200 {
            let syndrome: Vec<u32> = (0..14u32).filter(|_| rng.random_bool(0.3)).collect();
            assert_eq!(
                on.decode_into(&syndrome, &mut s_on),
                off.decode_into(&syndrome, &mut s_off),
                "trial {trial}, syndrome {syndrome:?}"
            );
        }
    }

    #[test]
    fn repetition_anchors_pin_failure_counts() {
        // d = 3 / d = 5 repetition-memory anchors: the precompute must not
        // move a single Monte-Carlo failure, and the absolute counts are
        // pinned so any decision drift in matching shows up here.
        use crate::mc::{self, tests::repetition, CircuitSampler, McConfig};

        let cfg = McConfig::single_threaded();
        for (d, expected) in [(3usize, 121usize), (5usize, 57usize)] {
            let c = repetition(d, d, 0.08);
            let dem = DetectorErrorModel::from_circuit(&c);
            let g = DecodingGraph::from_dem(&dem).unwrap();
            let on = MatchingDecoder::new(g.clone());
            assert!(on.precomputed.is_some());
            let off = MatchingDecoder::new(g).with_precompute(false);
            let sampler = CircuitSampler::new(&c);
            let s_on = mc::logical_error_rate_sampled(&sampler, &on, 2_000, 11, &cfg).unwrap();
            let s_off = mc::logical_error_rate_sampled(&sampler, &off, 2_000, 11, &cfg).unwrap();
            assert_eq!(s_on.shots, 2_000);
            assert_eq!(
                s_on.failures, s_off.failures,
                "precompute moved failures at d={d}"
            );
            assert_eq!(s_on.failures, expected, "anchor drifted at d={d}");
        }
    }

    #[test]
    fn weighted_paths_respected() {
        // Heavier direct boundary edge vs light two-hop path.
        let dem = DetectorErrorModel {
            num_detectors: 2,
            num_observables: 1,
            errors: vec![
                DemError {
                    probability: 1e-8,
                    detectors: vec![0],
                    observables: 1,
                },
                DemError {
                    probability: 0.2,
                    detectors: vec![0, 1],
                    observables: 0,
                },
                DemError {
                    probability: 0.2,
                    detectors: vec![1],
                    observables: 0,
                },
            ],
        };
        let g = DecodingGraph::from_dem(&dem).unwrap();
        let d = MatchingDecoder::new(g);
        assert_eq!(d.predict(&[0]), 0, "must route around the unlikely edge");
    }
}
