//! Exact minimum-weight perfect matching for small syndromes.
//!
//! Computes all-pairs shortest paths between defects (and to the boundary)
//! with Dijkstra, then finds the exact minimum-weight pairing by bitmask
//! dynamic programming. Exponential in the number of defects, so it is capped
//! (default 20 defects) with a greedy fallback; within the cap it plays the
//! role of the paper's most-likely-error (MLE) reference decoder for
//! calibrating the decoding factor α on small instances.
//!
//! All working state — per-defect distance/predecessor tables, the Dijkstra
//! heap, the DP tables, the greedy option list — lives in a reusable
//! [`MatchScratch`], so the steady-state decode loop is allocation-free.

use crate::graph::DecodingGraph;
use crate::Decoder;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default maximum number of defects for the exact DP.
pub const DEFAULT_MAX_EXACT_DEFECTS: usize = 20;

/// Detector-count ceiling below which [`MatchingDecoder::new`] precomputes
/// the all-pairs distance/path tables (the tables are O(detectors²)).
pub const PRECOMPUTE_MAX_DETECTORS: usize = 512;

/// Reusable working state for [`MatchingDecoder`].
///
/// Construct with `Default::default()`; buffers grow to the largest problem
/// seen and are reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Flattened per-defect distance tables: `dist[k * num_nodes + node]`.
    dist: Vec<f64>,
    /// Flattened per-defect shortest-path-tree predecessor edges.
    pred: Vec<u32>,
    heap: BinaryHeap<HeapItem>,
    /// DP cost table over defect subsets.
    cost: Vec<f64>,
    /// DP choice table over defect subsets.
    choice: Vec<Match>,
    /// Greedy fallback's sorted option list.
    options: Vec<(f64, Match)>,
    /// Greedy fallback's per-defect used flags.
    used: Vec<bool>,
    /// The selected pairing.
    pairing: Vec<Match>,
    /// Component partition: union-find parents over defect indices.
    comp_parent: Vec<u32>,
    /// `(component root, defect index)` pairs, sorted to group components.
    comp_groups: Vec<(u32, u32)>,
    /// Defect indices of the component currently being solved.
    comp_rows: Vec<u32>,
    /// Per-node flags marking Dijkstra targets (defects + boundary).
    is_target: Vec<bool>,
    /// Per-defect-row flags: row's Dijkstra table is populated this decode.
    row_done: Vec<bool>,
}

/// Construction-time all-pairs tables: for every detector, the shortest-path
/// distance and observable mask to the boundary and to every other detector.
///
/// Built by running each detector's Dijkstra to exhaustion once at decoder
/// construction. Settled nodes carry final distances and predecessor chains,
/// and the decode-time early-exit Dijkstra explores a prefix of the same
/// deterministic settle order — so these tables are bit-identical to what the
/// per-shot searches would have produced, and consulting them changes no
/// decoding decision.
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
    /// Graphs with at most [`PRECOMPUTE_MAX_DETECTORS`] detectors get
    /// all-pairs distance/path tables precomputed here, so singleton and
    /// two-defect components decode with no per-shot Dijkstra at all; see
    /// [`MatchingDecoder::with_precompute`] to override. Larger interacting
    /// components run early-exit Dijkstra searches localized to the
    /// component and are paired exactly (or greedily past the cap) on
    /// every decode.
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
    /// size. The tables are O(detectors²) in memory and cost one full
    /// Dijkstra per detector to build; decoding results are bit-identical
    /// either way (the tables only short-circuit searches whose outcomes
    /// they already hold).
    pub fn with_precompute(mut self, enabled: bool) -> Self {
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
        let mut scratch = MatchScratch::default();
        scratch.dist.resize(n, f64::INFINITY);
        scratch.pred.resize(n, u32::MAX);
        // All-false targets with `targets == 0`: the early-exit counter never
        // fires, so the search settles every reachable node.
        scratch.is_target.resize(n, false);
        let mut pre = Precomputed {
            bnd_dist: vec![f64::INFINITY; nd],
            bnd_mask: vec![0; nd],
            pair_dist: vec![f64::INFINITY; nd * nd],
            pair_mask: vec![0; nd * nd],
        };
        for d in 0..nd {
            self.dijkstra(d as u32, 0, 0, &mut scratch);
            pre.bnd_dist[d] = scratch.dist[nd];
            pre.bnd_mask[d] = self.path_observables(&scratch, 0, nd as u32);
            for e in 0..nd {
                pre.pair_dist[d * nd + e] = scratch.dist[e];
                pre.pair_mask[d * nd + e] = self.path_observables(&scratch, 0, e as u32);
            }
        }
        pre
    }

    /// Sets the maximum number of defects decoded exactly (≤ 24).
    ///
    /// # Panics
    ///
    /// Panics if `cap` exceeds 24 (the DP table would be too large).
    pub fn with_max_exact_defects(mut self, cap: usize) -> Self {
        assert!(cap <= 24, "exact matching cap too large: {cap}");
        self.max_exact_defects = cap;
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Whether a defect component of size `n` will be decoded exactly.
    ///
    /// Defects are first partitioned into independent components (defects
    /// `i`, `j` interact only when `d(i, j) < bnd(i) + bnd(j)`; otherwise
    /// routing both to the boundary is never worse than pairing them), and
    /// the cap applies per component — so syndromes far larger than the cap
    /// still decode exactly when their defects are spread out.
    pub fn is_exact_for(&self, n: usize) -> bool {
        n <= self.max_exact_defects
    }

    /// Dijkstra from `source`, writing into row `row` of the scratch tables.
    /// Terminates once every marked target (`scratch.is_target`) is settled:
    /// the pairing only needs defect→defect and defect→boundary distances,
    /// and settled targets carry final predecessor chains.
    fn dijkstra(&self, source: u32, row: usize, targets: usize, scratch: &mut MatchScratch) {
        let nd = self.graph.num_detectors();
        let boundary = nd;
        let n = nd + 1;
        let dist = &mut scratch.dist[row * n..(row + 1) * n];
        let pred = &mut scratch.pred[row * n..(row + 1) * n];
        dist.fill(f64::INFINITY);
        pred.fill(u32::MAX);
        scratch.heap.clear();
        dist[source as usize] = 0.0;
        scratch.heap.push(HeapItem {
            dist: 0.0,
            node: source,
        });
        let mut remaining = targets;
        while let Some(HeapItem { dist: d, node }) = scratch.heap.pop() {
            if d > dist[node as usize] {
                continue;
            }
            if scratch.is_target[node as usize] {
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
                    scratch.heap.push(HeapItem {
                        dist: nd2,
                        node: other,
                    });
                }
            }
        }
    }

    /// Observable mask along defect `row`'s shortest-path tree from `from`
    /// back to the tree's source.
    fn path_observables(&self, scratch: &MatchScratch, row: usize, mut from: u32) -> u64 {
        let boundary = self.graph.num_detectors() as u32;
        let n = self.graph.num_detectors() + 1;
        let pred = &scratch.pred[row * n..(row + 1) * n];
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

    /// Decodes with a fresh scratch; prefer
    /// [`MatchingDecoder::decode_into`] in loops.
    pub fn decode(&self, defects: &[u32]) -> u64 {
        self.decode_into(defects, &mut MatchScratch::default())
    }

    /// Decodes exactly (if within the cap) or greedily, reusing `scratch`.
    pub fn decode_into(&self, defects: &[u32], scratch: &mut MatchScratch) -> u64 {
        let k = defects.len();
        if k == 0 {
            return 0;
        }
        let n = self.graph.num_detectors() + 1;
        let boundary = self.graph.num_detectors();
        if scratch.dist.len() < k * n {
            scratch.dist.resize(k * n, f64::INFINITY);
            scratch.pred.resize(k * n, u32::MAX);
        }
        scratch.is_target.clear();
        scratch.is_target.resize(n, false);
        scratch.is_target[boundary] = true;
        for &d in defects {
            scratch.is_target[d as usize] = true;
        }
        // Distinct targets: boundary + distinct defects (duplicates in the
        // syndrome would otherwise make the early-exit count unreachable).
        let targets = 1 + scratch.is_target[..boundary].iter().filter(|&&t| t).count();
        let pre = self.precomputed.as_ref();
        scratch.row_done.clear();
        scratch.row_done.resize(k, pre.is_none());
        if pre.is_none() {
            for (row, &d) in defects.iter().enumerate() {
                self.dijkstra(d, row, targets, scratch);
            }
        }

        // Partition defects into independent components: i and j can only
        // end up paired in a min-weight solution when pairing beats sending
        // both to the boundary. The bitmask DP then runs per component, so
        // its 2^k cost scales with the largest interacting cluster rather
        // than the whole syndrome.
        let nd = boundary;
        scratch.comp_parent.clear();
        scratch.comp_parent.extend(0..k as u32);
        for i in 0..k {
            for j in (i + 1)..k {
                let (pc, bi, bj) = match pre {
                    Some(p) => (
                        p.pair_dist[defects[i] as usize * nd + defects[j] as usize],
                        p.bnd_dist[defects[i] as usize],
                        p.bnd_dist[defects[j] as usize],
                    ),
                    None => (
                        pair_cost(scratch, n, defects, i, j),
                        boundary_cost(scratch, n, boundary, i),
                        boundary_cost(scratch, n, boundary, j),
                    ),
                };
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

        scratch.pairing.clear();
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
            let rows = std::mem::take(&mut scratch.comp_rows);
            if let Some(p) = pre {
                // Short-circuit the two commonest component shapes straight
                // to the precomputed path masks — no per-shot Dijkstra.
                if rows.len() == 1 {
                    // A singleton's only option is its boundary path.
                    mask ^= p.bnd_mask[defects[rows[0] as usize] as usize];
                    scratch.comp_rows = rows;
                    g0 = g1;
                    continue;
                }
                if rows.len() == 2 && self.is_exact_for(2) {
                    // A pair component exists precisely because pairing beats
                    // two boundary exits, so the 2-defect exact DP always
                    // chooses `Pair(rows[0], rows[1])` — whose mask is row 0's
                    // tree walked from defect 1, i.e. the precomputed pair
                    // path. (The greedy fallback may still split a pair to
                    // both boundaries, hence the `is_exact_for` gate.)
                    let (a, b) = (rows[0] as usize, rows[1] as usize);
                    mask ^= p.pair_mask[defects[a] as usize * nd + defects[b] as usize];
                    scratch.comp_rows = rows;
                    g0 = g1;
                    continue;
                }
            }
            if pre.is_some() {
                // Localize the early-exit targets to this component plus
                // the boundary: the pairing reads only intra-component and
                // boundary entries, and an early-exit Dijkstra settles a
                // deterministic prefix, so the values read are identical —
                // it just stops (much) sooner.
                for t in scratch.is_target.iter_mut() {
                    *t = false;
                }
                scratch.is_target[boundary] = true;
                for &r in &rows {
                    scratch.is_target[defects[r as usize] as usize] = true;
                }
                let local_targets =
                    1 + scratch.is_target[..boundary].iter().filter(|&&t| t).count();
                for &r in &rows {
                    if !scratch.row_done[r as usize] {
                        self.dijkstra(defects[r as usize], r as usize, local_targets, scratch);
                        scratch.row_done[r as usize] = true;
                    }
                }
            }
            let pairing_start = scratch.pairing.len();
            if rows.len() <= self.max_exact_defects {
                exact_pairing(&rows, defects, boundary, n, scratch);
            } else {
                greedy_pairing(&rows, defects, boundary, n, scratch);
            }
            for pi in pairing_start..scratch.pairing.len() {
                match scratch.pairing[pi] {
                    Match::Pair(i, j) => {
                        mask ^= self.path_observables(scratch, i as usize, defects[j as usize]);
                    }
                    Match::Boundary(i) => {
                        mask ^= self.path_observables(scratch, i as usize, boundary as u32);
                    }
                }
            }
            scratch.comp_rows = rows;
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

/// Exact min-cost pairing of the defects in `rows` by bitmask DP: every
/// defect pairs with another or with the boundary. Appends the chosen
/// pairing (in global defect indices) to `scratch.pairing`.
fn exact_pairing(
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

/// Greedy pairing of the defects in `rows`: repeatedly take the cheapest
/// remaining option. Appends the chosen pairing (in global defect indices)
/// to `scratch.pairing`.
fn greedy_pairing(
    rows: &[u32],
    defects: &[u32],
    boundary: usize,
    n: usize,
    scratch: &mut MatchScratch,
) {
    let g = rows.len();
    scratch.options.clear();
    for i in 0..g {
        let gi = rows[i] as usize;
        scratch.options.push((
            boundary_cost(scratch, n, boundary, gi),
            Match::Boundary(i as u32),
        ));
        for (j, &rj) in rows.iter().enumerate().skip(i + 1) {
            scratch.options.push((
                pair_cost(scratch, n, defects, gi, rj as usize),
                Match::Pair(i as u32, j as u32),
            ));
        }
    }
    scratch
        .options
        .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
    scratch.used.clear();
    scratch.used.resize(g, false);
    for oi in 0..scratch.options.len() {
        let (_, m) = scratch.options[oi];
        match m {
            Match::Boundary(i) if !scratch.used[i as usize] => {
                scratch.used[i as usize] = true;
                scratch.pairing.push(Match::Boundary(rows[i as usize]));
            }
            Match::Pair(i, j) if !scratch.used[i as usize] && !scratch.used[j as usize] => {
                scratch.used[i as usize] = true;
                scratch.used[j as usize] = true;
                scratch
                    .pairing
                    .push(Match::Pair(rows[i as usize], rows[j as usize]));
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

    #[test]
    fn precompute_on_off_bit_identical_on_random_syndromes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for graph in [chain(12, 0.03), tangle(14)] {
            let nd = graph.num_detectors() as u32;
            let on = MatchingDecoder::new(graph);
            assert!(
                on.precomputed.is_some(),
                "small graphs precompute by default"
            );
            let off = on.clone().with_precompute(false);
            assert!(off.precomputed.is_none());
            let mut s_on = MatchScratch::default();
            let mut s_off = MatchScratch::default();
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
    }

    #[test]
    fn precompute_respects_the_greedy_fallback() {
        // With the exact cap at 0 every component takes the greedy path,
        // which may split a pair to both boundaries — the pair short-circuit
        // must stay out of the way so on/off remain bit-identical.
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
        use crate::mc::{self, McConfig};
        use raa_stabsim::{Circuit, MeasRecord};

        fn repetition(d: usize, rounds: usize, p: f64) -> Circuit {
            let n_data = d;
            let n_anc = d - 1;
            let data: Vec<u32> = (0..n_data as u32).map(|i| 2 * i).collect();
            let anc: Vec<u32> = (0..n_anc as u32).map(|i| 2 * i + 1).collect();
            let mut c = Circuit::new();
            let all: Vec<u32> = (0..(n_data + n_anc) as u32).collect();
            c.r(&all);
            for round in 0..rounds {
                c.x_error(&data, p);
                let pairs: Vec<(u32, u32)> = (0..n_anc)
                    .flat_map(|i| [(data[i], anc[i]), (data[i + 1], anc[i])])
                    .collect();
                c.cx(&pairs);
                c.mr(&anc);
                for i in 0..n_anc {
                    if round == 0 {
                        c.detector(&[MeasRecord::back(n_anc - i)]);
                    } else {
                        c.detector(&[MeasRecord::back(n_anc - i), MeasRecord::back(2 * n_anc - i)]);
                    }
                }
            }
            c.m(&data);
            for i in 0..n_anc {
                c.detector(&[
                    MeasRecord::back(n_data - i),
                    MeasRecord::back(n_data - i - 1),
                    MeasRecord::back(n_data + n_anc - i),
                ]);
            }
            c.observable_include(0, &[MeasRecord::back(n_data)]);
            c
        }

        let cfg = McConfig::single_threaded();
        for (d, expected) in [(3usize, 121usize), (5usize, 57usize)] {
            let c = repetition(d, d, 0.08);
            let dem = DetectorErrorModel::from_circuit(&c);
            let g = DecodingGraph::from_dem(&dem).unwrap();
            let on = MatchingDecoder::new(g.clone());
            assert!(on.precomputed.is_some());
            let off = MatchingDecoder::new(g).with_precompute(false);
            let s_on = mc::logical_error_rate_seeded(&c, &on, 2_000, 11, &cfg).unwrap();
            let s_off = mc::logical_error_rate_seeded(&c, &off, 2_000, 11, &cfg).unwrap();
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
