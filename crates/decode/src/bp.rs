//! Belief propagation with a union–find fallback.
//!
//! The paper's decoding-factor analysis (§III.4, Fig. 13a) covers a family
//! of decoders — MLE, matching variants, BP-OSD/BP-LSD, hypergraph union
//! find — that differ in how much correlated information they exploit; less
//! accurate decoders show up as a larger α. This module implements min-sum
//! belief propagation on the Tanner graph of the detector error model,
//! producing posterior error probabilities conditioned on the observed
//! syndrome. [`BpUnionFindDecoder`] uses them only through BP's hard
//! decision. When the errors with negative posterior log-likelihood
//! reproduce the syndrome exactly, it returns their observable flips;
//! otherwise it runs plain union–find on the static decoding graph. The
//! posteriors never re-weight that graph.
//!
//! The Tanner graph is stored in flat CSR form (error→detector slots and
//! detector→(error, slot) pairs precomputed at construction), and all
//! message buffers live in a reusable scratch, so per-syndrome BP runs
//! without heap allocation.

use crate::graph::DecodingGraph;
use crate::unionfind::{UfScratch, UnionFindDecoder};
use crate::Decoder;
use raa_stabsim::dem::DetectorErrorModel;

/// Min-sum belief propagation over a DEM's Tanner graph.
///
/// Checks are detectors (parity of incident error bits must match the
/// syndrome); variables are error mechanisms with priors from the DEM.
#[derive(Debug, Clone)]
pub struct BeliefPropagation {
    /// Per-error prior log-likelihood ratios `ln((1-p)/p)`.
    priors: Vec<f64>,
    /// CSR offsets into `error_dets`: error `e` owns slots
    /// `error_off[e]..error_off[e + 1]`.
    error_off: Vec<u32>,
    /// Flattened per-error detector lists.
    error_dets: Vec<u32>,
    /// CSR offsets into `det_slots`: detector `d` owns
    /// `det_off[d]..det_off[d + 1]`.
    det_off: Vec<u32>,
    /// Flattened per-detector message-slot indices into the flat message
    /// arrays (shared with `error_dets`).
    det_slots: Vec<u32>,
    iterations: usize,
    num_detectors: usize,
}

/// Reusable working state for [`BeliefPropagation`].
#[derive(Debug, Clone, Default)]
pub struct BpScratch {
    syndrome: Vec<bool>,
    /// Variable→check messages, one per (error, detector) slot.
    var_to_chk: Vec<f64>,
    /// Check→variable messages, one per (error, detector) slot.
    chk_to_var: Vec<f64>,
    /// Per-error posterior LLRs.
    posteriors: Vec<f64>,
    /// Hard-decision parity accumulator.
    parity: Vec<bool>,
}

impl BeliefPropagation {
    /// Builds the BP engine from a DEM (hyperedges allowed).
    pub fn new(dem: &DetectorErrorModel) -> Self {
        let mut priors = Vec::with_capacity(dem.len());
        let mut error_off = Vec::with_capacity(dem.len() + 1);
        let mut error_dets = Vec::new();
        error_off.push(0u32);
        let mut det_degree = vec![0u32; dem.num_detectors];
        for e in dem.iter() {
            let p = e.probability.clamp(1e-12, 0.5 - 1e-12);
            priors.push(((1.0 - p) / p).ln());
            for &d in &e.detectors {
                error_dets.push(d);
                det_degree[d as usize] += 1;
            }
            error_off.push(error_dets.len() as u32);
        }
        let mut det_off = Vec::with_capacity(dem.num_detectors + 1);
        det_off.push(0u32);
        for d in 0..dem.num_detectors {
            det_off.push(det_off[d] + det_degree[d]);
        }
        let mut det_slots = vec![0u32; error_dets.len()];
        let mut cursor: Vec<u32> = det_off[..dem.num_detectors].to_vec();
        for (e, err) in dem.iter().enumerate() {
            for (k, &d) in err.detectors.iter().enumerate() {
                det_slots[cursor[d as usize] as usize] = error_off[e] + k as u32;
                cursor[d as usize] += 1;
            }
        }
        Self {
            priors,
            error_off,
            error_dets,
            det_off,
            det_slots,
            iterations: 20,
            num_detectors: dem.num_detectors,
        }
    }

    /// Sets the number of BP iterations (default 20).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        assert!(iterations >= 1, "need at least one BP iteration");
        self.iterations = iterations;
        self
    }

    /// Number of error mechanisms (variables).
    pub fn num_errors(&self) -> usize {
        self.priors.len()
    }

    /// Runs min-sum BP for the given syndrome, returning per-error posterior
    /// log-likelihood ratios (positive = probably did not fire).
    pub fn posteriors(&self, defects: &[u32]) -> Vec<f64> {
        let mut scratch = BpScratch::default();
        self.posteriors_into(defects, &mut scratch);
        scratch.posteriors
    }

    /// Like [`BeliefPropagation::posteriors`], but reuses `scratch` and
    /// leaves the result in `scratch.posteriors` (also returned as a slice).
    /// Steady state performs no heap allocation.
    pub fn posteriors_into<'s>(&self, defects: &[u32], scratch: &'s mut BpScratch) -> &'s [f64] {
        let slots = self.error_dets.len();
        let ne = self.num_errors();
        scratch.syndrome.clear();
        scratch.syndrome.resize(self.num_detectors, false);
        for &d in defects {
            scratch.syndrome[d as usize] = true;
        }
        scratch.var_to_chk.clear();
        scratch.var_to_chk.resize(slots, 0.0);
        scratch.chk_to_var.clear();
        scratch.chk_to_var.resize(slots, 0.0);
        for e in 0..ne {
            let (lo, hi) = (self.error_off[e] as usize, self.error_off[e + 1] as usize);
            scratch.var_to_chk[lo..hi].fill(self.priors[e]);
        }

        for _ in 0..self.iterations {
            // Check update: for detector d, the message to error e is the
            // sign-product / min-magnitude of the other incoming messages,
            // with the syndrome bit flipping the sign.
            for d in 0..self.num_detectors {
                let (lo, hi) = (self.det_off[d] as usize, self.det_off[d + 1] as usize);
                let mut total_sign = if scratch.syndrome[d] { -1.0f64 } else { 1.0 };
                let (mut min1, mut min2) = (f64::INFINITY, f64::INFINITY);
                for &slot in &self.det_slots[lo..hi] {
                    let m = scratch.var_to_chk[slot as usize];
                    if m < 0.0 {
                        total_sign = -total_sign;
                    }
                    let a = m.abs();
                    if a < min1 {
                        min2 = min1;
                        min1 = a;
                    } else if a < min2 {
                        min2 = a;
                    }
                }
                for &slot in &self.det_slots[lo..hi] {
                    let m = scratch.var_to_chk[slot as usize];
                    let sign_excl = total_sign * if m < 0.0 { -1.0 } else { 1.0 };
                    let mag_excl = if m.abs() <= min1 { min2 } else { min1 };
                    scratch.chk_to_var[slot as usize] = sign_excl * mag_excl.min(30.0);
                }
            }
            // Variable update.
            for e in 0..ne {
                let (lo, hi) = (self.error_off[e] as usize, self.error_off[e + 1] as usize);
                let total: f64 = self.priors[e] + scratch.chk_to_var[lo..hi].iter().sum::<f64>();
                for slot in lo..hi {
                    scratch.var_to_chk[slot] =
                        (total - scratch.chk_to_var[slot]).clamp(-30.0, 30.0);
                }
            }
        }

        scratch.posteriors.clear();
        scratch.posteriors.extend((0..ne).map(|e| {
            let (lo, hi) = (self.error_off[e] as usize, self.error_off[e + 1] as usize);
            (self.priors[e] + scratch.chk_to_var[lo..hi].iter().sum::<f64>()).clamp(-30.0, 30.0)
        }));
        &scratch.posteriors
    }

    /// Hard-decision decode: errors with negative posterior LLR are taken as
    /// fired; returns the XOR of their observable masks and whether the
    /// decision reproduces the syndrome exactly (BP converged).
    pub fn hard_decision(&self, dem: &DetectorErrorModel, defects: &[u32]) -> (u64, bool) {
        self.hard_decision_into(dem, defects, &mut BpScratch::default())
    }

    /// Like [`BeliefPropagation::hard_decision`], but reuses `scratch`.
    pub fn hard_decision_into(
        &self,
        dem: &DetectorErrorModel,
        defects: &[u32],
        scratch: &mut BpScratch,
    ) -> (u64, bool) {
        self.posteriors_into(defects, scratch);
        let mut obs = 0u64;
        scratch.parity.clear();
        scratch.parity.resize(self.num_detectors, false);
        for (e, llr) in scratch.posteriors.iter().enumerate() {
            if *llr < 0.0 {
                obs ^= dem.errors[e].observables;
                for &d in &dem.errors[e].detectors {
                    scratch.parity[d as usize] = !scratch.parity[d as usize];
                }
            }
        }
        // `scratch.syndrome` still holds the target syndrome.
        let converged = scratch.parity == scratch.syndrome;
        (obs, converged)
    }
}

/// Reusable working state for [`BpUnionFindDecoder`].
#[derive(Debug, Clone, Default)]
pub struct BpUfScratch {
    /// BP message and posterior buffers.
    pub bp: BpScratch,
    /// Union–find fallback scratch.
    pub uf: UfScratch,
}

/// Belief propagation with a union–find fallback: each syndrome first gets
/// BP's hard decision, which is returned when it reproduces the syndrome
/// exactly. Otherwise plain union–find decodes the syndrome on the static
/// graphlike decoding graph, whose weights come from the DEM's prior
/// probabilities; the BP posteriors do not re-weight it.
#[derive(Debug, Clone)]
pub struct BpUnionFindDecoder {
    bp: BeliefPropagation,
    /// The DEM the BP engine runs on (hyperedges intact) — hard decisions
    /// index into this model's error list.
    dem: DetectorErrorModel,
    base: UnionFindDecoder,
}

impl BpUnionFindDecoder {
    /// Builds the decoder from any DEM (hyperedges are decomposed for the
    /// union–find stage but kept intact for BP).
    pub fn new(dem: &DetectorErrorModel) -> Self {
        let bp = BeliefPropagation::new(dem);
        let (graph, _) = DecodingGraph::from_dem_decomposed(dem);
        Self {
            bp,
            dem: dem.clone(),
            base: UnionFindDecoder::new(graph),
        }
    }
}

impl Decoder for BpUnionFindDecoder {
    type Scratch = BpUfScratch;

    fn predict_into(&self, defects: &[u32], scratch: &mut BpUfScratch) -> u64 {
        if defects.is_empty() {
            return 0;
        }
        let (obs, converged) = self
            .bp
            .hard_decision_into(&self.dem, defects, &mut scratch.bp);
        if converged {
            return obs;
        }
        self.base.predict_into(defects, &mut scratch.uf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{self, tests::repetition, CircuitSampler, McConfig};
    use raa_stabsim::dem::DemError;

    fn chain_dem(n: usize, p: f64) -> DetectorErrorModel {
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
        DetectorErrorModel {
            num_detectors: n,
            num_observables: 1,
            errors,
        }
    }

    #[test]
    fn empty_syndrome_trivial() {
        let dem = chain_dem(4, 0.01);
        let d = BpUnionFindDecoder::new(&dem);
        assert_eq!(d.predict(&[]), 0);
    }

    #[test]
    fn bp_posterior_flags_fired_error() {
        // Single defect at node 0 of a chain: the boundary edge {0} is the
        // most likely explanation; its posterior LLR should go negative.
        let dem = chain_dem(4, 0.01);
        let bp = BeliefPropagation::new(&dem);
        let post = bp.posteriors(&[0]);
        assert!(
            post[0] < 0.0,
            "boundary edge should be blamed: posts = {post:?}"
        );
        // The interior edge {2,3} should stay positive (not blamed).
        assert!(post[3] > 0.0, "posts = {post:?}");
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let dem = chain_dem(6, 0.02);
        let d = BpUnionFindDecoder::new(&dem);
        let mut scratch = BpUfScratch::default();
        for syndrome in [vec![0u32], vec![], vec![1, 2], vec![5], vec![0, 1, 4, 5]] {
            assert_eq!(
                d.predict_into(&syndrome, &mut scratch),
                d.predict(&syndrome),
                "syndrome {syndrome:?}"
            );
        }
    }

    #[test]
    fn hard_decision_matches_unionfind_on_easy_syndromes() {
        let dem = chain_dem(6, 0.02);
        let d = BpUnionFindDecoder::new(&dem);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        let uf = UnionFindDecoder::new(graph);
        for syndrome in [vec![0u32], vec![1, 2], vec![5], vec![0, 1, 4, 5]] {
            assert_eq!(
                d.predict(&syndrome),
                uf.predict(&syndrome),
                "syndrome {syndrome:?}"
            );
        }
    }

    #[test]
    fn bp_uf_decodes_repetition_memory() {
        // End-to-end: BP+UF achieves a useful logical error rate on a noisy
        // repetition-code memory, comparable to plain union-find.
        let p = 0.06;
        let c = repetition(5, 3, p);

        let dem = DetectorErrorModel::from_circuit(&c);
        let bp_uf = BpUnionFindDecoder::new(&dem);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        let uf = UnionFindDecoder::new(graph);
        let sampler = CircuitSampler::new(&c);
        let cfg = McConfig::default();
        let r_bp = mc::logical_error_rate_sampled(&sampler, &bp_uf, 8_000, 9, &cfg)
            .unwrap()
            .logical_error_rate();
        let r_uf = mc::logical_error_rate_sampled(&sampler, &uf, 8_000, 9, &cfg)
            .unwrap()
            .logical_error_rate();
        assert!(
            r_bp <= r_uf * 1.3 + 0.01,
            "BP+UF {r_bp} should be comparable to UF {r_uf}"
        );
        assert!(r_bp < 0.5 * p, "decoding must beat the raw rate: {r_bp}");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_zero_iterations() {
        let _ = BeliefPropagation::new(&chain_dem(3, 0.01)).with_iterations(0);
    }
}
