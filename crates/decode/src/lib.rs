//! QEC decoders for the transversal-architecture reproduction.
//!
//! Decoding turns sampled detector data into predicted logical-observable
//! flips. This crate provides, built from scratch:
//!
//! * [`graph`] — decoding graphs from detector error models (boundary edges,
//!   log-likelihood weights, per-edge observable masks);
//! * [`unionfind`] — a weighted union–find decoder with peeling, the fast
//!   workhorse for threshold-scale Monte Carlo;
//! * [`matching`] — exact minimum-weight perfect matching for small defect
//!   components, the MLE-like accuracy reference used to calibrate the
//!   paper's decoding factor α: path costs come from all-pairs tables built
//!   once per graph (a decode searches the graph only when it has none),
//!   and a subset DP solves just the F(g+2) subsets of a g-defect component
//!   its pairing can reach, with every decision of a full 2^g fill;
//! * [`bp`] — min-sum belief propagation, and a BP+UF decoder that returns
//!   BP's hard decision when it reproduces the syndrome and otherwise runs
//!   plain union–find on the static decoding graph;
//! * [`windowed`] — sliding-window decoding over the circuit's time axis,
//!   with commit/buffer syndrome projection and an incremental streaming
//!   session;
//! * [`mc`] — the sample → decode → compare Monte-Carlo harness, sharded
//!   across threads with deterministic per-batch seeding; sampling goes
//!   through the [`mc::Sampler`] trait (gate-level [`mc::CircuitSampler`]
//!   or the compiled-DEM fast path of [`raa_stabsim::DemSampler`]), and
//!   deep circuits stream one time layer at a time through
//!   [`mc::logical_error_rate_streamed`] with O(window) resident memory.
//!
//! Correlated decoding across transversal gates (paper §II.4) needs no
//! special machinery here: the decoding graph is built from the DEM of the
//! *joint* multi-patch circuit, so error mechanisms spanning patches become
//! ordinary edges.
//!
//! # The scratch-based decoding API
//!
//! Threshold-scale Monte Carlo decodes millions of syndromes, and the cost
//! of allocating per-call working state (union–find cluster tables, Dijkstra
//! heaps, DP tables, BP message buffers) dominates small-syndrome decodes.
//! The [`Decoder`] trait therefore splits state from logic:
//!
//! * every decoder has an associated [`Decoder::Scratch`] type holding all
//!   of its mutable working state, constructed with `Default::default()`
//!   and lazily sized to the decoder's graph on first use;
//! * [`Decoder::predict_into`] decodes one syndrome using a caller-provided
//!   scratch; in steady state it performs **no heap allocation**;
//! * [`Decoder::predict`] remains as a convenience wrapper that builds a
//!   fresh scratch per call — fine for one-off decodes, wasteful in loops.
//!
//! # The batch decode contract
//!
//! [`Decoder::predict_batch_into`] decodes a whole bit-packed
//! [`raa_stabsim::SyndromeBatch`] in one call. Its contract: shot `s` of the
//! output equals what [`Decoder::predict_into`] returns for shot `s`'s
//! extracted defect list — batching changes execution strategy (epoch-tagged
//! scratch reset, word-skipping defect extraction, a graph precompiled into
//! flat arenas), never decisions, so results are **bit-identical** to the
//! per-shot path. The Monte-Carlo harness exploits this to fuse sampling and
//! decoding in L1-resident blocks when the sampler advertises a block size
//! via [`mc::Sampler::fusion_block`]: [`raa_stabsim::DemSampler`] emits
//! shots in 512-shot blocks whose bit streams do not depend on how the batch
//! is chunked, so fused decoding reproduces whole-batch `DecodeStats`
//! exactly; samplers without that guarantee (the gate-level
//! [`mc::CircuitSampler`], the streaming sampler) simply decline fusion and
//! keep the materialize-then-decode path.
//!
//! Hot loops keep one scratch per thread:
//!
//! ```
//! use raa_stabsim::dem::{DemError, DetectorErrorModel};
//! use raa_decode::{graph::DecodingGraph, unionfind::UnionFindDecoder, Decoder};
//!
//! let dem = DetectorErrorModel {
//!     num_detectors: 2,
//!     num_observables: 1,
//!     errors: vec![
//!         DemError { probability: 0.01, detectors: vec![0], observables: 1 },
//!         DemError { probability: 0.01, detectors: vec![0, 1], observables: 0 },
//!         DemError { probability: 0.01, detectors: vec![1], observables: 0 },
//!     ],
//! };
//! let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&dem).unwrap());
//! let mut scratch = Default::default();
//! for syndrome in [vec![0u32], vec![0, 1], vec![]] {
//!     let _mask = decoder.predict_into(&syndrome, &mut scratch);
//! }
//! ```
//!
//! # Example
//!
//! ```
//! use raa_stabsim::{Circuit, MeasRecord, DetectorErrorModel};
//! use raa_decode::{graph::DecodingGraph, unionfind::UnionFindDecoder, Decoder, mc};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut c = Circuit::new();
//! c.r(&[0, 1, 2, 3, 4]);
//! c.x_error(&[0, 2, 4], 0.02);
//! c.cx(&[(0, 1), (2, 1), (2, 3), (4, 3)]);
//! c.mr(&[1, 3]);
//! c.detector(&[MeasRecord::back(2)]);
//! c.detector(&[MeasRecord::back(1)]);
//! c.m(&[0, 2, 4]);
//! c.observable_include(0, &[MeasRecord::back(3)]);
//!
//! let dem = DetectorErrorModel::from_circuit(&c);
//! let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&dem)?);
//! let stats = mc::logical_error_rate(&c, &decoder, 10_000, &mut StdRng::seed_from_u64(7));
//! assert!(stats.logical_error_rate() < 0.02);
//! # Ok::<(), raa_decode::graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]

pub mod bp;
pub mod graph;
pub mod matching;
pub mod mc;
pub mod unionfind;
pub mod windowed;

pub use bp::{BeliefPropagation, BpUfScratch, BpUnionFindDecoder};
pub use graph::{CompiledGraph, DecodingGraph, Edge, GraphError};
pub use matching::{MatchScratch, MatchingDecoder};
pub use mc::{CircuitSampler, DecodeStats, McConfig, McError, Sampler, SeedPolicy};
pub use unionfind::{UfScratch, UnionFindDecoder, UnionFindOutcome};
pub use windowed::{
    LayerAssignment, UniformLayers, WindowError, WindowScratch, WindowState, WindowedDecoder,
};

use raa_stabsim::SyndromeBatch;

/// A syndrome decoder: predicts which logical observables flipped.
///
/// Implementations separate immutable decoding state (the graph, weights,
/// priors — owned by the decoder) from per-call working state (owned by a
/// [`Decoder::Scratch`]), so hot loops can decode millions of syndromes
/// without per-shot allocation. See the crate docs for the pattern.
pub trait Decoder {
    /// Reusable working state; `Default::default()` yields an empty scratch
    /// that is lazily sized to this decoder on first use.
    type Scratch: Default + Send;

    /// Predicts the observable-flip mask for the given fired detectors,
    /// reusing `scratch` for all working state.
    ///
    /// Steady state (after the scratch has grown to the decoder's problem
    /// size) performs no heap allocation.
    fn predict_into(&self, defects: &[u32], scratch: &mut Self::Scratch) -> u64;

    /// Predicts the observable-flip mask for the given fired detectors.
    ///
    /// Convenience wrapper building a fresh scratch per call; prefer
    /// [`Decoder::predict_into`] in loops.
    fn predict(&self, defects: &[u32]) -> u64 {
        self.predict_into(defects, &mut Self::Scratch::default())
    }

    /// Decodes every shot of a bit-packed [`SyndromeBatch`], pushing one
    /// predicted observable mask per shot into `out` (cleared first).
    ///
    /// **Contract:** shot `s` of `out` must equal what
    /// [`Decoder::predict_into`] returns for the defect list extracted from
    /// shot `s` — batching is an execution strategy, never a semantic
    /// change. The provided implementation decodes shot by shot through
    /// `predict_into`; decoders with batch-friendly internals (the
    /// union–find decoder's epoch-tagged scratch) override it to amortize
    /// per-shot reset costs while preserving the same results bit for bit.
    fn predict_batch_into(
        &self,
        syndromes: &SyndromeBatch,
        out: &mut Vec<u64>,
        scratch: &mut Self::Scratch,
    ) {
        out.clear();
        let mut defects = Vec::new();
        for s in 0..syndromes.num_shots() {
            syndromes.fired_into(s, &mut defects);
            out.push(self.predict_into(&defects, scratch));
        }
    }
}
