//! Property tests of the batch and streaming decode contracts.
//!
//! On random graphlike DEMs, `predict_batch_into` must agree shot for
//! shot with extracting each shot's defects and calling `predict_into` —
//! the batched union–find (compiled graph, epoch-tagged scratch reset,
//! word-skipping defect extraction) is an execution strategy, never a
//! semantic change.
//!
//! On random *layered* DEMs, the streamed window-major Monte-Carlo entry
//! point must reproduce the whole-batch entry point bit for bit, for any
//! commit/buffer geometry and any thread count, and a windowed decode of
//! a defect pair straddling a commit boundary must match one whole-circuit
//! union–find pass.

use proptest::prelude::*;
use raa_decode::mc::{self, McConfig};
use raa_decode::{Decoder, DecodingGraph, UniformLayers, UnionFindDecoder, WindowedDecoder};
use raa_stabsim::dem::{DemError, DetectorErrorModel};
use raa_stabsim::{StreamingDemSampler, SyndromeBatch};

/// Builds a graphlike DEM over `nd ≤ 8` detectors from raw draws: every
/// mechanism touches one detector (a boundary edge) or two (an internal
/// edge), with varied probabilities (hence varied quantized weights) and
/// small observable masks.
fn build_dem(nd: usize, raw: &[(f64, u8, u8, u64)]) -> DetectorErrorModel {
    let errors = raw
        .iter()
        .map(|&(p, a, b, obs)| {
            let a = a as usize % nd;
            // One extra slot in b's range selects a boundary edge.
            let b = b as usize % (nd + 1);
            let detectors = if b == nd || b == a {
                vec![a as u32]
            } else {
                vec![a as u32, b as u32]
            };
            DemError {
                probability: p,
                detectors,
                observables: obs,
            }
        })
        .collect();
    DetectorErrorModel {
        num_detectors: nd,
        num_observables: 2,
        errors,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_unionfind_matches_per_shot(
        nd in 1usize..=8,
        raw_errors in collection::vec((0.01f64..0.45, any::<u8>(), any::<u8>(), 0u64..4), 1..=20),
        shot_bits in collection::vec(any::<u8>(), 1..80),
    ) {
        let dem = build_dem(nd, &raw_errors);
        let graph = DecodingGraph::from_dem(&dem).unwrap();
        let decoder = UnionFindDecoder::new(graph);

        // Pack the random shots into a bit-packed batch.
        let mut batch = SyndromeBatch::default();
        batch.reset(shot_bits.len(), nd);
        for (s, &bits) in shot_bits.iter().enumerate() {
            for d in 0..nd {
                if bits & (1 << d) != 0 {
                    batch.set_detector(s, d);
                }
            }
        }

        let mut scratch = Default::default();
        let mut batched = Vec::new();
        decoder.predict_batch_into(&batch, &mut batched, &mut scratch);
        prop_assert_eq!(batched.len(), shot_bits.len());

        // Reference: extract each shot's defects, decode one at a time
        // through the same scratch (interleaving exercises the epoch reset).
        let mut defects = Vec::new();
        for (s, &predicted) in batched.iter().enumerate() {
            batch.fired_into(s, &mut defects);
            let reference = decoder.predict_into(&defects, &mut scratch);
            prop_assert_eq!(predicted, reference, "shot {}", s);
        }
    }
}

/// Builds a random *layered* graphlike DEM: `layers` blocks of `dpl`
/// detectors, every mechanism confined to one layer or crossing to the
/// next (edge layer span ≤ 1), so `UniformLayers` applies and the windowed
/// decoder slides over it.
fn build_layered_dem(dpl: usize, layers: usize, raw: &[(f64, u16, u8, u64)]) -> DetectorErrorModel {
    let nd = dpl * layers;
    let errors = raw
        .iter()
        .map(|&(p, a, kind, obs)| {
            let a = a as usize % nd;
            let detectors = match kind % 3 {
                // Boundary edge.
                0 => vec![a as u32],
                // Horizontal edge within the layer (or boundary at the rim).
                1 if (a % dpl) + 1 < dpl => vec![a as u32, a as u32 + 1],
                // Vertical edge into the next layer (or boundary at the top).
                2 if a + dpl < nd => vec![a as u32, (a + dpl) as u32],
                _ => vec![a as u32],
            };
            DemError {
                probability: p,
                detectors,
                observables: obs,
            }
        })
        .collect();
    DetectorErrorModel {
        num_detectors: nd,
        num_observables: 2,
        errors,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streamed (window-major) vs whole-batch decoding on random layered
    /// DEMs: identical `DecodeStats` across entry points and 1/2/8 decode
    /// threads.
    #[test]
    fn streamed_matches_batch_on_random_layered_dems(
        dpl in 2usize..=4,
        layers in 6usize..=10,
        commit in 1usize..=3,
        buffer in 1usize..=3,
        raw_errors in collection::vec(
            (0.02f64..0.3, any::<u16>(), any::<u8>(), 0u64..4),
            4..=40,
        ),
        seed in 0u64..1_000,
    ) {
        let dem = build_layered_dem(dpl, layers, &raw_errors);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        let sampler = StreamingDemSampler::new(&dem, dpl);
        let layering = UniformLayers { detectors_per_layer: dpl };
        let decoder = WindowedDecoder::new(graph, layering, commit, buffer);
        let shots = 48usize;
        let cfg1 = McConfig::single_threaded();

        let streamed = mc::logical_error_rate_streamed(&sampler, &decoder, shots, seed, &cfg1)
            .expect("single-threaded runs use the ambient pool");
        let batch = mc::logical_error_rate_sampled(&sampler, &decoder, shots, seed, &cfg1)
            .expect("single-threaded runs use the ambient pool");
        prop_assert_eq!(streamed, batch, "streamed vs batch entry point");

        for threads in [2usize, 8] {
            let cfg = McConfig::default().with_threads(threads);
            let multi = mc::logical_error_rate_streamed(&sampler, &decoder, shots, seed, &cfg)
                .expect("dedicated pool build");
            prop_assert_eq!(streamed, multi, "threads = {}", threads);
        }
    }
}

/// Head, bulk and tail windows against whole-circuit decoding: every
/// vertically adjacent defect pair — including the pairs that straddle
/// each window commit boundary — must decode to the same observable mask
/// through the windowed path as through one global union–find pass.
#[test]
fn window_straddling_pairs_agree_with_full_graph_decode() {
    let dpl = 3usize;
    let layers = 12usize;
    // A 3-wide strip: horizontal chains with boundary exits at both rim
    // columns, vertical edges between consecutive layers, observable on
    // the left boundary column.
    let mut errors = Vec::new();
    for l in 0..layers {
        let base = (l * dpl) as u32;
        errors.push(DemError {
            probability: 0.01,
            detectors: vec![base],
            observables: 1,
        });
        for c in 0..dpl - 1 {
            errors.push(DemError {
                probability: 0.02,
                detectors: vec![base + c as u32, base + c as u32 + 1],
                observables: 0,
            });
        }
        errors.push(DemError {
            probability: 0.01,
            detectors: vec![base + dpl as u32 - 1],
            observables: 0,
        });
        if l + 1 < layers {
            for c in 0..dpl {
                errors.push(DemError {
                    probability: 0.015,
                    detectors: vec![base + c as u32, base + (dpl + c) as u32],
                    observables: 0,
                });
            }
        }
    }
    let dem = DetectorErrorModel {
        num_detectors: dpl * layers,
        num_observables: 1,
        errors,
    };
    let graph = DecodingGraph::from_dem(&dem).unwrap();
    let global = UnionFindDecoder::new(graph.clone());
    let layering = UniformLayers {
        detectors_per_layer: dpl,
    };
    for (commit, buffer) in [(1usize, 1usize), (1, 2), (2, 3), (3, 2)] {
        let windowed = WindowedDecoder::new(graph.clone(), layering, commit, buffer);
        for l in 0..layers - 1 {
            for c in 0..dpl {
                let d0 = (l * dpl + c) as u32;
                let d1 = d0 + dpl as u32;
                assert_eq!(
                    windowed.predict(&[d0, d1]),
                    global.predict(&[d0, d1]),
                    "window (c={commit}, b={buffer}) diverged on pair ({d0}, {d1})"
                );
            }
        }
    }
}
