//! Deep-circuit streaming anchors: the regime the paper's windowed
//! decoding (§II.4) exists for — memory sweeps at rounds ≥ 20·d and a deep
//! two-patch CNOT circuit — run through the time-sliced streaming
//! pipeline with resident syndrome memory bounded by the decoding window,
//! bit-identical across thread counts and against the whole-batch
//! reference entry point, with exact failure counts pinned. A separate
//! convergence suite pins windowed/streaming accuracy against
//! whole-circuit decoding as the buffer grows.
//!
//! Pinned counts depend on the vendored StdRng stream (`vendor/rand`) and
//! the per-layer stream derivation of the streaming pipeline — re-pin if
//! those change, investigate the pipeline if not.

use raa_decode::mc::{logical_error_rate_sampled, logical_error_rate_streamed, DecodeStats};
use raa_decode::{DecodingGraph, McConfig, UniformLayers, UnionFindDecoder, WindowedDecoder};
use raa_sim::{
    build_circuit, run, run_sweep, DecoderChoice, ExperimentSpec, Rounds, Scenario, ShotBudget,
    SweepGrid,
};
use raa_stabsim::{DetectorErrorModel, StreamingDemSampler, StreamingScratch};

/// Builds the memory circuit, DEM, streaming sampler and decoding graph of
/// a d-distance memory spec at `rounds` SE rounds.
fn memory_parts(
    d: u32,
    rounds: usize,
    p: f64,
) -> (DetectorErrorModel, StreamingDemSampler, DecodingGraph) {
    let mut spec = ExperimentSpec::new(
        "deep/memory",
        Scenario::Memory {
            rounds: Rounds::Fixed(rounds),
        },
        d,
    );
    spec.noise = raa_sim::NoiseModel::uniform(p);
    let circuit = build_circuit(&spec);
    let dem = DetectorErrorModel::from_circuit(&circuit);
    let dpl = (d * d - 1) as usize;
    assert_eq!(circuit.num_detectors() % dpl, 0, "uniform layering");
    let sampler = StreamingDemSampler::new(&dem, dpl);
    let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
    (dem, sampler, graph)
}

fn windowed(
    graph: DecodingGraph,
    dpl: usize,
    commit: usize,
    buffer: usize,
) -> WindowedDecoder<UniformLayers> {
    WindowedDecoder::new(
        graph,
        UniformLayers {
            detectors_per_layer: dpl,
        },
        commit,
        buffer,
    )
}

#[test]
fn deep_memory_anchor_streamed_pinned_and_bit_identical() {
    // d = 3 at rounds = 20·d = 60: the deep regime. The whole-batch path
    // would materialize 480 detectors per shot; the streaming path keeps a
    // two-layer window resident.
    let (_, sampler, graph) = memory_parts(3, 60, 3e-3);
    assert_eq!(sampler.num_layers(), 60);
    assert_eq!(sampler.num_detectors(), 480);
    let decoder = windowed(graph, 8, 2, 3);
    let seed = 0xDEE9;
    let shots = 4_000;

    // Resident syndrome memory is bounded by the window — the acceptance
    // assertion. Mechanisms of this circuit span at most two layers, so
    // three layers stay resident regardless of depth.
    assert_eq!(sampler.window_layers(), 3);
    assert_eq!(sampler.window_detectors(), 24);
    let mut scratch = StreamingScratch::default();
    sampler.start_batch(256, &mut scratch);
    assert_eq!(scratch.resident_detectors(), 24);
    assert!(scratch.resident_detectors() * 20 <= sampler.num_detectors());

    let base = logical_error_rate_streamed(
        &sampler,
        &decoder,
        shots,
        seed,
        &McConfig::default().with_threads(1),
    )
    .unwrap();
    // Exact pinned anchor (see module docs for the re-pin policy).
    assert_eq!(base.shots, shots);
    assert_eq!(
        base.failures, 590,
        "pinned d=3 rounds=60 failure count drifted"
    );

    // Bit-identical across thread counts.
    for threads in [2usize, 8] {
        let multi = logical_error_rate_streamed(
            &sampler,
            &decoder,
            shots,
            seed,
            &McConfig::default().with_threads(threads),
        )
        .unwrap();
        assert_eq!(base, multi, "threads = {threads}");
    }

    // Bit-identical against the whole-batch reference entry point (the
    // same time-sliced sampler through the Sampler trait, O(circuit)
    // memory instead of O(window)).
    let batch =
        logical_error_rate_sampled(&sampler, &decoder, shots, seed, &McConfig::default()).unwrap();
    assert_eq!(base, batch, "streaming vs batch entry point");
}

#[test]
fn deep_sweep_streams_through_engine() {
    // The engine-level deep sweep: rounds = 20·d via the scenario knob,
    // streaming toggled on the grid, bit-identical JSON across thread
    // counts, pinned failure counts.
    let grid = |threads: usize| {
        SweepGrid::new(
            "deep/sweep",
            Scenario::Memory {
                rounds: Rounds::TimesDistance(20),
            },
        )
        .with_distances(vec![3])
        .with_p_phys(vec![4e-3])
        .with_decoders(vec![DecoderChoice::Windowed {
            commit: 2,
            buffer: 3,
        }])
        .with_streaming(true)
        .with_shots(ShotBudget::Fixed(2_000))
        .with_seed(0xDEE7)
        .with_mc(McConfig::default().with_threads(threads))
    };
    let base = run_sweep(&grid(1));
    assert_eq!(base.len(), 1);
    assert_eq!(base[0].se_rounds, 60);
    assert!(base[0].to_json().contains("\"streaming\":true"));
    assert_eq!(base[0].shots, 2_000);
    assert_eq!(
        base[0].failures, 432,
        "pinned deep-sweep failure count drifted"
    );
    for threads in [2usize, 8] {
        let multi = run_sweep(&grid(threads));
        assert_eq!(base[0].to_json(), multi[0].to_json(), "threads = {threads}");
    }
}

#[test]
fn deep_cnot_anchor_streamed_pinned_across_thread_counts() {
    // A streamed two-patch deep CNOT through the engine: 80 rounds at
    // d = 3 give 40 window positions of a 2 + 5 window, and the random
    // CNOT directions make every window's neighbourhood of the graph
    // different from the others'.
    let spec = |threads: usize| {
        let mut spec = ExperimentSpec::new(
            "deep/cnot",
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::Fixed(80),
                cnots_per_round: 1.0,
            },
            3,
        );
        spec.noise = raa_sim::NoiseModel::uniform(1e-3);
        spec.shots = ShotBudget::Fixed(2_000);
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 5,
        };
        spec.streaming = true;
        spec.seed = 0xDC07;
        spec.mc = McConfig::default().with_threads(threads);
        spec
    };
    let base = run(&spec(1));
    assert_eq!(base.se_rounds, 80);
    assert_eq!(base.cnots, 79);
    assert_eq!(base.shots, 2_000);
    assert_eq!(
        base.failures, 801,
        "pinned d=3 deep-CNOT failure count drifted"
    );
    for threads in [2usize, 8] {
        let multi = run(&spec(threads));
        assert_eq!(base.to_json(), multi.to_json(), "threads = {threads}");
    }
}

/// Streams a windowed decode at the given buffer and returns its stats.
fn streamed_at_buffer(
    sampler: &StreamingDemSampler,
    graph: &DecodingGraph,
    dpl: usize,
    buffer: usize,
    shots: usize,
    seed: u64,
) -> DecodeStats {
    let decoder = windowed(graph.clone(), dpl, 2, buffer);
    logical_error_rate_streamed(sampler, &decoder, shots, seed, &McConfig::default()).unwrap()
}

#[test]
fn convergence_to_whole_circuit_with_buffer_d3() {
    // Windowed/streaming vs whole-circuit decoding on the *same* sampled
    // realizations (same time-sliced sampler, same seed): accuracy
    // approaches whole-circuit decoding as the buffer grows, reaching it
    // exactly once the window covers the circuit.
    let (_, sampler, graph) = memory_parts(3, 12, 6e-3);
    let uf = UnionFindDecoder::new(graph.clone());
    let shots = 3_000;
    let seed = 0xC0117;
    let global =
        logical_error_rate_sampled(&sampler, &uf, shots, seed, &McConfig::default()).unwrap();
    assert_eq!(global.failures, 301, "pinned whole-circuit count drifted");

    let buffers = [0usize, 1, 2, 4, 8, 10];
    let failures: Vec<usize> = buffers
        .iter()
        .map(|&b| {
            let stats = streamed_at_buffer(&sampler, &graph, 8, b, shots, seed);
            assert_eq!(stats.shots, shots);
            stats.failures
        })
        .collect();
    // Exact pinned counts per buffer size (windowed decoding is
    // deterministic given the realizations).
    assert_eq!(
        failures,
        vec![441, 319, 316, 303, 301, 301],
        "pinned per-buffer failure counts drifted"
    );
    // Accuracy approaches whole-circuit decoding as the buffer grows...
    let gap_first = failures[0].abs_diff(global.failures);
    let gap_last = failures[buffers.len() - 2].abs_diff(global.failures);
    assert!(gap_last <= gap_first, "buffer growth must close the gap");
    // ...and reaches it exactly when the window covers every layer
    // (commit 2 + buffer 10 ≥ 12 layers → global fallback).
    assert_eq!(failures[buffers.len() - 1], global.failures);
}

#[test]
fn convergence_to_whole_circuit_with_buffer_d5() {
    let (_, sampler, graph) = memory_parts(5, 10, 6e-3);
    let uf = UnionFindDecoder::new(graph.clone());
    let shots = 2_000;
    let seed = 0xC0115;
    let global =
        logical_error_rate_sampled(&sampler, &uf, shots, seed, &McConfig::default()).unwrap();
    assert_eq!(global.failures, 111, "pinned whole-circuit count drifted");

    let buffers = [0usize, 2, 4, 8];
    let failures: Vec<usize> = buffers
        .iter()
        .map(|&b| streamed_at_buffer(&sampler, &graph, 24, b, shots, seed).failures)
        .collect();
    assert_eq!(
        failures,
        vec![415, 152, 117, 111],
        "pinned per-buffer failure counts drifted"
    );
    // commit 2 + buffer 8 ≥ 10 layers → exact whole-circuit decoding.
    assert_eq!(failures[buffers.len() - 1], global.failures);
    let gap_first = failures[0].abs_diff(global.failures);
    let gap_mid = failures[1].abs_diff(global.failures);
    assert!(gap_mid <= gap_first, "buffer growth must close the gap");
}
