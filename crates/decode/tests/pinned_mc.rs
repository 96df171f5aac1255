//! The exact `(shots, failures)` of the public Monte-Carlo estimators on one
//! small memory circuit, pinned row by row.
//!
//! Each row is one decoder × sampling path × shot budget. Every row runs
//! at 1, 2 and 8 threads and must give the same numbers at each, and the
//! same numbers as the pinned table: a refactor of the batch runner that
//! moves a per-batch seed, the batch size, the batch-order merge or the
//! early-stop prefix fails here. The matrix covers what no engine anchor
//! pins: the gate-level sampler under an early stop, the streamed early
//! stop, a failure target of 0, an empty budget and a partial batch.

use raa_decode::mc::{self, CircuitSampler, DecodeStats, McConfig, Sampler, ShotBudget};
use raa_decode::{Decoder, DecodingGraph, UniformLayers, UnionFindDecoder, WindowedDecoder};
use raa_stabsim::{Circuit, DemSampler, DetectorErrorModel, MeasRecord, StreamingDemSampler};

const DISTANCE: usize = 3;
const ROUNDS: usize = 12;
const P: f64 = 0.015;
const SEED: u64 = 0x5EED_2026;

/// A distance-`d` bit-flip repetition memory: data flips before every
/// round, ancilla flips before every measurement, and a final transversal
/// readout. Detectors come in uniform layers of `d − 1` per round.
fn repetition_memory(d: usize, rounds: usize, p: f64) -> Circuit {
    let data: Vec<u32> = (0..d as u32).map(|i| 2 * i).collect();
    let anc: Vec<u32> = (0..d as u32 - 1).map(|i| 2 * i + 1).collect();
    let n_anc = anc.len();
    let mut c = Circuit::new();
    c.r(&(0..2 * d as u32 - 1).collect::<Vec<_>>());
    for round in 0..rounds {
        c.x_error(&data, p);
        let pairs: Vec<(u32, u32)> = (0..n_anc)
            .flat_map(|i| [(data[i], anc[i]), (data[i + 1], anc[i])])
            .collect();
        c.cx(&pairs);
        c.x_error(&anc, p);
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
            MeasRecord::back(d - i),
            MeasRecord::back(d - i - 1),
            MeasRecord::back(d + n_anc - i),
        ]);
    }
    c.observable_include(0, &[MeasRecord::back(d)]);
    c
}

/// Every budget shape of the matrix: a full run of 11 whole batches plus
/// a partial one, an early stop that lands mid-run, a failure target of
/// 0 (one batch), an empty budget and a single partial batch.
const BUDGETS: [(&str, ShotBudget); 5] = [
    ("fixed3000", ShotBudget::Fixed(3_000)),
    (
        "until40",
        ShotBudget::UntilFailures {
            max_shots: 3_000,
            target_failures: 40,
        },
    ),
    (
        "until0",
        ShotBudget::UntilFailures {
            max_shots: 3_000,
            target_failures: 0,
        },
    ),
    ("fixed0", ShotBudget::Fixed(0)),
    ("fixed100", ShotBudget::Fixed(100)),
];

fn sampled<S: Sampler, D: Decoder + Sync>(
    sampler: &S,
    decoder: &D,
    budget: ShotBudget,
    cfg: &McConfig,
) -> DecodeStats {
    mc::logical_error_rate_sampled(sampler, decoder, budget, SEED, cfg)
        .expect("a small explicit pool builds")
}

fn streamed(
    sampler: &StreamingDemSampler,
    decoder: &WindowedDecoder<UniformLayers>,
    budget: ShotBudget,
    cfg: &McConfig,
) -> DecodeStats {
    mc::logical_error_rate_streamed(sampler, decoder, budget, SEED, cfg)
        .expect("a small explicit pool builds")
}

/// Runs the whole matrix at one thread count: `(row label, stats)` in a
/// fixed order.
fn matrix(threads: usize) -> Vec<(String, DecodeStats)> {
    let circuit = repetition_memory(DISTANCE, ROUNDS, P);
    let dem = DetectorErrorModel::from_circuit(&circuit);
    let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
    let layers = UniformLayers {
        detectors_per_layer: DISTANCE - 1,
    };
    let uf = UnionFindDecoder::new(graph.clone());
    let windowed = WindowedDecoder::new(graph, layers, 2, 2);
    let circuit_sampler = CircuitSampler::new(&circuit);
    let dem_sampler = DemSampler::new(&dem);
    let stream_sampler = StreamingDemSampler::new(&dem, DISTANCE - 1);
    let cfg = McConfig::default().with_threads(threads);

    let mut rows = Vec::new();
    for (name, budget) in BUDGETS {
        let mut row = |label: &str, stats: DecodeStats| {
            rows.push((format!("{label}/{name}"), stats));
        };
        row("uf/circuit", sampled(&circuit_sampler, &uf, budget, &cfg));
        row("uf/dem", sampled(&dem_sampler, &uf, budget, &cfg));
        row(
            "uf/stream_batch",
            sampled(&stream_sampler, &uf, budget, &cfg),
        );
        row(
            "window/circuit",
            sampled(&circuit_sampler, &windowed, budget, &cfg),
        );
        row("window/dem", sampled(&dem_sampler, &windowed, budget, &cfg));
        row(
            "window/stream_batch",
            sampled(&stream_sampler, &windowed, budget, &cfg),
        );
        row(
            "window/streamed",
            streamed(&stream_sampler, &windowed, budget, &cfg),
        );
    }
    rows
}

/// `(row, shots, failures)`, recorded from the estimators before their
/// batch runners were folded into one.
const PINNED: &[(&str, usize, usize)] = &[
    ("uf/circuit/fixed3000", 3000, 59),
    ("uf/dem/fixed3000", 3000, 66),
    ("uf/stream_batch/fixed3000", 3000, 56),
    ("window/circuit/fixed3000", 3000, 58),
    ("window/dem/fixed3000", 3000, 65),
    ("window/stream_batch/fixed3000", 3000, 59),
    ("window/streamed/fixed3000", 3000, 59),
    ("uf/circuit/until40", 2048, 44),
    ("uf/dem/until40", 1536, 43),
    ("uf/stream_batch/until40", 2048, 40),
    ("window/circuit/until40", 2048, 44),
    ("window/dem/until40", 1536, 42),
    ("window/stream_batch/until40", 2048, 42),
    ("window/streamed/until40", 2048, 42),
    ("uf/circuit/until0", 256, 5),
    ("uf/dem/until0", 256, 9),
    ("uf/stream_batch/until0", 256, 4),
    ("window/circuit/until0", 256, 4),
    ("window/dem/until0", 256, 9),
    ("window/stream_batch/until0", 256, 5),
    ("window/streamed/until0", 256, 5),
    ("uf/circuit/fixed0", 0, 0),
    ("uf/dem/fixed0", 0, 0),
    ("uf/stream_batch/fixed0", 0, 0),
    ("window/circuit/fixed0", 0, 0),
    ("window/dem/fixed0", 0, 0),
    ("window/stream_batch/fixed0", 0, 0),
    ("window/streamed/fixed0", 0, 0),
    ("uf/circuit/fixed100", 100, 4),
    ("uf/dem/fixed100", 100, 0),
    ("uf/stream_batch/fixed100", 100, 0),
    ("window/circuit/fixed100", 100, 5),
    ("window/dem/fixed100", 100, 0),
    ("window/stream_batch/fixed100", 100, 0),
    ("window/streamed/fixed100", 100, 0),
];

#[test]
fn monte_carlo_matrix_is_pinned_at_every_thread_count() {
    let base = matrix(1);
    for threads in [2usize, 8] {
        assert_eq!(matrix(threads), base, "threads = {threads}");
    }
    let got: Vec<(&str, usize, usize)> = base
        .iter()
        .map(|(label, s)| (label.as_str(), s.shots, s.failures))
        .collect();
    assert_eq!(got, PINNED);
}
