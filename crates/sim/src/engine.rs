//! The experiment engine: spec → circuit → DEM → decoder → statistics.
//!
//! [`run`] is a pure function of its [`ExperimentSpec`]: the spec seed
//! drives both circuit construction (random CNOT directions in the
//! transversal scenario) and the Monte-Carlo decode streams through
//! independent derived streams, and decoding goes through the
//! deterministically-sharded pipeline of [`raa_decode::mc`], so the result
//! is bit-identical for any thread count (the only setting in `spec.mc`).

use crate::record::ExperimentRecord;
use crate::spec::{DecoderChoice, ExperimentSpec, SamplerChoice, Scenario, ShotBudget, SweepGrid};
use raa_decode::mc::{self, CircuitSampler, DecodeStats, McError};
use raa_decode::{
    BpUnionFindDecoder, Decoder, DecodingGraph, MatchingDecoder, McConfig, UniformLayers,
    UnionFindDecoder, WindowedDecoder,
};
use raa_stabsim::{Circuit, DemSampler, DetectorErrorModel, StreamingDemSampler};
use raa_surface::{
    Code832MemoryExperiment, GhzFanoutExperiment, MemoryExperiment, ScheduledCnotExperiment,
    TransversalCnotExperiment,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Stream tag for circuit construction randomness.
const CIRCUIT_STREAM: u64 = 0xC1;
/// Stream tag for the Monte-Carlo decode seed.
const DECODE_STREAM: u64 = 0xDEC0;

/// Derives an independent seed for a stream or grid point from a base
/// seed, via the shared SplitMix64-style [`raa_decode::mc::mix_seed`] (the
/// same construction as the per-batch decode streams).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mc::mix_seed(seed, stream)
}

/// Builds the noisy circuit a spec describes (deterministic in the spec).
pub fn build_circuit(spec: &ExperimentSpec) -> Circuit {
    match spec.scenario {
        Scenario::Memory { rounds } => MemoryExperiment {
            distance: spec.distance,
            rounds: rounds.resolve(spec.distance),
            basis: spec.basis,
            noise: spec.noise,
        }
        .build(),
        Scenario::TransversalCnot { .. } | Scenario::DeepCnot { .. } => {
            let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, CIRCUIT_STREAM));
            cnot_experiment(spec).build(&mut rng)
        }
        Scenario::GhzFanout { targets } => GhzFanoutExperiment {
            distance: spec.distance,
            targets,
            noise: spec.noise,
        }
        .build(),
        Scenario::MagicFactory { .. } | Scenario::Gadget { .. } => {
            scheduled_experiment(spec).build()
        }
        Scenario::Code832Memory { rounds } => {
            assert_eq!(
                spec.distance, 2,
                "code832_memory is a fixed [[8,3,2]] block: the spec distance must be 2"
            );
            Code832MemoryExperiment {
                rounds: rounds.resolve(spec.distance),
                noise: spec.noise,
            }
            .build()
        }
    }
}

/// The [`ScheduledCnotExperiment`] behind a factory or gadget spec: the
/// protocol's (or gadget's) cycled CNOT layer schedule, one layer per SE
/// round, at the spec's distance, basis and noise.
fn scheduled_experiment(spec: &ExperimentSpec) -> ScheduledCnotExperiment {
    let (patches, schedule, rounds) = match spec.scenario {
        Scenario::MagicFactory { protocol, rounds } => {
            (protocol.patches(), protocol.schedule(), rounds)
        }
        Scenario::Gadget {
            kind,
            width,
            rounds,
        } => (kind.patches(width), kind.schedule(width), rounds),
        _ => unreachable!("only called for factory/gadget specs"),
    };
    ScheduledCnotExperiment {
        distance: spec.distance,
        patches,
        schedule,
        rounds: rounds.resolve(spec.distance),
        basis: spec.basis,
        noise: spec.noise,
    }
}

/// The SE rounds a [`Scenario::DeepCnot`] schedule of `depth` CNOTs at `x`
/// CNOTs per round emits: one after initialization plus `⌈depth / x⌉`.
/// The step wraps, as in a release build, so it is total on any spec.
fn deep_cnot_rounds(depth: usize, x: f64) -> usize {
    1usize.wrapping_add((depth as f64 / x).ceil() as usize)
}

/// The schedule of a [`Scenario::DeepCnot`] circuit given `rounds` SE
/// rounds at `x` CNOTs per round: its CNOT depth, the largest whose
/// schedule ([`deep_cnot_rounds`]) fits in `rounds`, and the SE rounds
/// that schedule emits, which is exactly `rounds` whenever
/// `(rounds − 1) · x` is an integer. `None` below two rounds or when not
/// even one CNOT fits. Its integer steps wrap, as in a release build, so
/// the cache's echo guard can call it on any spec without a panic.
pub(crate) fn deep_cnot_schedule(rounds: usize, x: f64) -> Option<(usize, usize)> {
    if rounds < 2 {
        return None;
    }
    // Start one above the float floor (guarding rounding dirt in the
    // product), then step down until the schedule fits the round budget.
    let mut depth = ((((rounds - 1) as f64) * x).floor() as usize).wrapping_add(1);
    while depth > 1 && deep_cnot_rounds(depth, x) > rounds {
        depth -= 1;
    }
    let used = deep_cnot_rounds(depth, x);
    (used <= rounds).then_some((depth, used))
}

/// The [`TransversalCnotExperiment`] behind a transversal- or deep-CNOT
/// spec. A deep-CNOT spec's round count is the knob, and its CNOT depth is
/// derived from it by [`deep_cnot_schedule`].
///
/// # Panics
///
/// Panics if a deep-CNOT spec resolves to fewer rounds than one CNOT needs
/// (at least 2; 3 at x = 1/2), naming the rounds needed.
fn cnot_experiment(spec: &ExperimentSpec) -> TransversalCnotExperiment {
    let (patches, depth, cnots_per_round) = match spec.scenario {
        Scenario::TransversalCnot {
            patches,
            depth,
            cnots_per_round,
        } => (patches, depth, cnots_per_round),
        Scenario::DeepCnot {
            patches,
            rounds,
            cnots_per_round,
        } => {
            let total_rounds = rounds.resolve(spec.distance);
            let (depth, _) =
                deep_cnot_schedule(total_rounds, cnots_per_round).unwrap_or_else(|| {
                    let needed = deep_cnot_rounds(1, cnots_per_round).max(2);
                    panic!(
                        "deep-CNOT at {cnots_per_round} CNOTs per round needs at least \
                         {needed} SE rounds for one CNOT, got {total_rounds}"
                    )
                });
            (patches, depth, cnots_per_round)
        }
        _ => unreachable!("only called for transversal- and deep-CNOT specs"),
    };
    TransversalCnotExperiment {
        distance: spec.distance,
        patches,
        depth,
        cnots_per_round,
        basis: spec.basis,
        noise: spec.noise,
    }
}

/// Runs the spec's shot budget through its chosen sampling path. The DEM
/// path compiles the engine's already-extracted `dem` (no second
/// extraction); the circuit path re-simulates gate by gate.
fn decode_budget<D: Decoder + Sync>(
    circuit: &Circuit,
    dem: &DetectorErrorModel,
    decoder: &D,
    sampler: SamplerChoice,
    shots: ShotBudget,
    seed: u64,
    mc: &McConfig,
) -> Result<DecodeStats, McError> {
    match sampler {
        SamplerChoice::Dem => {
            mc::logical_error_rate_sampled(&DemSampler::new(dem), decoder, shots, seed, mc)
        }
        SamplerChoice::Circuit => {
            mc::logical_error_rate_sampled(&CircuitSampler::new(circuit), decoder, shots, seed, mc)
        }
    }
}

/// Wall-clock split of one engine run. Never part of the record (records
/// are deterministic; wall time is not).
#[derive(Debug, Clone, Copy)]
pub struct RunTiming {
    /// Circuit construction, DEM extraction, graph decomposition and
    /// decoder construction.
    pub setup_seconds: f64,
    /// Sampling + Monte-Carlo decoding only — the number to use for decoder
    /// throughput comparisons.
    pub decode_seconds: f64,
}

/// Runs one spec end to end: build → DEM extraction → graphlike
/// decomposition → decoder construction → parallel Monte-Carlo decoding →
/// result record.
///
/// # Panics
///
/// Panics if [`DecoderChoice::Windowed`] is requested for a scenario
/// without uniform time layering (anything but memory or deep-CNOT), if
/// `streaming` is set without a windowed decoder, without the DEM sampler,
/// on an unlayered scenario, or with a degenerate window geometry (zero
/// buffer, or a window covering the whole circuit — rejected via
/// [`raa_decode::WindowError`]), or if the decode thread pool cannot be
/// built (see [`try_run`] for the fallible form).
pub fn run(spec: &ExperimentSpec) -> ExperimentRecord {
    try_run(spec).unwrap_or_else(|e| panic!("{e}")).0
}

/// Fallible form of [`run`], which also reports the setup/decode
/// wall-clock split: infrastructure failures (the decode thread pool
/// failing to build) surface as [`McError`] instead of a panic.
/// Spec-shape violations (windowed/streaming constraints) still panic —
/// they are caller bugs, not runtime conditions.
///
/// # Errors
///
/// Returns [`McError::PoolBuild`] when the spec's [`raa_decode::McConfig`]
/// requests a dedicated thread pool and building it fails.
pub fn try_run(spec: &ExperimentSpec) -> Result<(ExperimentRecord, RunTiming), McError> {
    // Every field is named, so a new spec field fails to compile here (and
    // in the wire writer that decides the cache key) until it is handled.
    let ExperimentSpec {
        ref name,
        scenario,
        distance,
        basis,
        noise,
        decoder,
        sampler,
        streaming,
        shots,
        seed,
        ref mc,
    } = *spec;
    // raa-audit: allow(nondet-time): the wall-clock split is reported beside the record in RunTiming and never enters a record, fingerprint, or memo.
    let start = Instant::now();
    let circuit = build_circuit(spec);
    let dem = DetectorErrorModel::from_circuit(&circuit);
    let (graph, arbitrary) = DecodingGraph::from_dem_decomposed(&dem);
    let decode_seed = derive_seed(seed, DECODE_STREAM);
    assert!(
        !streaming || matches!(decoder, DecoderChoice::Windowed { .. }),
        "streaming decoding requires the windowed decoder"
    );
    let timed = |decode: &dyn Fn() -> Result<DecodeStats, McError>| {
        // raa-audit: allow(nondet-time): decode_seconds lands in RunTiming, not in the ExperimentRecord.
        let t0 = Instant::now();
        let stats = decode()?;
        Ok::<_, McError>((stats, t0.elapsed().as_secs_f64()))
    };
    let (stats, decode_seconds) = match decoder {
        DecoderChoice::UnionFind => {
            let decoder = UnionFindDecoder::new(graph);
            timed(&|| decode_budget(&circuit, &dem, &decoder, sampler, shots, decode_seed, mc))
        }
        DecoderChoice::Matching => {
            let decoder = MatchingDecoder::new(graph);
            timed(&|| decode_budget(&circuit, &dem, &decoder, sampler, shots, decode_seed, mc))
        }
        DecoderChoice::BpUnionFind => {
            let decoder = BpUnionFindDecoder::new(&dem);
            timed(&|| decode_budget(&circuit, &dem, &decoder, sampler, shots, decode_seed, mc))
        }
        DecoderChoice::Windowed { commit, buffer } => {
            let detectors_per_layer = scenario.detectors_per_layer(distance).expect(
                "windowed decoding requires a uniformly layered scenario \
                 (memory, deep-CNOT, factory/gadget skeleton or code832)",
            );
            let layers = UniformLayers {
                detectors_per_layer,
            };
            if streaming {
                assert!(
                    matches!(sampler, SamplerChoice::Dem),
                    "streaming decoding samples the time-sliced DEM; set the DEM sampler"
                );
                // Streaming promises O(window) resident state, which a
                // degenerate geometry (no advance, no look-ahead, or a
                // window that swallows the circuit) silently breaks — the
                // validating constructor turns that into a typed error.
                let decoder = WindowedDecoder::try_new(graph, layers, commit, buffer)
                    .unwrap_or_else(|e| panic!("streaming windowed decode rejected: {e}"));
                let stream = StreamingDemSampler::new(&dem, detectors_per_layer);
                timed(&|| {
                    mc::logical_error_rate_streamed(&stream, &decoder, shots, decode_seed, mc)
                })
            } else {
                // The batch path stays permissive: convergence sweeps
                // legitimately drive buffer 0 and global-window points.
                let decoder = WindowedDecoder::new(graph, layers, commit, buffer);
                timed(&|| decode_budget(&circuit, &dem, &decoder, sampler, shots, decode_seed, mc))
            }
        }
    }?;
    let timing = RunTiming {
        setup_seconds: start.elapsed().as_secs_f64() - decode_seconds,
        decode_seconds,
    };
    let (patches, cnots, se_rounds, cnots_per_round) = match scenario {
        Scenario::Memory { rounds } | Scenario::Code832Memory { rounds } => {
            (1, 0, rounds.resolve(distance), None)
        }
        Scenario::TransversalCnot { .. } | Scenario::DeepCnot { .. } => {
            // The builder owns the round schedule; ask it rather than
            // re-deriving the formula here.
            let exp = cnot_experiment(spec);
            let se_rounds = exp.expected_se_rounds();
            (exp.patches, exp.depth, se_rounds, Some(exp.cnots_per_round))
        }
        Scenario::GhzFanout { targets } => {
            let exp = GhzFanoutExperiment {
                distance,
                targets,
                noise,
            };
            (exp.patches(), exp.cnots(), exp.se_rounds(), None)
        }
        Scenario::MagicFactory { .. } | Scenario::Gadget { .. } => {
            let exp = scheduled_experiment(spec);
            (exp.patches, exp.cnots(), exp.rounds, None)
        }
    };
    let record = ExperimentRecord {
        name: name.clone(),
        scenario: scenario.label().into(),
        distance,
        basis,
        patches,
        cnots,
        se_rounds,
        cnots_per_round,
        noise,
        decoder: decoder.label(),
        sampler: sampler.label().into(),
        streaming,
        seed,
        num_detectors: circuit.num_detectors(),
        num_dem_errors: dem.len(),
        arbitrary_decompositions: arbitrary,
        shots: stats.shots,
        failures: stats.failures,
    };
    Ok((record, timing))
}

/// Runs every point of a sweep grid in its deterministic expansion order.
///
/// Points run serially, bounding peak memory to one circuit + one decoder
/// at a time. Only a point's Monte-Carlo decode is sharded across threads
/// (by the [`raa_decode::mc`] pipeline); its build → DEM → decompose →
/// compile set-up runs on one thread, so other cores idle through it.
/// [`crate::Orchestrator`] runs points concurrently instead.
pub fn run_sweep(grid: &SweepGrid) -> Vec<ExperimentRecord> {
    grid.specs().iter().map(run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Rounds, ShotBudget};
    use raa_decode::McConfig;

    fn memory_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            "test/memory",
            Scenario::Memory {
                rounds: Rounds::Fixed(2),
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(3e-3);
        spec.shots = ShotBudget::Fixed(2_000);
        spec.seed = 7;
        spec
    }

    #[test]
    fn memory_record_accounting() {
        let r = run(&memory_spec());
        assert_eq!(r.scenario, "memory");
        assert_eq!(r.shots, 2_000);
        assert_eq!(r.patches, 1);
        assert_eq!(r.cnots, 0);
        assert_eq!(r.se_rounds, 2);
        assert!(r.num_detectors > 0);
        assert!(r.num_dem_errors > 0);
        assert!(r.logical_error_rate() < 0.1);
        assert!(r.error_per_cnot().is_none());
    }

    #[test]
    fn try_run_matches_run() {
        let spec = memory_spec();
        let (record, timing) = try_run(&spec).expect("ambient pool cannot fail");
        assert_eq!(record.to_json(), run(&spec).to_json());
        assert!(timing.decode_seconds >= 0.0);
        assert!(timing.setup_seconds >= 0.0);
    }

    #[test]
    fn transversal_record_accounting() {
        let mut spec = ExperimentSpec::new(
            "test/cnot",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 4,
                cnots_per_round: 2.0,
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(2e-3);
        spec.shots = ShotBudget::Fixed(1_000);
        let r = run(&spec);
        assert_eq!(r.cnots, 4);
        assert_eq!(r.se_rounds, 3);
        assert_eq!(r.patches, 2);
        assert_eq!(r.cnots_per_round, Some(2.0));
        assert!(r.error_per_cnot().is_some());
    }

    #[test]
    fn ghz_record_accounting() {
        let mut spec = ExperimentSpec::new("test/ghz", Scenario::GhzFanout { targets: 3 }, 3);
        spec.noise = raa_surface::NoiseModel::uniform(1e-3);
        spec.shots = ShotBudget::Fixed(500);
        let r = run(&spec);
        assert_eq!(r.patches, 5);
        assert_eq!(r.cnots, 4);
        assert!(r.logical_error_rate() < 0.1);
    }

    #[test]
    fn factory_record_accounting_and_uniform_layers() {
        let mut spec = ExperimentSpec::new(
            "test/factory",
            Scenario::MagicFactory {
                protocol: crate::FactoryProtocol::Ccz,
                rounds: Rounds::Fixed(3),
            },
            3,
        );
        spec.shots = ShotBudget::Fixed(500);
        let circuit = build_circuit(&spec);
        let dpl = spec.scenario.detectors_per_layer(3).unwrap();
        assert_eq!(dpl, 64);
        assert_eq!(circuit.num_detectors(), 3 * dpl);
        let r = run(&spec);
        assert_eq!(r.scenario, "factory_ccz");
        assert_eq!(r.patches, 8);
        assert_eq!(r.se_rounds, 3);
        assert_eq!(r.cnots, 8, "two cycled cube layers of four CNOTs");
        assert_eq!(r.cnots_per_round, None);
        assert!(r.num_dem_errors > 0);
    }

    #[test]
    fn gadget_record_accounting_and_uniform_layers() {
        let mut spec = ExperimentSpec::new(
            "test/gadget",
            Scenario::Gadget {
                kind: crate::GadgetKind::Adder,
                width: 2,
                rounds: Rounds::Fixed(4),
            },
            3,
        );
        spec.shots = ShotBudget::Fixed(500);
        let circuit = build_circuit(&spec);
        let dpl = spec.scenario.detectors_per_layer(3).unwrap();
        assert_eq!(dpl, 5 * 8, "2w + 1 patches");
        assert_eq!(circuit.num_detectors(), 4 * dpl);
        let r = run(&spec);
        assert_eq!(r.scenario, "gadget_adder");
        assert_eq!(r.patches, 5);
        assert_eq!(r.se_rounds, 4);
        assert_eq!(r.cnots, 6, "three cycled MAJ/UMA layers of two CNOTs");
        assert_eq!(r.cnots_per_round, None);
    }

    #[test]
    fn code832_record_accounting_and_uniform_layers() {
        let mut spec = ExperimentSpec::new(
            "test/832",
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(4),
            },
            2,
        );
        spec.shots = ShotBudget::Fixed(2_000);
        let circuit = build_circuit(&spec);
        assert_eq!(circuit.num_detectors(), 20, "four per round plus final");
        assert_eq!(circuit.num_detectors() % 4, 0);
        let r = run(&spec);
        assert_eq!(r.scenario, "code832_memory");
        assert_eq!(r.patches, 1);
        assert_eq!(r.cnots, 0);
        assert_eq!(r.se_rounds, 4);
        assert!(r.num_dem_errors > 0);
    }

    #[test]
    #[should_panic(expected = "distance must be 2")]
    fn code832_rejects_wrong_distance() {
        build_circuit(&ExperimentSpec::new(
            "bad",
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(2),
            },
            3,
        ));
    }

    #[test]
    fn until_failures_budget_stops_early() {
        let mut spec = memory_spec();
        spec.noise = raa_surface::NoiseModel::uniform(1e-2);
        spec.shots = ShotBudget::UntilFailures {
            max_shots: 1_000_000,
            target_failures: 5,
        };
        let r = run(&spec);
        assert!(r.failures >= 5);
        assert!(r.shots < 1_000_000);
    }

    #[test]
    fn identical_spec_is_bit_identical_across_thread_counts() {
        let spec = memory_spec();
        let base = run(&ExperimentSpec {
            mc: McConfig::default().with_threads(1),
            ..spec.clone()
        });
        for threads in [2usize, 4] {
            let multi = run(&ExperimentSpec {
                mc: McConfig::default().with_threads(threads),
                ..spec.clone()
            });
            assert_eq!(base.to_json(), multi.to_json(), "threads = {threads}");
        }
    }

    #[test]
    fn all_decoders_run_on_memory() {
        for decoder in [
            DecoderChoice::UnionFind,
            DecoderChoice::Matching,
            DecoderChoice::BpUnionFind,
            DecoderChoice::Windowed {
                commit: 2,
                buffer: 2,
            },
        ] {
            let mut spec = memory_spec();
            spec.shots = ShotBudget::Fixed(500);
            spec.decoder = decoder;
            let r = run(&spec);
            assert_eq!(r.shots, 500, "{:?}", decoder);
            assert!(r.logical_error_rate() < 0.2, "{:?}", decoder);
        }
    }

    #[test]
    #[should_panic(expected = "uniformly layered scenario")]
    fn windowed_rejected_for_transversal() {
        let mut spec = ExperimentSpec::new(
            "bad",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 2,
                cnots_per_round: 1.0,
            },
            3,
        );
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 2,
        };
        run(&spec);
    }

    #[test]
    fn deep_cnot_round_accounting_and_uniform_layers() {
        let mut spec = ExperimentSpec::new(
            "test/deep",
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::Fixed(7),
                cnots_per_round: 2.0,
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(2e-3);
        spec.shots = ShotBudget::Fixed(500);
        let circuit = build_circuit(&spec);
        let dpl = spec.scenario.detectors_per_layer(3).unwrap();
        assert_eq!(dpl, 16);
        // The round knob is honoured and the detectors layer uniformly.
        assert_eq!(circuit.num_detectors() % dpl, 0);
        assert_eq!(circuit.num_detectors() / dpl, 7);
        let r = run(&spec);
        assert_eq!(r.scenario, "deep_cnot");
        assert_eq!(r.se_rounds, 7);
        assert_eq!(r.cnots, 12, "depth = (rounds-1) * x");
        assert_eq!(r.cnots_per_round, Some(2.0));
        assert!(r.error_per_cnot().is_some());
    }

    #[test]
    fn deep_cnot_fractional_x_never_exceeds_round_budget() {
        // The depth derivation must respect the round knob even when
        // (rounds-1) * x is fractional: at most `rounds` SE rounds,
        // exactly `rounds` when the product is clean.
        for (rounds, x, want_rounds) in [
            (4usize, 0.7, 4usize),
            (2, 1.5, 2),
            // x = 0.5 reaches only odd round counts (1 + 2 per gate): an
            // even budget lands one short, never over.
            (60, 0.5, 59),
            (61, 0.5, 61),
            (7, 2.0, 7),
        ] {
            let mut spec = ExperimentSpec::new(
                "test/deep-frac",
                Scenario::DeepCnot {
                    patches: 2,
                    rounds: Rounds::Fixed(rounds),
                    cnots_per_round: x,
                },
                3,
            );
            spec.noise = raa_surface::NoiseModel::uniform(1e-3);
            let circuit = build_circuit(&spec);
            let layers = circuit.num_detectors() / spec.scenario.detectors_per_layer(3).unwrap();
            assert!(layers <= rounds, "rounds={rounds} x={x}: emitted {layers}");
            assert_eq!(layers, want_rounds, "rounds={rounds} x={x}");
        }
    }

    #[test]
    fn streaming_spec_runs_and_is_thread_deterministic() {
        let mut spec = ExperimentSpec::new(
            "test/streaming",
            Scenario::Memory {
                rounds: Rounds::Fixed(12),
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(4e-3);
        spec.shots = ShotBudget::Fixed(1_500);
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 3,
        };
        spec.streaming = true;
        spec.seed = 0x5EED;
        let base = run(&ExperimentSpec {
            mc: McConfig::default().with_threads(1),
            ..spec.clone()
        });
        assert!(base.to_json().contains("\"streaming\":true"));
        assert_eq!(base.shots, 1_500);
        for threads in [2usize, 8] {
            let multi = run(&ExperimentSpec {
                mc: McConfig::default().with_threads(threads),
                ..spec.clone()
            });
            assert_eq!(base.to_json(), multi.to_json(), "threads = {threads}");
        }
    }

    #[test]
    fn streaming_deep_cnot_runs() {
        let mut spec = ExperimentSpec::new(
            "test/deep-streaming",
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::TimesDistance(4),
                cnots_per_round: 1.0,
            },
            3,
        );
        spec.noise = raa_surface::NoiseModel::uniform(2e-3);
        spec.shots = ShotBudget::Fixed(400);
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 4,
        };
        spec.streaming = true;
        let r = run(&spec);
        assert_eq!(r.shots, 400);
        assert_eq!(r.se_rounds, 12);
        // 11 transversal CNOTs at d = 3: the shot-level rate is dominated
        // by the gate count (the per-CNOT rate is what the paper plots).
        assert!(r.logical_error_rate() < 0.3);
        assert!(r.error_per_cnot().unwrap() < 0.05);
    }

    #[test]
    #[should_panic(expected = "requires the windowed decoder")]
    fn streaming_rejected_without_windowed_decoder() {
        let mut spec = memory_spec();
        spec.streaming = true;
        run(&spec);
    }

    #[test]
    #[should_panic(expected = "streaming windowed decode rejected")]
    fn streaming_rejected_with_zero_buffer() {
        let mut spec = memory_spec();
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 0,
        };
        spec.streaming = true;
        run(&spec);
    }

    #[test]
    #[should_panic(expected = "streaming windowed decode rejected")]
    fn streaming_rejected_with_global_window() {
        let mut spec = memory_spec();
        // Way past the circuit's layer count: a "windowed" decode that
        // would actually hold every layer resident.
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 10_000,
        };
        spec.streaming = true;
        run(&spec);
    }

    #[test]
    #[should_panic(expected = "set the DEM sampler")]
    fn streaming_rejected_with_circuit_sampler() {
        let mut spec = memory_spec();
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 2,
        };
        spec.sampler = SamplerChoice::Circuit;
        spec.streaming = true;
        run(&spec);
    }

    #[test]
    fn derived_seeds_are_spread() {
        let a = derive_seed(0, 0);
        let b = derive_seed(0, 1);
        let c = derive_seed(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
