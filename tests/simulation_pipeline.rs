//! Integration tests of the full simulation stack: circuit construction →
//! reference/tableau semantics → frame sampling → DEM extraction → decoding
//! → engine records. These are the cross-crate checks that the substrate
//! behind Fig. 6(a) is self-consistent.

use raa::decode::{mc, CircuitSampler, DecodingGraph, MatchingDecoder, McConfig, UnionFindDecoder};
use raa::sim::{run, ExperimentRecord, ExperimentSpec, Rounds, Scenario, ShotBudget};
use raa::stabsim::{DetectorErrorModel, FrameSim, TableauSim};
use raa::surface::{Basis, MemoryExperiment, NoiseModel, PatchCircuitBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs `scenario` at distance `d` and uniform noise `p` through the
/// engine (union–find, compiled-DEM sampling).
fn run_point(scenario: Scenario, d: u32, p: f64, shots: usize, seed: u64) -> ExperimentRecord {
    let mut spec = ExperimentSpec::new(format!("pipeline/{}", scenario.label()), scenario, d);
    spec.noise = NoiseModel::uniform(p);
    spec.shots = ShotBudget::Fixed(shots);
    spec.seed = seed;
    run(&spec)
}

/// The two-patch, depth-8 transversal-CNOT circuit at `x` CNOTs per round.
fn cnot_scenario(x: f64) -> Scenario {
    Scenario::TransversalCnot {
        patches: 2,
        depth: 8,
        cnots_per_round: x,
    }
}

/// Every detector the builders emit is a deterministic parity check of the
/// noiseless circuit, for memory and multi-patch transversal circuits alike.
#[test]
fn all_detectors_deterministic_across_bases_and_patches() {
    for basis in [Basis::Z, Basis::X] {
        for patches in [1usize, 2, 3] {
            let mut b = PatchCircuitBuilder::new(3, patches, basis, NoiseModel::uniform(0.0));
            b.initialize();
            b.se_round();
            if patches >= 2 {
                b.transversal_cx(0, 1);
                b.se_round();
                if patches == 3 {
                    b.transversal_cx(2, 0);
                    b.se_round();
                }
            }
            let c = b.finish();
            let reference = TableauSim::reference_sample(&c);
            for d in 0..c.num_detectors() {
                let parity = c
                    .detector_measurements(d)
                    .iter()
                    .fold(false, |acc, &m| acc ^ reference[m]);
                assert!(!parity, "basis {basis:?}, {patches} patches, detector {d}");
            }
        }
    }
}

/// The frame sampler and the exact tableau simulator agree on detector
/// statistics for a noisy surface-code round.
#[test]
fn frame_sampler_matches_tableau_statistics() {
    let exp = MemoryExperiment {
        distance: 3,
        rounds: 2,
        basis: Basis::Z,
        noise: NoiseModel::uniform(0.01),
    };
    let c = exp.build();
    let shots = 40_000;
    let samples = FrameSim::sample(&c, shots, &mut rng(1));
    let frame_rate = (0..shots)
        .filter(|&s| !samples.fired_detectors(s).is_empty())
        .count() as f64
        / shots as f64;

    let tab_shots = 4_000;
    let mut r = rng(2);
    let mut tab_hits = 0usize;
    for _ in 0..tab_shots {
        let rec = TableauSim::sample(&c, &mut r);
        let any = (0..c.num_detectors()).any(|d| {
            c.detector_measurements(d)
                .iter()
                .fold(false, |acc, &m| acc ^ rec[m])
        });
        if any {
            tab_hits += 1;
        }
    }
    let tab_rate = tab_hits as f64 / tab_shots as f64;
    assert!(
        (frame_rate - tab_rate).abs() < 0.03,
        "frame {frame_rate} vs tableau {tab_rate}"
    );
}

/// Below threshold, increasing the distance suppresses the decoded logical
/// error rate of the memory experiment.
#[test]
fn memory_error_suppression_with_distance() {
    let memory = Scenario::Memory {
        rounds: Rounds::TimesDistance(1),
    };
    let rate = |d: u32| run_point(memory, d, 2e-3, 40_000, 3).logical_error_rate();
    let r3 = rate(3);
    let r5 = rate(5);
    assert!(
        r5 <= r3.max(2.5e-5) * 1.2,
        "no suppression: d=3 {r3}, d=5 {r5}"
    );
}

/// The exact matching decoder is at least as accurate as union–find on the
/// same syndromes (it is the MLE-like reference of the α calibration).
#[test]
fn matching_reference_not_worse_than_unionfind() {
    let exp = MemoryExperiment {
        distance: 3,
        rounds: 3,
        basis: Basis::Z,
        noise: NoiseModel::uniform(8e-3),
    };
    let c = exp.build();
    let dem = DetectorErrorModel::from_circuit(&c);
    let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
    let uf = UnionFindDecoder::new(graph.clone());
    let mwpm = MatchingDecoder::new(graph);
    let sampler = CircuitSampler::new(&c);
    let cfg = McConfig::default();
    let rate = |stats: mc::DecodeStats| stats.failures as f64 / stats.shots as f64;
    let r_uf = rate(mc::logical_error_rate_sampled(&sampler, &uf, 20_000, 4, &cfg).unwrap());
    let r_m = rate(mc::logical_error_rate_sampled(&sampler, &mwpm, 20_000, 4, &cfg).unwrap());
    assert!(
        r_m <= r_uf * 1.2 + 0.005,
        "matching {r_m} vs union-find {r_uf}"
    );
}

/// Correlated decoding end to end: a two-patch transversal-CNOT circuit
/// decodes to a usefully low logical error rate, and the per-CNOT error is
/// finite and grows with the physical rate.
#[test]
fn transversal_cnot_pipeline() {
    let per_cnot = |p: f64| {
        let r = run_point(cnot_scenario(1.0), 3, p, 20_000, 5);
        assert_eq!((r.cnots, r.patches), (8, 2));
        r.error_per_cnot().expect("the circuit has CNOTs")
    };
    let low = per_cnot(1e-3);
    let high = per_cnot(6e-3);
    assert!(low < high, "error must grow with p: {low} vs {high}");
    assert!(high < 0.5, "decoding must stay useful: {high}");
}

/// The paper's core point (§II.4): O(1) SE rounds per transversal gate
/// suffice, and *extra* rounds per gate add noise volume. At fixed depth,
/// the x = 4 schedule (few rounds) must not be more error-prone per gate
/// than the x = 0.5 schedule (two rounds per gate).
#[test]
fn fewer_se_rounds_per_cnot_is_cheaper_per_gate() {
    let rate = |x: f64| run_point(cnot_scenario(x), 3, 4e-3, 6_000, 4).logical_error_rate();
    let slow = rate(0.5); // 2 SE rounds per CNOT: 17 rounds total
    let fast = rate(4.0); // 4 CNOTs per SE round: 3 rounds total
    assert!(
        fast < slow,
        "extra SE rounds should cost more per gate: slow {slow}, fast {fast}"
    );
}

/// Measurement-based GHZ preparation decodes jointly to a low logical
/// error rate: a failure is any pair parity the decoder mispredicts.
#[test]
fn ghz_decodes_under_noise() {
    let r = run_point(Scenario::GhzFanout { targets: 3 }, 3, 2e-3, 4_000, 12);
    assert_eq!(r.patches, 5);
    assert!(
        r.logical_error_rate() < 0.1,
        "GHZ logical error = {}",
        r.logical_error_rate()
    );
}

/// The decomposition path: surface-code DEMs contain hyperedges (from Y
/// errors) that decompose into existing graphlike mechanisms.
#[test]
fn dem_decomposition_handles_surface_code() {
    let exp = MemoryExperiment {
        distance: 3,
        rounds: 3,
        basis: Basis::Z,
        noise: NoiseModel::uniform(1e-3),
    };
    let c = exp.build();
    let dem = DetectorErrorModel::from_circuit(&c);
    let hyper = dem.iter().filter(|e| e.detectors.len() > 2).count();
    assert!(hyper > 0, "expected hyperedges from Y errors");
    let (graphlike, _arbitrary) = dem.decompose_graphlike();
    assert!(graphlike.iter().all(|e| e.detectors.len() <= 2));
    // Decomposition must preserve the mechanism mass approximately.
    assert!(graphlike.len() >= dem.len() - hyper);
}
