//! Exactness oracle for detector-error-model extraction and graphlike
//! decomposition.
//!
//! This file keeps a literal reference copy of the straightforward
//! extractor and decomposer: a backward sweep that clones a sensitivity
//! `Vec` per gate and merges every mechanism through a
//! `BTreeMap<(Vec<u32>, u64), f64>`, and a greedy decomposer that builds a
//! `Vec` key per probe. It uses only the public `Circuit` /
//! `DetectorErrorModel` API. The library's `from_circuit` and
//! `decompose_graphlike` must reproduce it bit for bit: the same
//! detector/observable counts, the same mechanisms in the same order with
//! the same `f64` bits, and the same count of arbitrary decompositions.
//!
//! Inputs: every scenario label at d = 3 (d = 5 in release builds only), 64
//! seeded random circuits that between them use every `OpKind`, and
//! hand-built or random DEMs with parallel graphlike signatures and
//! unsorted or repeated detector lists.

use raa::sim::{
    build_circuit, ExperimentSpec, FactoryProtocol, GadgetKind, NoiseModel, Rounds, Scenario,
};
use raa::stabsim::{Circuit, DemError, DetectorErrorModel, OpKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Reference implementation (do not optimise: it is the oracle).
// ---------------------------------------------------------------------------

fn merge_into(map: &mut BTreeMap<(Vec<u32>, u64), f64>, dets: Vec<u32>, obs: u64, p: f64) {
    if dets.is_empty() && obs == 0 {
        return; // invisible and harmless
    }
    let slot = map.entry((dets, obs)).or_insert(0.0);
    *slot = *slot * (1.0 - p) + p * (1.0 - *slot);
}

fn into_errors(merged: BTreeMap<(Vec<u32>, u64), f64>) -> Vec<DemError> {
    merged
        .into_iter()
        .map(|((detectors, observables), probability)| DemError {
            probability,
            detectors,
            observables,
        })
        .collect()
}

/// Sorted-set XOR.
fn xor_into(set: &mut Vec<u32>, other: &[u32]) {
    if other.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(set.len() + other.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < set.len() && j < other.len() {
        match set[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => {
                out.push(set[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(other[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&set[i..]);
    out.extend_from_slice(&other[j..]);
    *set = out;
}

/// Sensitivity of Pauli `code` (bit0 = x component, bit1 = z component) on `q`.
fn single_sens(dx: &[Vec<u32>], dz: &[Vec<u32>], q: usize, code: u8) -> Vec<u32> {
    let mut sens = Vec::new();
    if code & 1 != 0 {
        xor_into(&mut sens, &dx[q]);
    }
    if code & 2 != 0 {
        xor_into(&mut sens, &dz[q]);
    }
    sens
}

fn emit(merged: &mut BTreeMap<(Vec<u32>, u64), f64>, num_detectors: u32, sens: Vec<u32>, p: f64) {
    let mut dets = Vec::with_capacity(sens.len());
    let mut obs = 0u64;
    for id in sens {
        if id < num_detectors {
            dets.push(id);
        } else {
            obs |= 1u64 << (id - num_detectors);
        }
    }
    merge_into(merged, dets, obs, p);
}

/// The reference backward-sweep extractor.
fn reference_dem(circuit: &Circuit) -> DetectorErrorModel {
    let num_detectors = circuit.num_detectors() as u32;
    let mut meas_sensitivity = vec![Vec::new(); circuit.num_measurements()];
    for (d, meas_list) in circuit.detectors().iter().enumerate() {
        for &m in meas_list {
            xor_into(&mut meas_sensitivity[m], &[d as u32]);
        }
    }
    for (o, meas_list) in circuit.observables().iter().enumerate() {
        for &m in meas_list {
            xor_into(&mut meas_sensitivity[m], &[num_detectors + o as u32]);
        }
    }

    let n = circuit.num_qubits() as usize;
    let mut dx: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut dz: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut meas_idx = circuit.num_measurements();
    let mut merged: BTreeMap<(Vec<u32>, u64), f64> = BTreeMap::new();

    for op in circuit.ops().iter().rev() {
        use OpKind::*;
        match op.kind {
            Tick | X | Y | Z => {}
            H => {
                for &q in &op.targets {
                    let q = q as usize;
                    std::mem::swap(&mut dx[q], &mut dz[q]);
                }
            }
            S | SDag => {
                for &q in &op.targets {
                    let q = q as usize;
                    let zsens = dz[q].clone();
                    xor_into(&mut dx[q], &zsens);
                }
            }
            SqrtX | SqrtXDag => {
                for &q in &op.targets {
                    let q = q as usize;
                    let xsens = dx[q].clone();
                    xor_into(&mut dz[q], &xsens);
                }
            }
            CX => {
                for pair in op.targets.chunks_exact(2) {
                    let (c, t) = (pair[0] as usize, pair[1] as usize);
                    let xt = dx[t].clone();
                    xor_into(&mut dx[c], &xt);
                    let zc = dz[c].clone();
                    xor_into(&mut dz[t], &zc);
                }
            }
            CZ => {
                for pair in op.targets.chunks_exact(2) {
                    let (a, b) = (pair[0] as usize, pair[1] as usize);
                    let zb = dz[b].clone();
                    xor_into(&mut dx[a], &zb);
                    let za = dz[a].clone();
                    xor_into(&mut dx[b], &za);
                }
            }
            Swap => {
                for pair in op.targets.chunks_exact(2) {
                    let (a, b) = (pair[0] as usize, pair[1] as usize);
                    dx.swap(a, b);
                    dz.swap(a, b);
                }
            }
            M => {
                for &q in op.targets.iter().rev() {
                    meas_idx -= 1;
                    let q = q as usize;
                    let sens = meas_sensitivity[meas_idx].clone();
                    xor_into(&mut dx[q], &sens);
                }
            }
            MX => {
                for &q in op.targets.iter().rev() {
                    meas_idx -= 1;
                    let q = q as usize;
                    let sens = meas_sensitivity[meas_idx].clone();
                    xor_into(&mut dz[q], &sens);
                }
            }
            MR => {
                for &q in op.targets.iter().rev() {
                    meas_idx -= 1;
                    let q = q as usize;
                    dx[q] = meas_sensitivity[meas_idx].clone();
                    dz[q].clear();
                }
            }
            R | RX => {
                for &q in &op.targets {
                    let q = q as usize;
                    dx[q].clear();
                    dz[q].clear();
                }
            }
            XError | ZError | YError => {
                let p = op.arg;
                for &q in &op.targets {
                    let q = q as usize;
                    let mut sens = Vec::new();
                    if op.kind != ZError {
                        xor_into(&mut sens, &dx[q]);
                    }
                    if op.kind != XError {
                        xor_into(&mut sens, &dz[q]);
                    }
                    emit(&mut merged, num_detectors, sens, p);
                }
            }
            Depolarize1 => {
                let p3 = op.arg / 3.0;
                for &q in &op.targets {
                    let q = q as usize;
                    for code in 1u8..4 {
                        let sens = single_sens(&dx, &dz, q, code);
                        emit(&mut merged, num_detectors, sens, p3);
                    }
                }
            }
            Depolarize2 => {
                let p15 = op.arg / 15.0;
                for pair in op.targets.chunks_exact(2) {
                    let (a, b) = (pair[0] as usize, pair[1] as usize);
                    for code in 1u8..16 {
                        let mut sens = single_sens(&dx, &dz, a, code & 3);
                        let other = single_sens(&dx, &dz, b, code >> 2);
                        xor_into(&mut sens, &other);
                        emit(&mut merged, num_detectors, sens, p15);
                    }
                }
            }
        }
    }
    assert_eq!(meas_idx, 0, "measurement bookkeeping out of sync");

    DetectorErrorModel {
        num_detectors: num_detectors as usize,
        num_observables: circuit.num_observables(),
        errors: into_errors(merged),
    }
}

/// Greedy hyperedge decomposition into known graphlike pieces.
fn decompose(
    dets: &[u32],
    obs: u64,
    known: &HashMap<Vec<u32>, u64>,
) -> (Vec<(Vec<u32>, u64)>, bool) {
    let mut remaining: Vec<u32> = dets.to_vec();
    let mut components: Vec<(Vec<u32>, u64)> = Vec::new();
    let mut residual_obs = obs;
    let mut clean = true;
    // Pass 1: known pairs within the remaining set.
    'outer: loop {
        for i in 0..remaining.len() {
            for j in (i + 1)..remaining.len() {
                let key = vec![remaining[i], remaining[j]];
                if let Some(&o) = known.get(&key) {
                    residual_obs ^= o;
                    components.push((key, o));
                    remaining.remove(j);
                    remaining.remove(i);
                    continue 'outer;
                }
            }
        }
        break;
    }
    // Pass 2: known singletons (boundary edges).
    remaining.retain(|&d| {
        if let Some(&o) = known.get(&vec![d]) {
            residual_obs ^= o;
            components.push((vec![d], o));
            false
        } else {
            true
        }
    });
    // Pass 3: anything left gets paired arbitrarily (and flagged).
    if !remaining.is_empty() {
        clean = false;
        for chunk in remaining.chunks(2) {
            components.push((chunk.to_vec(), 0));
        }
    }
    // Residual observable flips ride on the last component.
    if residual_obs != 0 {
        if let Some(last) = components.last_mut() {
            last.1 ^= residual_obs;
        } else {
            components.push((Vec::new(), residual_obs));
        }
    }
    (components, clean)
}

/// The reference graphlike decomposition.
fn reference_decompose(dem: &DetectorErrorModel) -> (DetectorErrorModel, usize) {
    let mut known: HashMap<Vec<u32>, u64> = HashMap::new();
    for e in dem.errors.iter().filter(|e| e.is_graphlike()) {
        known.entry(e.detectors.clone()).or_insert(e.observables);
    }
    let mut merged: BTreeMap<(Vec<u32>, u64), f64> = BTreeMap::new();
    let mut arbitrary = 0usize;
    for e in &dem.errors {
        if e.is_graphlike() {
            merge_into(
                &mut merged,
                e.detectors.clone(),
                e.observables,
                e.probability,
            );
            continue;
        }
        let (components, clean) = decompose(&e.detectors, e.observables, &known);
        if !clean {
            arbitrary += 1;
        }
        for (dets, obs) in components {
            merge_into(&mut merged, dets, obs, e.probability);
        }
    }
    (
        DetectorErrorModel {
            num_detectors: dem.num_detectors,
            num_observables: dem.num_observables,
            errors: into_errors(merged),
        },
        arbitrary,
    )
}

// ---------------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------------

fn assert_same_dem(what: &str, actual: &DetectorErrorModel, expected: &DetectorErrorModel) {
    assert_eq!(
        actual.num_detectors, expected.num_detectors,
        "{what}: num_detectors"
    );
    assert_eq!(
        actual.num_observables, expected.num_observables,
        "{what}: num_observables"
    );
    assert_eq!(actual.len(), expected.len(), "{what}: mechanism count");
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        assert_eq!(a.detectors, e.detectors, "{what}: mechanism {i} detectors");
        assert_eq!(
            a.observables, e.observables,
            "{what}: mechanism {i} observables"
        );
        assert_eq!(
            a.probability.to_bits(),
            e.probability.to_bits(),
            "{what}: mechanism {i} probability {} vs {}",
            a.probability,
            e.probability
        );
    }
}

/// The library's decomposition of `dem` equals the reference's.
fn check_decomposition(what: &str, dem: &DetectorErrorModel) {
    let (actual, actual_arbitrary) = dem.decompose_graphlike();
    let (expected, expected_arbitrary) = reference_decompose(dem);
    assert_same_dem(&format!("{what} (decomposed)"), &actual, &expected);
    assert_eq!(
        actual_arbitrary, expected_arbitrary,
        "{what}: arbitrary decompositions"
    );
}

/// The library's DEM of `circuit` and its decomposition equal the
/// reference's. Returns the mechanism count.
fn check_circuit(what: &str, circuit: &Circuit) -> usize {
    let actual = DetectorErrorModel::from_circuit(circuit);
    assert_same_dem(what, &actual, &reference_dem(circuit));
    check_decomposition(what, &actual);
    actual.len()
}

// ---------------------------------------------------------------------------
// Scenario catalog.
// ---------------------------------------------------------------------------

/// One instance of every scenario label at distance `d`. The [[8,3,2]]
/// block is a fixed distance-2 code, so it is listed (at d = 2) only when
/// `with_code832` is set.
fn catalog(d: u32, with_code832: bool) -> Vec<(String, ExperimentSpec)> {
    let mut scenarios: Vec<(String, Scenario, u32)> = Vec::new();
    scenarios.push((
        "memory".into(),
        Scenario::Memory {
            rounds: Rounds::TimesDistance(1),
        },
        d,
    ));
    for x in [0.5, 4.0] {
        scenarios.push((
            format!("transversal_cnot_x{x}"),
            Scenario::TransversalCnot {
                patches: 2,
                depth: 16,
                cnots_per_round: x,
            },
            d,
        ));
    }
    scenarios.push(("ghz_fanout".into(), Scenario::GhzFanout { targets: 3 }, d));
    scenarios.push((
        "deep_cnot_20r".into(),
        Scenario::DeepCnot {
            patches: 2,
            rounds: Rounds::Fixed(20),
            cnots_per_round: 1.0,
        },
        d,
    ));
    for protocol in [
        FactoryProtocol::Distill15,
        FactoryProtocol::Ccz,
        FactoryProtocol::Cultivation,
    ] {
        let scenario = Scenario::MagicFactory {
            protocol,
            rounds: Rounds::Fixed(4),
        };
        scenarios.push((scenario.label().into(), scenario, d));
    }
    for (kind, width) in [
        (GadgetKind::Adder, 4),
        (GadgetKind::Lookup, 4),
        (GadgetKind::Fanout, 3),
    ] {
        let scenario = Scenario::Gadget {
            kind,
            width,
            rounds: Rounds::Fixed(4),
        };
        scenarios.push((scenario.label().into(), scenario, d));
    }
    if with_code832 {
        scenarios.push((
            "code832_memory".into(),
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(4),
            },
            2,
        ));
    }
    scenarios
        .into_iter()
        .map(|(name, scenario, distance)| {
            let mut spec = ExperimentSpec::new(format!("oracle/{name}"), scenario, distance);
            spec.noise = NoiseModel::uniform(2e-3);
            spec.seed = 17;
            (format!("{name} d={distance}"), spec)
        })
        .collect()
}

fn check_catalog(d: u32, with_code832: bool) {
    let specs = catalog(d, with_code832);
    let mut labels = BTreeSet::new();
    for (what, spec) in &specs {
        labels.insert(spec.scenario.label());
        let mechanisms = check_circuit(what, &build_circuit(spec));
        assert!(mechanisms > 0, "{what}: empty DEM");
    }
    let expected = if with_code832 { 11 } else { 10 };
    assert_eq!(labels.len(), expected, "labels covered: {labels:?}");
}

#[test]
fn scenario_catalog_matches_reference_d3() {
    check_catalog(3, true);
}

/// The d = 5 catalog takes too long unoptimised; CI runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn scenario_catalog_matches_reference_d5() {
    check_catalog(5, false);
}

// ---------------------------------------------------------------------------
// Random circuits.
// ---------------------------------------------------------------------------

const ALL_KINDS: [OpKind; 22] = [
    OpKind::X,
    OpKind::Y,
    OpKind::Z,
    OpKind::H,
    OpKind::S,
    OpKind::SDag,
    OpKind::SqrtX,
    OpKind::SqrtXDag,
    OpKind::CX,
    OpKind::CZ,
    OpKind::Swap,
    OpKind::R,
    OpKind::RX,
    OpKind::M,
    OpKind::MX,
    OpKind::MR,
    OpKind::XError,
    OpKind::ZError,
    OpKind::YError,
    OpKind::Depolarize1,
    OpKind::Depolarize2,
    OpKind::Tick,
];

/// A random circuit over every op kind, with detectors and observables over
/// random (possibly repeated) measurement subsets.
fn random_circuit(seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(2u32..9);
    let mut c = Circuit::new();
    let qubits = |rng: &mut StdRng| -> Vec<u32> {
        let k = rng.random_range(1usize..4);
        (0..k).map(|_| rng.random_range(0..n)).collect()
    };
    let pairs = |rng: &mut StdRng| -> Vec<(u32, u32)> {
        let k = rng.random_range(1usize..3);
        (0..k)
            .map(|_| {
                let a = rng.random_range(0..n);
                let b = (a + rng.random_range(1..n)) % n;
                (a, b)
            })
            .collect()
    };
    let ops = rng.random_range(20usize..70);
    for _ in 0..ops {
        let kind = ALL_KINDS[rng.random_range(0..ALL_KINDS.len())];
        let p = [0.5, 0.1, 0.03, 1e-3][rng.random_range(0usize..4)];
        match kind {
            OpKind::X => c.x(&qubits(&mut rng)),
            OpKind::Y => c.y(&qubits(&mut rng)),
            OpKind::Z => c.z(&qubits(&mut rng)),
            OpKind::H => c.h(&qubits(&mut rng)),
            OpKind::S => c.s(&qubits(&mut rng)),
            OpKind::SDag => c.s_dag(&qubits(&mut rng)),
            OpKind::SqrtX => c.sqrt_x(&qubits(&mut rng)),
            OpKind::SqrtXDag => c.sqrt_x_dag(&qubits(&mut rng)),
            OpKind::CX => c.cx(&pairs(&mut rng)),
            OpKind::CZ => c.cz(&pairs(&mut rng)),
            OpKind::Swap => c.swap(&pairs(&mut rng)),
            OpKind::R => c.r(&qubits(&mut rng)),
            OpKind::RX => c.rx(&qubits(&mut rng)),
            OpKind::M => c.m(&qubits(&mut rng)),
            OpKind::MX => c.mx(&qubits(&mut rng)),
            OpKind::MR => c.mr(&qubits(&mut rng)),
            OpKind::XError => c.x_error(&qubits(&mut rng), p),
            OpKind::ZError => c.z_error(&qubits(&mut rng), p),
            OpKind::YError => c.y_error(&qubits(&mut rng), p),
            OpKind::Depolarize1 => c.depolarize1(&qubits(&mut rng), p),
            OpKind::Depolarize2 => c.depolarize2(&pairs(&mut rng), p),
            OpKind::Tick => c.tick(),
        };
        if kind.is_measurement() {
            for _ in 0..rng.random_range(0usize..3) {
                let k = rng.random_range(1usize..5);
                let meas: Vec<usize> = (0..k)
                    .map(|_| rng.random_range(0..c.num_measurements()))
                    .collect();
                c.detector_at(&meas);
            }
        }
    }
    // Close with a measurement of every qubit so observables have records.
    c.m(&(0..n).collect::<Vec<_>>());
    for _ in 0..rng.random_range(1usize..5) {
        let meas: Vec<usize> = (0..rng.random_range(1usize..4))
            .map(|_| rng.random_range(0..c.num_measurements()))
            .collect();
        c.detector_at(&meas);
    }
    for id in 0..rng.random_range(1usize..4) {
        let meas: Vec<usize> = (0..rng.random_range(1usize..5))
            .map(|_| rng.random_range(0..c.num_measurements()))
            .collect();
        c.observable_include_at(id, &meas);
    }
    c
}

#[test]
fn random_circuits_match_reference() {
    let mut kinds_seen = BTreeSet::new();
    let mut hyperedges = 0usize;
    for seed in 0..64u64 {
        let circuit = random_circuit(0xDE40 + seed);
        for op in circuit.ops() {
            kinds_seen.insert(format!("{:?}", op.kind));
        }
        check_circuit(&format!("random circuit {seed}"), &circuit);
        hyperedges += DetectorErrorModel::from_circuit(&circuit)
            .iter()
            .filter(|e| !e.is_graphlike())
            .count();
    }
    assert_eq!(
        kinds_seen.len(),
        ALL_KINDS.len(),
        "op kinds covered: {kinds_seen:?}"
    );
    assert!(
        hyperedges > 0,
        "the random circuits must exercise decomposition"
    );
}

// ---------------------------------------------------------------------------
// Hand-built DEMs.
// ---------------------------------------------------------------------------

fn mechanism(probability: f64, detectors: &[u32], observables: u64) -> DemError {
    DemError {
        probability,
        detectors: detectors.to_vec(),
        observables,
    }
}

fn dem(num_detectors: usize, errors: Vec<DemError>) -> DetectorErrorModel {
    DetectorErrorModel {
        num_detectors,
        num_observables: 2,
        errors,
    }
}

fn probability_of(dem: &DetectorErrorModel, detectors: &[u32], observables: u64) -> f64 {
    dem.iter()
        .find(|e| e.detectors == detectors && e.observables == observables)
        .map_or(0.0, |e| e.probability)
}

#[test]
fn parallel_graphlike_signatures_first_seen_mask_wins() {
    let xor = |a: f64, b: f64| a * (1.0 - b) + b * (1.0 - a);
    for (first, second) in [(0u64, 1u64), (1, 0)] {
        let model = dem(
            4,
            vec![
                mechanism(0.01, &[1, 2], first),
                mechanism(0.02, &[1, 2], second),
                mechanism(0.03, &[0], 1),
                mechanism(0.04, &[3], 0),
                mechanism(0.005, &[0, 1, 2, 3], 1),
            ],
        );
        check_decomposition(&format!("parallel masks {first}/{second}"), &model);
        // {1, 2} is found first and carries the first-seen mask; {0} and
        // {3} take the rest of the flip.
        let (graphlike, arbitrary) = model.decompose_graphlike();
        assert_eq!(arbitrary, 0);
        let p_first = probability_of(&graphlike, &[1, 2], first);
        let p_second = probability_of(&graphlike, &[1, 2], second);
        assert_eq!(p_first.to_bits(), xor(0.01, 0.005).to_bits());
        assert_eq!(p_second.to_bits(), 0.02f64.to_bits());
    }
}

#[test]
fn unsorted_and_repeated_detector_lists_match_reference() {
    let model = dem(
        8,
        vec![
            mechanism(0.01, &[3, 1], 0),
            mechanism(0.02, &[1, 3], 1),
            mechanism(0.015, &[5], 1),
            mechanism(0.025, &[2, 2], 0),
            mechanism(0.004, &[5, 3, 1, 0], 1),
            mechanism(0.003, &[1, 3, 5, 0], 0),
            mechanism(0.002, &[2, 0, 4], 1),
            mechanism(0.001, &[2, 2, 7, 6], 0),
            mechanism(0.006, &[], 1),
            mechanism(0.007, &[6, 7, 9, 9], 1),
            mechanism(0.008, &[3, 1], 1),
        ],
    );
    check_decomposition("unsorted", &model);
}

#[test]
fn random_dems_match_reference() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xD0 + seed);
        let num_detectors = rng.random_range(2usize..12);
        let errors = (0..rng.random_range(1usize..40))
            .map(|_| {
                let len = rng.random_range(0usize..6);
                let detectors: Vec<u32> = (0..len)
                    .map(|_| rng.random_range(0..num_detectors as u32))
                    .collect();
                let observables = rng.random_range(0u64..4);
                let probability = [0.5, 0.1, 0.01, 3e-3][rng.random_range(0usize..4)];
                mechanism(probability, &detectors, observables)
            })
            .collect();
        check_decomposition(&format!("random DEM {seed}"), &dem(num_detectors, errors));
    }
}
