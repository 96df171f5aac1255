//! The \[\[8,3,2\]\] colour code on the cube, used by the 8T-to-CCZ magic-state
//! factory (paper §III.6, Fig. 8).
//!
//! Qubits sit on the 8 vertices of a cube, indexed by their coordinate bits:
//! `v = x + 2y + 4z`. The stabilizer group is generated by the all-X operator
//! `X⊗8` and Z-operators on three faces of the cube; the three logical Z
//! operators are cube edges, logical X operators are faces. The code's
//! transversal T gate (T on one tetrahedron, T† on the other) implements a
//! logical CCZ, which is why eight |T⟩ states teleported into the block yield
//! one |CCZ⟩ state.
//!
//! The factory post-selects on trivial syndrome; what matters for its output
//! error is which *Z-error patterns on the eight inputs* slip through:
//!
//! * odd-weight patterns anticommute with `X⊗8` → detected;
//! * even-weight patterns in the Z-stabilizer group → harmless;
//! * the rest → undetected logical errors on the |CCZ⟩ output.
//!
//! All 28 weight-2 patterns are undetected-and-harmful, giving the paper's
//! `p_out = 28 p_in² + O(p_in³)` (its Eq. 8). [`output_error_exact`] computes
//! the exact polynomial by enumeration.

/// The four Z-stabilizer generators: the three cube faces through vertex 0
/// plus the all-Z operator (so the full code has n − k = 5 stabilizer
/// generators once `X⊗8` is included).
pub const Z_STABILIZER_GENERATORS: [u8; 4] = [
    0b0000_1111, // z = 0 face: vertices 0,1,2,3
    0b0011_0011, // y = 0 face: vertices 0,1,4,5
    0b0101_0101, // x = 0 face: vertices 0,2,4,6
    0b1111_1111, // Z on every vertex
];

/// The three logical Z operators (cube edges through vertex 0).
pub const Z_LOGICALS: [u8; 3] = [
    0b0000_0011, // edge along x: vertices 0,1
    0b0000_0101, // edge along y: vertices 0,2
    0b0001_0001, // edge along z: vertices 0,4
];

/// The three logical X operators (faces dual to the edges): the
/// commutation reference the code-structure tests read logical actions
/// off.
#[cfg(test)]
const X_LOGICALS: [u8; 3] = [
    0b1010_1010, // x = 1 face: vertices 1,3,5,7
    0b1100_1100, // y = 1 face: vertices 2,3,6,7
    0b1111_0000, // z = 1 face: vertices 4,5,6,7
];

/// The full 16-element Z-stabilizer group (spans of the four generators).
pub(crate) fn z_stabilizer_group() -> Vec<u8> {
    let mut group = Vec::with_capacity(16);
    for bits in 0u8..16 {
        let mut el = 0u8;
        for (i, &g) in Z_STABILIZER_GENERATORS.iter().enumerate() {
            if bits >> i & 1 == 1 {
                el ^= g;
            }
        }
        group.push(el);
    }
    group
}

/// Classification of a Z-error pattern on the eight |T⟩ inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZErrorClass {
    /// Anticommutes with `X⊗8`: caught by the factory's post-selection.
    Detected,
    /// A Z-stabilizer: acts trivially on the encoded |CCZ⟩.
    Harmless,
    /// Undetected and logically non-trivial: corrupts the output.
    Harmful,
}

/// Classifies the Z-error pattern `mask` (bit `i` = Z on vertex `i`).
pub(crate) fn classify_z_error(mask: u8) -> ZErrorClass {
    if mask.count_ones() % 2 == 1 {
        return ZErrorClass::Detected;
    }
    if z_stabilizer_group().contains(&mask) {
        return ZErrorClass::Harmless;
    }
    ZErrorClass::Harmful
}

/// Which logical Z operators an undetected pattern applies, as a 3-bit
/// mask (bit `i` set when the pattern anticommutes with logical X_i).
/// Returns `None` for detected patterns.
#[cfg(test)]
fn logical_action(mask: u8) -> Option<u8> {
    if mask.count_ones() % 2 == 1 {
        return None;
    }
    // Z-pattern E anticommutes with X̄_i iff |E ∩ X̄_i| is odd.
    let mut action = 0u8;
    for (i, &xl) in X_LOGICALS.iter().enumerate() {
        if (mask & xl).count_ones() % 2 == 1 {
            action |= 1 << i;
        }
    }
    Some(action)
}

/// Exact output-error probability of the 8T-to-CCZ stage: the probability
/// that an undetected, logically non-trivial Z pattern occurs, conditioned on
/// passing post-selection, to leading order reported unconditioned (the
/// conditioning correction is O(p), beyond the paper's 28 p² model).
///
/// # Example
///
/// ```
/// use raa_surface::code832::output_error_exact;
///
/// let p = 1e-4;
/// let exact = output_error_exact(p);
/// assert!((exact / (28.0 * p * p) - 1.0).abs() < 0.01);
/// ```
pub fn output_error_exact(p_in: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p_in),
        "input error probability must be in [0, 1]"
    );
    let mut total = 0.0;
    for mask in 0u16..256 {
        let mask = mask as u8;
        if classify_z_error(mask) == ZErrorClass::Harmful {
            let w = mask.count_ones() as i32;
            total += p_in.powi(w) * (1.0 - p_in).powi(8 - w);
        }
    }
    total
}

/// Probability that the factory's post-selection rejects the attempt
/// (any odd-weight pattern fires): `1 - Σ_even C(8,w) p^w (1-p)^(8-w)`.
pub fn rejection_probability(p_in: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p_in),
        "input error probability must be in [0, 1]"
    );
    let mut accept = 0.0;
    for mask in 0u16..256 {
        let mask = mask as u8;
        if mask.count_ones().is_multiple_of(2) {
            let w = mask.count_ones() as i32;
            accept += p_in.powi(w) * (1.0 - p_in).powi(8 - w);
        }
    }
    1.0 - accept
}

/// The number of harmful patterns of each even weight `(w=2, w=4, w=6, w=8)`.
pub fn harmful_pattern_counts() -> (usize, usize, usize, usize) {
    let mut counts = [0usize; 4];
    for mask in 0u16..256 {
        let mask = mask as u8;
        if classify_z_error(mask) == ZErrorClass::Harmful {
            match mask.count_ones() {
                2 => counts[0] += 1,
                4 => counts[1] += 1,
                6 => counts[2] += 1,
                8 => counts[3] += 1,
                _ => unreachable!("harmful patterns have even weight ≥ 2"),
            }
        }
    }
    (counts[0], counts[1], counts[2], counts[3])
}

/// A circuit-level memory experiment on the \[\[8,3,2\]\] cube code: prepare
/// logical |000⟩ by measuring the four Z stabilizers through ancillas 8..12
/// for `rounds` rounds, then read the data out transversally in Z with final
/// stabilizer detectors and the three logical Z observables (cube edges).
///
/// The noise knobs map onto the block structure: `p_prep` flips every qubit
/// after the initial reset, `p_idle` hits the data once per round, `p2`
/// depolarizes each stabilizer's CX group, and `p_meas` flips ancilla
/// readouts each round and the final data readout. Channels with zero
/// probability are omitted from the circuit entirely, so the reduced model
/// `{p2: 0, p_prep: 0, p_idle: p, p_meas: p}` at `rounds = 2` reproduces the
/// PR 2 golden fixture circuit (`tests/golden_dem.rs`) op for op.
///
/// Detectors come out in uniform layers of four (one per stabilizer) per
/// round plus one final layer, so the circuit is streamable with
/// `detectors_per_layer = 4`.
///
/// # Example
///
/// ```
/// use raa_surface::code832::Code832MemoryExperiment;
/// use raa_surface::NoiseModel;
///
/// let exp = Code832MemoryExperiment {
///     rounds: 4,
///     noise: NoiseModel::uniform(1e-3),
/// };
/// let circuit = exp.build();
/// // Four stabilizer detectors per round plus a final layer of four.
/// assert_eq!(circuit.num_detectors(), 4 * 5);
/// assert_eq!(circuit.num_observables(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Code832MemoryExperiment {
    /// Number of stabilizer-measurement rounds (≥ 1).
    pub rounds: usize,
    /// Noise strengths (see the struct-level docs for the mapping).
    pub noise: crate::builder::NoiseModel,
}

impl Code832MemoryExperiment {
    /// Builds the noisy circuit.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn build(&self) -> raa_stabsim::Circuit {
        use raa_stabsim::{Circuit, MeasRecord};
        assert!(self.rounds >= 1, "need at least one stabilizer round");
        let noise = self.noise;
        let data: Vec<u32> = (0..8).collect();
        let anc: Vec<u32> = (8..12).collect();
        let n_anc = anc.len();
        let mut c = Circuit::new();
        c.r(&[data.clone(), anc.clone()].concat());
        if noise.p_prep > 0.0 {
            c.x_error(&[data.clone(), anc.clone()].concat(), noise.p_prep);
        }
        for round in 0..self.rounds {
            if noise.p_idle > 0.0 {
                c.x_error(&data, noise.p_idle);
            }
            for (i, &stab) in Z_STABILIZER_GENERATORS.iter().enumerate() {
                let pairs: Vec<(u32, u32)> = (0..8)
                    .filter(|&v| stab >> v & 1 == 1)
                    .map(|v| (v as u32, anc[i]))
                    .collect();
                c.cx(&pairs);
                if noise.p2 > 0.0 {
                    c.depolarize2(&pairs, noise.p2);
                }
            }
            if noise.p_meas > 0.0 {
                c.x_error(&anc, noise.p_meas);
            }
            c.mr(&anc);
            for i in 0..n_anc {
                if round == 0 {
                    // First round: the stabilizers of |0...0⟩ are deterministic.
                    c.detector(&[MeasRecord::back(n_anc - i)]);
                } else {
                    c.detector(&[MeasRecord::back(n_anc - i), MeasRecord::back(2 * n_anc - i)]);
                }
            }
        }
        if noise.p_meas > 0.0 {
            c.x_error(&data, noise.p_meas);
        }
        c.m(&data);
        // Final stabilizer checks against the last ancilla round.
        for (i, &stab) in Z_STABILIZER_GENERATORS.iter().enumerate() {
            let mut recs: Vec<MeasRecord> = (0..8u32)
                .filter(|&v| stab >> v & 1 == 1)
                .map(|v| MeasRecord::back(8 - v as usize))
                .collect();
            recs.push(MeasRecord::back(8 + n_anc - i));
            c.detector(&recs);
        }
        for (k, &logical) in Z_LOGICALS.iter().enumerate() {
            let recs: Vec<MeasRecord> = (0..8u32)
                .filter(|&v| logical >> v & 1 == 1)
                .map(|v| MeasRecord::back(8 - v as usize))
                .collect();
            c.observable_include(k, &recs);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raa_stabsim::pauli::PauliString;

    fn to_string_z(mask: u8) -> PauliString {
        PauliString::z_on((0..8).filter(|&i| mask >> i & 1 == 1))
    }

    fn to_string_x(mask: u8) -> PauliString {
        PauliString::x_on((0..8).filter(|&i| mask >> i & 1 == 1))
    }

    #[test]
    fn stabilizers_commute_with_each_other_and_x8() {
        let x8 = to_string_x(0xFF);
        for &z in &Z_STABILIZER_GENERATORS {
            assert!(to_string_z(z).commutes_with(&x8));
            assert!(z.count_ones() == 4 || z.count_ones() == 8);
        }
    }

    #[test]
    fn logical_algebra() {
        for (i, &zl) in Z_LOGICALS.iter().enumerate() {
            for (j, &xl) in X_LOGICALS.iter().enumerate() {
                let zi = to_string_z(zl);
                let xj = to_string_x(xl);
                if i == j {
                    assert!(!zi.commutes_with(&xj), "Z{i} must anticommute with X{i}");
                } else {
                    assert!(zi.commutes_with(&xj), "Z{i} must commute with X{j}");
                }
            }
        }
        // Logicals commute with stabilizers.
        for &l in Z_LOGICALS.iter() {
            let lz = to_string_z(l);
            assert!(lz.commutes_with(&to_string_x(0xFF)) == (l.count_ones() % 2 == 0));
        }
        for &l in X_LOGICALS.iter() {
            let lx = to_string_x(l);
            for &s in &Z_STABILIZER_GENERATORS {
                assert!(lx.commutes_with(&to_string_z(s)));
            }
        }
    }

    #[test]
    fn group_has_sixteen_elements_of_even_weight() {
        let g = z_stabilizer_group();
        assert_eq!(g.len(), 16);
        let mut sorted = g.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "group elements must be distinct");
        for el in g {
            assert!(
                el == 0 || el.count_ones() == 4 || el == 0xFF,
                "element {el:#010b}"
            );
        }
    }

    #[test]
    fn all_single_errors_detected() {
        for i in 0..8 {
            assert_eq!(classify_z_error(1 << i), ZErrorClass::Detected);
        }
    }

    #[test]
    fn exactly_28_weight_two_harmful_patterns() {
        // This is the paper's Eq. (8) coefficient.
        let (w2, w4, w6, w8) = harmful_pattern_counts();
        assert_eq!(w2, 28);
        assert_eq!(w4, 70 - 14); // all weight-4 minus the 14 stabilizers
        assert_eq!(w6, 28);
        assert_eq!(w8, 0); // Z⊗8 is itself a stabilizer
    }

    #[test]
    fn output_error_matches_28_p_squared() {
        for p in [1e-3, 1e-4, 1e-5] {
            let exact = output_error_exact(p);
            let model = 28.0 * p * p;
            assert!(
                (exact / model - 1.0).abs() < 0.05,
                "p = {p}: exact {exact}, model {model}"
            );
        }
    }

    #[test]
    fn rejection_probability_is_about_8p() {
        let p = 1e-4;
        let r = rejection_probability(p);
        assert!((r / (8.0 * p) - 1.0).abs() < 0.01, "r = {r}");
    }

    #[test]
    fn logical_action_of_weight_two_patterns_is_nontrivial() {
        for i in 0..8u8 {
            for j in (i + 1)..8 {
                let mask = (1 << i) | (1 << j);
                let action = logical_action(mask).expect("even weight");
                assert_ne!(
                    action, 0,
                    "pattern {mask:#010b} should act nontrivially on the logicals"
                );
            }
        }
    }

    #[test]
    fn stabilizers_have_trivial_logical_action() {
        for el in z_stabilizer_group() {
            assert_eq!(logical_action(el), Some(0), "element {el:#010b}");
        }
    }

    #[test]
    fn memory_experiment_layers_uniformly() {
        use crate::builder::NoiseModel;
        for rounds in 1..=5 {
            let exp = Code832MemoryExperiment {
                rounds,
                noise: NoiseModel::uniform(1e-3),
            };
            let c = exp.build();
            assert_eq!(c.num_detectors(), 4 * (rounds + 1));
            assert_eq!(c.num_observables(), 3);
        }
    }

    #[test]
    fn memory_experiment_detectors_are_deterministic() {
        use crate::builder::NoiseModel;
        use raa_stabsim::TableauSim;
        let c = Code832MemoryExperiment {
            rounds: 3,
            noise: NoiseModel::uniform(1e-3),
        }
        .build();
        let reference = TableauSim::reference_sample(&c);
        for d in 0..c.num_detectors() {
            let parity = c
                .detector_measurements(d)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "detector {d} not deterministic");
        }
        for o in 0..c.num_observables() {
            let parity = c
                .observable(o)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "observable {o} not deterministic");
        }
    }

    proptest! {
        /// Classification is consistent: harmful ⇔ even weight, nontrivial action.
        #[test]
        fn classification_consistency(mask in 0u8..) {
            let class = classify_z_error(mask);
            match class {
                ZErrorClass::Detected => prop_assert!(mask.count_ones() % 2 == 1),
                ZErrorClass::Harmless => {
                    prop_assert_eq!(logical_action(mask), Some(0));
                }
                ZErrorClass::Harmful => {
                    prop_assert!(mask.count_ones() % 2 == 0);
                    prop_assert!(logical_action(mask).unwrap() != 0);
                }
            }
        }

        /// The exact output error is monotone in p on [0, 0.2].
        #[test]
        fn output_error_monotone(a in 0.0f64..0.2, b in 0.0f64..0.2) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(output_error_exact(lo) <= output_error_exact(hi) + 1e-15);
        }
    }
}
