//! Rotation synthesis cost models (the "Rot. synth." building block of the
//! paper's Fig. 1 and the SELECT rotations of §III.3).
//!
//! Two standard routes turn arbitrary-angle Z rotations into the
//! architecture's native resources:
//!
//! * **Direct synthesis**: a Clifford+T approximation of `Rz(θ)` to accuracy
//!   ε costs ≈ `3·log₂(1/ε)` T gates (repeat-until-success/gridsynth-class
//!   constructions), i.e. ≈ `1.5·log₂(1/ε)` CCZ-equivalents through the
//!   catalysis of Ref. \[99\];
//! * **Phase-gradient addition** \[21\]: adding the angle register into a
//!   resident `b`-bit phase-gradient state costs one `b`-bit addition
//!   (≈ `b` temporary-AND Toffolis) and is the paper's preferred route for
//!   batched controlled rotations (§III.3).

/// T gates for one `Rz` to accuracy `epsilon` by direct Clifford+T synthesis.
///
/// # Panics
///
/// Panics unless `epsilon` is in (0, 1).
pub fn t_count_direct(epsilon: f64) -> f64 {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "accuracy must be in (0, 1), got {epsilon}"
    );
    3.0 * (1.0 / epsilon).log2()
}

/// CCZ-equivalents for one direct synthesis (2 T per CCZ via catalysis \[99\]).
pub fn ccz_count_direct(epsilon: f64) -> f64 {
    t_count_direct(epsilon) / 2.0
}

/// Toffoli count of one phase-gradient rotation at `bits` bits of angle
/// resolution (one temporary-AND per bit of the addition).
pub fn toffoli_count_phase_gradient(bits: u32) -> u64 {
    u64::from(bits)
}

/// Angle resolution (bits) needed so a phase-gradient rotation reaches
/// accuracy `epsilon`: `b ≈ log₂(1/ε)` plus one guard bit.
pub fn phase_gradient_bits(epsilon: f64) -> u32 {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "accuracy must be in (0, 1), got {epsilon}"
    );
    ((1.0 / epsilon).log2().ceil() as u32) + 1
}

/// Which synthesis route is cheaper in CCZ-equivalents for `rotations`
/// rotations at shared accuracy `epsilon`.
///
/// The phase-gradient route pays the gradient state once (amortized away at
/// volume) but one addition per rotation; direct synthesis pays per rotation
/// with no resident state. For the multi-rotation SELECT workloads of §III.3
/// the gradient route wins (and is what the paper assumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthesisRoute {
    /// Per-rotation Clifford+T approximation.
    Direct,
    /// Addition into a resident phase-gradient state.
    PhaseGradient,
}

/// Picks the cheaper route and returns it with its per-rotation CCZ cost.
pub fn cheapest_route(epsilon: f64) -> (SynthesisRoute, f64) {
    let direct = ccz_count_direct(epsilon);
    let gradient = toffoli_count_phase_gradient(phase_gradient_bits(epsilon)) as f64;
    if direct <= gradient {
        (SynthesisRoute::Direct, direct)
    } else {
        (SynthesisRoute::PhaseGradient, gradient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn direct_synthesis_scales_logarithmically() {
        assert!((t_count_direct(1e-10) - 3.0 * 10.0 * 10f64.log2()).abs() < 1e-9);
        assert!(t_count_direct(1e-15) > t_count_direct(1e-10));
    }

    #[test]
    fn gradient_bits_cover_accuracy() {
        assert_eq!(phase_gradient_bits(1e-3), 11);
        assert_eq!(phase_gradient_bits(0.5), 2);
        assert_eq!(toffoli_count_phase_gradient(20), 20);
    }

    #[test]
    fn route_choice_is_sane() {
        // At typical algorithm accuracies the two routes are comparable;
        // both must report finite positive costs and a consistent winner.
        for eps in [1e-6, 1e-10, 1e-15] {
            let (route, cost) = cheapest_route(eps);
            assert!(cost > 0.0);
            let other = match route {
                SynthesisRoute::Direct => {
                    toffoli_count_phase_gradient(phase_gradient_bits(eps)) as f64
                }
                SynthesisRoute::PhaseGradient => ccz_count_direct(eps),
            };
            assert!(cost <= other);
        }
    }

    #[test]
    #[should_panic(expected = "accuracy")]
    fn rejects_bad_epsilon() {
        let _ = t_count_direct(0.0);
    }

    proptest! {
        /// Costs are monotone in the accuracy demand.
        #[test]
        fn monotone_in_accuracy(e1 in 1e-15f64..1e-2, e2 in 1e-15f64..1e-2) {
            let (lo, hi) = if e1 < e2 { (e1, e2) } else { (e2, e1) };
            prop_assert!(t_count_direct(lo) >= t_count_direct(hi));
            prop_assert!(phase_gradient_bits(lo) >= phase_gradient_bits(hi));
        }
    }
}
