//! The transversal logical-error model: Eqs. (2)–(6) of the paper.
//!
//! Below threshold, the logical error rate per SE round per logical qubit is
//! exponentially suppressed in the code distance (Eq. 2):
//!
//! ```text
//! p_L = C · Λ^-((d+1)/2),      Λ = p_thres / p_phys .
//! ```
//!
//! Transversal gates add physical error locations to each SE round. With `x`
//! transversal CNOTs per round and decoding factor `α`, the per-CNOT logical
//! error is the paper's Eq. (4):
//!
//! ```text
//! p_L,CNOT = (2C/x) · ((αx + 1)/Λ)^((d+1)/2)
//! ```
//!
//! (factor 2: a CNOT touches two logical qubits; 1/x: the round's cost is
//! amortized over x CNOTs; αx+1: the elevated effective noise). As x → 0
//! this recovers the memory limit, and the effective threshold drops to
//! Eq. (5): `p_thres,eff = p_thres/(αx+1)`.

use crate::params::ErrorModelParams;

/// Logical error rate per qubit per SE round for an idle memory (Eq. 2):
/// the `x → 0` reference the Eq. (3)/(4) and idle-period tests compare to.
#[cfg(test)]
pub(crate) fn memory_error_per_round(params: &ErrorModelParams, distance: u32) -> f64 {
    check_distance(distance);
    params.c * params.lambda().powf(-f64::from(distance + 1) / 2.0)
}

/// Logical error rate per qubit per SE round with `x` transversal CNOTs per
/// round (Eq. 3 with the CNOT weight folded into `α`).
pub fn error_per_qubit_round(params: &ErrorModelParams, distance: u32, x: f64) -> f64 {
    check_distance(distance);
    check_x(x);
    let base = (params.alpha * x + 1.0) / params.lambda();
    params.c * base.powf(f64::from(distance + 1) / 2.0)
}

/// Logical error rate per transversal CNOT, both qubits included (Eq. 4).
///
/// `x` is the number of transversal CNOTs per SE round; `x → 0` recovers the
/// memory limit (per-round error divided across many rounds... i.e. diverges
/// per CNOT as rounds accumulate, which is why O(1) rounds per gate wins).
pub fn cnot_error(params: &ErrorModelParams, distance: u32, x: f64) -> f64 {
    check_distance(distance);
    check_x(x);
    let base = (params.alpha * x + 1.0) / params.lambda();
    (2.0 * params.c / x) * base.powf(f64::from(distance + 1) / 2.0)
}

/// Effective threshold under `x` transversal CNOTs per SE round (Eq. 5).
///
/// # Example
///
/// ```
/// use raa_core::{logical, ErrorModelParams};
///
/// let p = ErrorModelParams::paper();
/// // α = 1/6, x = 1: 1% / (7/6) ≈ 0.86%, the paper's quoted value.
/// let eff = logical::effective_threshold(&p, 1.0);
/// assert!((eff - 0.857e-2).abs() < 0.01e-2);
/// ```
pub fn effective_threshold(params: &ErrorModelParams, x: f64) -> f64 {
    check_x_allow_zero(x);
    params.p_thres / (params.alpha * x + 1.0)
}

/// Smallest odd code distance whose per-CNOT logical error (Eq. 4) is at most
/// `target`, or `None` if even `d = max_distance` cannot reach it: the
/// discrete reference for [`continuous_distance_for_cnot_target`].
#[cfg(test)]
fn distance_for_cnot_target(
    params: &ErrorModelParams,
    x: f64,
    target: f64,
    max_distance: u32,
) -> Option<u32> {
    check_target(target);
    (3..=max_distance)
        .step_by(2)
        .find(|&d| cnot_error(params, d, x) <= target)
}

/// Continuous-distance solution of Eq. (4) for a target per-CNOT error:
/// `d = 2·ln(2C/(x·target)) / ln(Λ/(αx+1)) − 1`. Used inside the volume
/// formula (Eq. 6); returns `None` when the effective suppression base is
/// not below 1 (above effective threshold) or the target is already met at d→0.
pub(crate) fn continuous_distance_for_cnot_target(
    params: &ErrorModelParams,
    x: f64,
    target: f64,
) -> Option<f64> {
    check_x(x);
    check_target(target);
    let base = (params.alpha * x + 1.0) / params.lambda();
    if base >= 1.0 {
        return None;
    }
    let ratio = 2.0 * params.c / (x * target);
    if ratio <= 1.0 {
        return Some(0.0);
    }
    Some(2.0 * ratio.ln() / (1.0 / base).ln() - 1.0)
}

/// Space–time volume per logical CNOT as a function of `x` (Eq. 6):
/// `V ∝ d(x)² · (4/x + 1)` with `d(x)` the continuous distance meeting
/// `target`. The first factor is qubits, the second counts the SE-round
/// CNOT layers (4 per round) amortized per transversal CNOT.
///
/// Returns `None` above the effective threshold.
pub fn volume_per_cnot(params: &ErrorModelParams, x: f64, target: f64) -> Option<f64> {
    let d = continuous_distance_for_cnot_target(params, x, target)?;
    Some(d * d * (4.0 / x + 1.0))
}

/// The `x` minimizing [`volume_per_cnot`] on a log grid (the paper finds the
/// optimum at ≲ 1 SE round per CNOT, i.e. x ≳ 1, for its parameters).
pub fn optimal_cnots_per_round(params: &ErrorModelParams, target: f64) -> f64 {
    let mut best = (f64::INFINITY, 1.0);
    let mut x = 0.05f64;
    while x <= 32.0 {
        if let Some(v) = volume_per_cnot(params, x, target) {
            if v < best.0 {
                best = (v, x);
            }
        }
        x *= 1.02;
    }
    best.1
}

fn check_distance(d: u32) {
    assert!(d >= 1, "code distance must be at least 1");
}

fn check_x(x: f64) {
    assert!(
        x.is_finite() && x > 0.0,
        "CNOTs per SE round must be positive, got {x}"
    );
}

fn check_x_allow_zero(x: f64) {
    assert!(
        x.is_finite() && x >= 0.0,
        "CNOTs per SE round must be non-negative, got {x}"
    );
}

fn check_target(t: f64) {
    assert!(
        t.is_finite() && t > 0.0 && t < 1.0,
        "target error must be in (0, 1), got {t}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p() -> ErrorModelParams {
        ErrorModelParams::paper()
    }

    #[test]
    fn memory_error_matches_closed_form() {
        // d = 27, Λ = 10: 0.1 * 10^-14.
        let rate = memory_error_per_round(&p(), 27);
        assert!((rate - 1e-15).abs() / 1e-15 < 1e-9, "{rate}");
    }

    #[test]
    fn eq4_recovers_memory_limit_as_x_vanishes() {
        // x·p_L,CNOT/2 → memory rate as x → 0.
        let d = 15;
        let x = 1e-6;
        let per_round_equivalent = cnot_error(&p(), d, x) * x / 2.0;
        let memory = memory_error_per_round(&p(), d);
        assert!((per_round_equivalent / memory - 1.0).abs() < 1e-3);
    }

    #[test]
    fn effective_threshold_at_one_cnot_per_round() {
        // The paper quotes ~0.86% for α = 1/6 and 0.67% for α = 1/2.
        let eff1 = effective_threshold(&p(), 1.0);
        assert!((eff1 * 100.0 - 0.857).abs() < 0.01, "{eff1}");
        let eff2 = effective_threshold(&p().with_alpha(0.5), 1.0);
        assert!((eff2 * 100.0 - 0.667).abs() < 0.01, "{eff2}");
    }

    #[test]
    fn distance_selection_is_minimal_odd() {
        let d = distance_for_cnot_target(&p(), 1.0, 1e-12, 99).unwrap();
        assert!(d % 2 == 1);
        assert!(cnot_error(&p(), d, 1.0) <= 1e-12);
        if d > 3 {
            assert!(cnot_error(&p(), d - 2, 1.0) > 1e-12);
        }
        // The paper's Table II uses d = 27 for its (stricter) total budget;
        // a bare 1e-12 per-CNOT target needs a bit less.
        assert!((15..=31).contains(&d), "d = {d}");
    }

    #[test]
    fn unreachable_target_returns_none() {
        assert_eq!(distance_for_cnot_target(&p(), 1.0, 1e-30, 9), None);
        // Above effective threshold: no distance helps.
        let hot = p().with_p_phys(9.9e-3); // Λ ≈ 1.01; αx+1 pushes base > 1
        assert_eq!(continuous_distance_for_cnot_target(&hot, 4.0, 1e-12), None);
    }

    #[test]
    fn optimal_x_is_order_one() {
        // Fig. 6(b): optimum at ≲ 1 SE round per CNOT (x ≈ 1-4) for 1e-12.
        let x = optimal_cnots_per_round(&p(), 1e-12);
        assert!((0.5..=8.0).contains(&x), "x = {x}");
    }

    #[test]
    fn volume_tradeoff_is_u_shaped() {
        let t = 1e-12;
        let v_small = volume_per_cnot(&p(), 0.05, t).unwrap();
        let x_opt = optimal_cnots_per_round(&p(), t);
        let v_opt = volume_per_cnot(&p(), x_opt, t).unwrap();
        let v_large = volume_per_cnot(&p(), 30.0, t).unwrap();
        assert!(v_opt < v_small, "opt {v_opt} vs small-x {v_small}");
        assert!(v_opt < v_large, "opt {v_opt} vs large-x {v_large}");
    }

    proptest! {
        /// Eq. 4 is monotonically decreasing in distance.
        #[test]
        fn cnot_error_decreases_with_distance(k in 1u32..30, x in 0.1f64..8.0) {
            let d = 2 * k + 1;
            prop_assert!(cnot_error(&p(), d + 2, x) < cnot_error(&p(), d, x));
        }

        /// Per-round error increases with x (more gates, more noise).
        #[test]
        fn per_round_error_increases_with_x(k in 1u32..30, x in 0.1f64..8.0) {
            let d = 2 * k + 1;
            prop_assert!(
                error_per_qubit_round(&p(), d, x * 1.5) > error_per_qubit_round(&p(), d, x)
            );
        }

        /// Effective threshold decreases with x and α.
        #[test]
        fn threshold_monotonicity(x in 0.0f64..8.0, alpha in 0.01f64..2.0) {
            let params = p().with_alpha(alpha);
            prop_assert!(effective_threshold(&params, x + 0.5) < effective_threshold(&params, x));
            let harder = p().with_alpha(alpha + 0.1);
            prop_assert!(effective_threshold(&harder, 1.0) < effective_threshold(&params, 1.0));
        }

        /// Discrete distance selection brackets the continuous solution.
        #[test]
        fn discrete_vs_continuous_distance(exp in 6i32..14) {
            let target = 10f64.powi(-exp);
            let x = 1.0;
            let cont = continuous_distance_for_cnot_target(&p(), x, target).unwrap();
            let disc = distance_for_cnot_target(&p(), x, target, 99).unwrap();
            prop_assert!(f64::from(disc) + 1e-9 >= cont, "disc {disc} cont {cont}");
            prop_assert!(f64::from(disc) <= cont + 2.0, "disc {disc} cont {cont}");
        }
    }
}
