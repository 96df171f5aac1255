//! The atom-movement time law.
//!
//! The time to move an atom a distance `L` while maintaining constant thermal
//! excitation is (Eq. 1 of the paper)
//!
//! ```text
//! t = 2 * sqrt(L / a)
//! ```
//!
//! where `a` is the effective acceleration during the first half and effective
//! deceleration during the second half of the trajectory. A constant-jerk
//! schedule has the same scaling; the Table I acceleration is calibrated from
//! measured move data (55 µm in 200 µs), so the law is accurate for that
//! schedule too (paper footnote \[42\]).

use crate::params::PhysicalParams;

/// Time in seconds to move an atom a distance of `distance` metres (Eq. 1).
///
/// Returns `0.0` for a zero-length move.
///
/// # Panics
///
/// Panics if `distance` is negative or non-finite, or if the acceleration in
/// `params` is not strictly positive.
///
/// # Example
///
/// ```
/// use raa_physics::{move_time, PhysicalParams};
///
/// let p = PhysicalParams::default();
/// // The calibration point: 55 um in ~200 us.
/// let t = move_time(&p, 55e-6);
/// assert!((t - 200e-6).abs() < 1e-6);
/// ```
// raa-audit: allow(orphan-pub): paper_numbers.rs checks the Eq. (1) move times against the paper.
pub fn move_time(params: &PhysicalParams, distance: f64) -> f64 {
    assert!(
        distance.is_finite() && distance >= 0.0,
        "move distance must be non-negative and finite, got {distance}"
    );
    assert!(
        params.acceleration > 0.0,
        "acceleration must be positive, got {}",
        params.acceleration
    );
    2.0 * (distance / params.acceleration).sqrt()
}

/// Time in seconds to move across `sites` lattice sites.
pub fn move_time_sites(params: &PhysicalParams, sites: f64) -> f64 {
    assert!(
        sites.is_finite() && sites >= 0.0,
        "site count must be non-negative and finite, got {sites}"
    );
    move_time(params, sites * params.site_spacing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p() -> PhysicalParams {
        PhysicalParams::default()
    }

    #[test]
    fn eq1_matches_calibration_point() {
        // Table I caption: acceleration calibrated from moving 55 um in 200 us.
        let t = move_time(&p(), 55e-6);
        assert!((t - 200e-6).abs() / 200e-6 < 0.01, "t = {t}");
    }

    #[test]
    fn patch_move_at_d27_is_about_500_us() {
        // §IV.2: moving a code patch across a logical qubit (27 sites) ~ 500 us.
        let t = move_time_sites(&p(), 27.0);
        assert!((t - 485e-6).abs() < 10e-6, "t = {t}");
    }

    #[test]
    fn zero_distance_is_instant() {
        assert_eq!(move_time(&p(), 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_distance_panics() {
        let _ = move_time(&p(), -1.0);
    }

    proptest! {
        /// Eq. (1) is monotone in distance: longer moves never take less time.
        #[test]
        fn move_time_is_monotone(a in 1e-7f64..1e-2, b in 1e-7f64..1e-2) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(move_time(&p(), lo) <= move_time(&p(), hi));
        }

        /// sqrt concavity: one long move is faster than two moves of half the
        /// distance (favouring layouts with few long hops over many short ones,
        /// but the paper keeps moves short to bound the *per-step* latency).
        #[test]
        fn single_move_beats_split_move(dist in 1e-6f64..1e-3) {
            let whole = move_time(&p(), dist);
            let halves = 2.0 * move_time(&p(), dist / 2.0);
            prop_assert!(whole <= halves + 1e-15);
        }

        /// Doubling acceleration reduces the move time by sqrt(2).
        #[test]
        fn acceleration_scaling(dist in 1e-6f64..1e-3) {
            let fast = PhysicalParams::default().with_acceleration_scaled(2.0);
            let ratio = move_time(&p(), dist) / move_time(&fast, dist);
            prop_assert!((ratio - 2f64.sqrt()).abs() < 1e-9);
        }
    }
}
