//! Atom-movement time model and AOD block-move plans.
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

use crate::geometry::Site;
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

/// One rigid translation of a block of atoms picked up by the AOD tweezers.
///
/// AOD constraints are modelled as rigid translations: every atom in the block
/// moves by the same displacement, so rows and columns cannot cross. The move
/// time depends only on the Euclidean displacement length (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveSegment {
    /// Displacement in lattice sites along x.
    pub dx: f64,
    /// Displacement in lattice sites along y.
    pub dy: f64,
}

impl MoveSegment {
    /// Creates a move by `(dx, dy)` lattice sites.
    pub fn new(dx: f64, dy: f64) -> Self {
        Self { dx, dy }
    }

    /// Euclidean length of the displacement in lattice sites.
    pub fn length_sites(&self) -> f64 {
        self.dx.hypot(self.dy)
    }

    /// Duration of this segment under Eq. (1).
    pub fn duration(&self, params: &PhysicalParams) -> f64 {
        move_time_sites(params, self.length_sites())
    }
}

/// A sequence of rigid block moves executed one after another.
///
/// Segments are executed sequentially (a single AOD can only perform one
/// translation at a time); the plan duration is the sum of segment durations.
/// Use one plan per parallel AOD channel.
///
/// # Example
///
/// ```
/// use raa_physics::{MovePlan, MoveSegment, PhysicalParams};
///
/// let p = PhysicalParams::default();
/// let mut plan = MovePlan::new();
/// plan.push(MoveSegment::new(1.0, 0.0));
/// plan.push(MoveSegment::new(0.0, 1.0));
/// assert!(plan.duration(&p) > 0.0);
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MovePlan {
    segments: Vec<MoveSegment>,
}

impl MovePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment to the plan.
    pub fn push(&mut self, segment: MoveSegment) -> &mut Self {
        self.segments.push(segment);
        self
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the plan has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Iterates over the segments in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, MoveSegment> {
        self.segments.iter()
    }

    /// Total duration of the plan: the sum of Eq. (1) times over segments.
    pub fn duration(&self, params: &PhysicalParams) -> f64 {
        self.segments.iter().map(|s| s.duration(params)).sum()
    }

    /// Total path length in lattice sites.
    pub fn length_sites(&self) -> f64 {
        self.segments.iter().map(|s| s.length_sites()).sum()
    }

    /// Net displacement of the block after all segments, in lattice sites.
    pub fn net_displacement(&self) -> (f64, f64) {
        self.segments
            .iter()
            .fold((0.0, 0.0), |(x, y), s| (x + s.dx, y + s.dy))
    }

    /// The plan that interleaves two logical patches for a transversal gate:
    /// pick up one patch and overlay it onto the other, a move of `d` sites
    /// (one logical-patch pitch), then return it afterwards.
    ///
    /// The paper's §IV.2 notes this takes ≈500 µs at d = 27, matching the
    /// measurement time so the two pipeline.
    pub fn patch_overlay(distance_sites: u32) -> Self {
        let mut plan = Self::new();
        plan.push(MoveSegment::new(f64::from(distance_sites), 0.0));
        plan
    }
}

impl FromIterator<MoveSegment> for MovePlan {
    fn from_iter<I: IntoIterator<Item = MoveSegment>>(iter: I) -> Self {
        Self {
            segments: iter.into_iter().collect(),
        }
    }
}

impl Extend<MoveSegment> for MovePlan {
    fn extend<I: IntoIterator<Item = MoveSegment>>(&mut self, iter: I) {
        self.segments.extend(iter);
    }
}

/// Plans a rigid move between two sites, as a single diagonal segment.
pub fn plan_between(from: Site, to: Site) -> MovePlan {
    let mut plan = MovePlan::new();
    let (dx, dy) = (to.x - from.x, to.y - from.y);
    if dx != 0 || dy != 0 {
        plan.push(MoveSegment::new(dx as f64, dy as f64));
    }
    plan
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
    fn plan_duration_is_sum_of_segments() {
        let mut plan = MovePlan::new();
        plan.push(MoveSegment::new(3.0, 4.0));
        plan.push(MoveSegment::new(0.0, 2.0));
        let d = plan.duration(&p());
        let expect = move_time_sites(&p(), 5.0) + move_time_sites(&p(), 2.0);
        assert!((d - expect).abs() < 1e-12);
        assert_eq!(plan.net_displacement(), (3.0, 6.0));
    }

    #[test]
    fn plan_between_sites() {
        let plan = plan_between(Site::new(0, 0), Site::new(3, 4));
        assert_eq!(plan.len(), 1);
        assert!((plan.length_sites() - 5.0).abs() < 1e-12);
        assert!(plan_between(Site::new(1, 1), Site::new(1, 1)).is_empty());
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
