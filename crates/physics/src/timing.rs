//! Derived QEC-cycle timing for the transversal architecture.
//!
//! The dominant timescales of the platform are atom movement and measurement
//! (§II.1). During a syndrome-extraction (SE) round each measure ancilla visits
//! its four neighbouring data qubits (Fig. 4a), so the gate segment of a cycle is
//! four ancilla hops of about one site each plus five entangling-gate layers —
//! roughly 400 µs with Table I numbers (§IV.2). Ancilla measurement (500 µs) is
//! pipelined with the moves for the next transversal gate, because moving a code
//! patch across one logical-qubit pitch also takes ≈500 µs at d = 27. The full
//! QEC cycle is therefore the gate segment plus the pipelined
//! measure/patch-move segment: ≈0.9 ms, matching the paper's ≈1 ms headline.

use crate::motion::move_time_sites;
use crate::params::PhysicalParams;

/// Number of data-qubit neighbours visited by a measure ancilla per SE round.
const SE_HOPS: u32 = 4;

/// Number of physical gate layers per SE round (4 CX layers + ancilla init/H).
const SE_GATE_LAYERS: u32 = 5;

/// Timing model for one QEC cycle of a distance-`d` patch under block moves.
///
/// # Example
///
/// ```
/// use raa_physics::{CycleModel, PhysicalParams};
///
/// let cycle = CycleModel::new(&PhysicalParams::default(), 27);
/// // Gate segment ~ 0.4 ms; patch move ~ 0.5 ms == measurement, so they pipeline.
/// assert!((cycle.gate_segment() - 0.4e-3).abs() < 0.1e-3);
/// assert!((cycle.patch_move_time() - 0.49e-3).abs() < 0.05e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleModel {
    params: PhysicalParams,
    distance: u32,
}

impl CycleModel {
    /// Builds the cycle model for code distance `distance`.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is zero.
    pub fn new(params: &PhysicalParams, distance: u32) -> Self {
        assert!(distance >= 1, "code distance must be at least 1");
        Self {
            params: *params,
            distance,
        }
    }

    /// Duration of the gate segment of one SE round: four single-site ancilla
    /// hops plus the entangling-gate layers (≈400 µs with Table I values, §IV.2).
    pub fn gate_segment(&self) -> f64 {
        f64::from(SE_HOPS) * move_time_sites(&self.params, 1.0)
            + f64::from(SE_GATE_LAYERS) * self.params.gate_time
    }

    /// Time to move a code patch across one logical-qubit pitch (`d` sites).
    pub fn patch_move_time(&self) -> f64 {
        move_time_sites(&self.params, f64::from(self.distance))
    }

    /// Duration of one full QEC cycle: the gate segment followed by the
    /// measurement segment, where ancilla readout is pipelined with the patch
    /// move for the next transversal gate (§IV.2). The measurement segment is
    /// therefore `max(measure_time, patch_move_time)`.
    pub fn cycle_time(&self) -> f64 {
        self.gate_segment() + self.params.measure_time.max(self.patch_move_time())
    }

    /// Duration of one transversal logical gate step with `se_rounds` SE rounds
    /// per gate: the interleave move plus `se_rounds` QEC cycles. Transversal H
    /// and S (permutation/fold moves) are assumed to take the same time as
    /// entangling gates (§IV.1).
    pub fn transversal_step(&self, se_rounds: f64) -> f64 {
        assert!(
            se_rounds.is_finite() && se_rounds > 0.0,
            "SE rounds per gate must be positive, got {se_rounds}"
        );
        self.params.gate_time + se_rounds * self.cycle_time()
    }

    /// QEC cycle duration for an *idle* (storage) patch where no transversal
    /// gates are pending: gate segment plus bare measurement time.
    pub fn idle_cycle_time(&self) -> f64 {
        self.gate_segment() + self.params.measure_time
    }

    /// The reaction time: measurement plus decoding latency (§II.2).
    pub fn reaction_time(&self) -> f64 {
        self.params.reaction_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model(d: u32) -> CycleModel {
        CycleModel::new(&PhysicalParams::default(), d)
    }

    #[test]
    fn gate_segment_near_400_us() {
        // §IV.2: "the gates in a QEC cycle taking around 400 us".
        let g = model(27).gate_segment();
        assert!((g - 400e-6).abs() < 50e-6, "gate segment = {g}");
    }

    #[test]
    fn patch_move_matches_measure_time_at_d27() {
        // §IV.2: patch move ~ 500 us == measurement time, enabling pipelining.
        let m = model(27);
        let ratio = m.patch_move_time() / m.params.measure_time;
        assert!((ratio - 1.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn cycle_time_near_1_ms() {
        let c = model(27).cycle_time();
        assert!(c > 0.8e-3 && c < 1.0e-3, "cycle = {c}");
    }

    #[test]
    fn faster_acceleration_shortens_cycle() {
        let fast = PhysicalParams::default().with_acceleration_scaled(4.0);
        assert!(CycleModel::new(&fast, 27).cycle_time() < model(27).cycle_time());
    }

    #[test]
    fn transversal_step_scales_with_rounds() {
        let m = model(27);
        let one = m.transversal_step(1.0);
        let two = m.transversal_step(2.0);
        assert!((two - one - m.cycle_time()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_distance_panics() {
        let _ = model(0);
    }

    proptest! {
        /// Cycle time grows (weakly) with code distance: larger patches mean
        /// longer interleave moves once they exceed the measurement time.
        #[test]
        fn cycle_monotone_in_distance(d in 3u32..80) {
            prop_assert!(model(d + 2).cycle_time() >= model(d).cycle_time() - 1e-12);
        }

        /// The idle cycle is never longer than the transversal-gate cycle.
        #[test]
        fn idle_cycle_not_longer(d in 3u32..80) {
            prop_assert!(model(d).idle_cycle_time() <= model(d).cycle_time() + 1e-15);
        }
    }
}
