//! Platform parameters for dynamically-reconfigurable neutral atom arrays (Table I).

use std::fmt;

/// Physical parameters of the neutral-atom platform, following Table I of the paper.
///
/// All times are in seconds and all lengths in metres. The defaults reproduce
/// Table I: site spacing 12 µm, effective acceleration 5500 m/s² (calibrated from
/// moving 55 µm in 200 µs), 1 µs entangling gates, 500 µs measurement, 500 µs
/// decoding latency and a 10 s idle coherence time (§IV.2).
///
/// # Example
///
/// ```
/// use raa_physics::params::PhysicalParams;
///
/// let p = PhysicalParams::default();
/// assert_eq!(p.site_spacing, 12e-6);
/// // Reaction time = measurement + decoding round trip (§II.2): 1 ms.
/// assert!((p.reaction_time() - 1e-3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalParams {
    /// Lattice spacing between neighbouring trap sites, in metres (Table I: 12 µm).
    pub site_spacing: f64,
    /// Effective acceleration/deceleration during atom moves, in m/s² (Table I: 5500).
    pub acceleration: f64,
    /// Duration of one physical (Rydberg) entangling gate layer, in seconds (Table I: 1 µs).
    pub gate_time: f64,
    /// Duration of a projective qubit measurement, in seconds (Table I: 500 µs).
    pub measure_time: f64,
    /// Classical decoding latency contributing to the reaction time, in seconds (Table I: 500 µs).
    pub decode_time: f64,
    /// Idle coherence time of a stored qubit, in seconds (§IV.2 assumes 10 s).
    pub coherence_time: f64,
}

impl Default for PhysicalParams {
    fn default() -> Self {
        Self {
            site_spacing: 12e-6,
            acceleration: 5500.0,
            gate_time: 1e-6,
            measure_time: 500e-6,
            decode_time: 500e-6,
            coherence_time: 10.0,
        }
    }
}

impl PhysicalParams {
    /// Round-trip reaction time of the control system (§II.2): the time from a
    /// measurement to the next conditional quantum operation. Modelled as
    /// measurement plus decoding latency, giving the paper's assumed 1 ms.
    pub fn reaction_time(&self) -> f64 {
        self.measure_time + self.decode_time
    }

    /// Returns a copy with the acceleration rescaled by `factor` (Fig. 14a/b sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn with_acceleration_scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "acceleration scale factor must be positive and finite, got {factor}"
        );
        self.acceleration *= factor;
        self
    }

    /// Returns a copy with the given coherence time (Fig. 13b sweep).
    ///
    /// # Panics
    ///
    /// Panics if `coherence_time` is not strictly positive and finite.
    pub fn with_coherence_time(mut self, coherence_time: f64) -> Self {
        assert!(
            coherence_time.is_finite() && coherence_time > 0.0,
            "coherence time must be positive and finite, got {coherence_time}"
        );
        self.coherence_time = coherence_time;
        self
    }

    /// Returns a copy with the given measurement and decoding times, so that the
    /// reaction time becomes `measure + decode` (Fig. 14c sweep).
    ///
    /// # Panics
    ///
    /// Panics if either time is negative or non-finite.
    pub fn with_readout(mut self, measure_time: f64, decode_time: f64) -> Self {
        assert!(
            measure_time.is_finite() && measure_time > 0.0,
            "measure time must be positive and finite, got {measure_time}"
        );
        assert!(
            decode_time.is_finite() && decode_time >= 0.0,
            "decode time must be non-negative and finite, got {decode_time}"
        );
        self.measure_time = measure_time;
        self.decode_time = decode_time;
        self
    }
}

impl fmt::Display for PhysicalParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "site spacing {:.1} um, acceleration {:.0} m/s^2, gate {:.1} us, \
             measure {:.0} us, decode {:.0} us, coherence {:.1} s",
            self.site_spacing * 1e6,
            self.acceleration,
            self.gate_time * 1e6,
            self.measure_time * 1e6,
            self.decode_time * 1e6,
            self.coherence_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_defaults() {
        let p = PhysicalParams::default();
        assert_eq!(p.site_spacing, 12e-6);
        assert_eq!(p.acceleration, 5500.0);
        assert_eq!(p.gate_time, 1e-6);
        assert_eq!(p.measure_time, 500e-6);
        assert_eq!(p.decode_time, 500e-6);
        assert_eq!(p.coherence_time, 10.0);
    }

    #[test]
    fn reaction_time_is_one_millisecond() {
        let p = PhysicalParams::default();
        assert!((p.reaction_time() - 1.0e-3).abs() < 1e-15);
    }

    #[test]
    fn acceleration_rescale() {
        let p = PhysicalParams::default().with_acceleration_scaled(2.0);
        assert_eq!(p.acceleration, 11000.0);
    }

    #[test]
    fn readout_override_changes_reaction_time() {
        let p = PhysicalParams::default().with_readout(100e-6, 50e-6);
        assert!((p.reaction_time() - 150e-6).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_acceleration_scale_panics() {
        let _ = PhysicalParams::default().with_acceleration_scaled(0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!PhysicalParams::default().to_string().is_empty());
    }
}
