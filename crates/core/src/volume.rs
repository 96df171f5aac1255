//! Space–time accounting: qubits × seconds, the paper's optimization objective.

use std::fmt;
use std::ops::Add;

/// A space–time cost: physical qubits held for a duration.
///
/// The paper optimizes the product (its §II.2): "the space-time volume of the
/// computation, defined as the product of the qubit number and run time".
///
/// # Example
///
/// ```
/// use raa_core::volume::SpaceTime;
///
/// let st = SpaceTime::new(19e6, 5.6 * 86_400.0); // the paper's headline
/// assert!((st.volume_mqubit_days() - 19.0 * 5.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpaceTime {
    /// Physical qubits occupied.
    pub qubits: f64,
    /// Wall-clock duration in seconds.
    pub(crate) seconds: f64,
}

impl SpaceTime {
    /// Creates a cost of `qubits` held for `seconds`.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative or non-finite.
    pub fn new(qubits: f64, seconds: f64) -> Self {
        assert!(
            qubits.is_finite() && qubits >= 0.0,
            "qubit count must be non-negative, got {qubits}"
        );
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "duration must be non-negative, got {seconds}"
        );
        Self { qubits, seconds }
    }

    /// Volume in qubit·seconds.
    pub fn volume(&self) -> f64 {
        self.qubits * self.seconds
    }

    /// Volume in qubit·days.
    pub(crate) fn volume_qubit_days(&self) -> f64 {
        self.volume() / 86_400.0
    }

    /// Volume in megaqubit·days (the units of the paper's Fig. 2 comparisons).
    pub fn volume_mqubit_days(&self) -> f64 {
        self.volume_qubit_days() / 1e6
    }

    /// Duration in days.
    pub fn days(&self) -> f64 {
        self.seconds / 86_400.0
    }

    /// Sequential composition: same qubits held longer, or more qubits —
    /// returns the pointwise maximum footprint over the summed duration.
    pub(crate) fn then(&self, other: SpaceTime) -> SpaceTime {
        SpaceTime::new(self.qubits.max(other.qubits), self.seconds + other.seconds)
    }
}

impl Add for SpaceTime {
    type Output = SpaceTime;
    /// Adds volumes by sequential composition (`SpaceTime::then`).
    fn add(self, rhs: SpaceTime) -> SpaceTime {
        self.then(rhs)
    }
}

impl fmt::Display for SpaceTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} Mqubits x {:.2} days = {:.1} Mqubit-days",
            self.qubits / 1e6,
            self.days(),
            self.volume_mqubit_days()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_units() {
        let st = SpaceTime::new(2e6, 86_400.0);
        assert!((st.volume_qubit_days() - 2e6).abs() < 1e-6);
        assert!((st.volume_mqubit_days() - 2.0).abs() < 1e-12);
        assert!((st.days() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn composition() {
        let a = SpaceTime::new(100.0, 10.0);
        let b = SpaceTime::new(50.0, 20.0);
        let seq = a.then(b);
        assert_eq!(seq.qubits, 100.0);
        assert_eq!(seq.seconds, 30.0);
        assert_eq!((a + b).seconds, 30.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = SpaceTime::new(-1.0, 1.0);
    }

    #[test]
    fn display_in_mqubit_days() {
        let s = SpaceTime::new(19e6, 5.6 * 86_400.0).to_string();
        assert!(s.contains("19.00 Mqubits"), "{s}");
    }
}
