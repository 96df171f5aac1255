//! Magic-state cultivation model: the first factory stage (paper §III.6).
//!
//! The paper prepares high-quality |T⟩ inputs with the cultivation scheme of
//! Gidney–Shutty–Jones \[97\], which trades post-selection overhead against
//! output fidelity continuously. Full cultivation simulation (post-selected
//! colour-code growth at p = 10⁻³) is outside our substrate, so per the
//! substitution rule we model its published cost curve: a power law in the
//! target error anchored to the paper's quoted reading of \[97\] Fig. 1 —
//! **ε = 7.7×10⁻⁷ costs an expected 1.5×10⁴ qubit·rounds** — with exponent
//! set so that an order-of-magnitude better fidelity costs ≈ 4× more volume
//! (the steep-but-polynomial scaling of the published curve).

use std::fmt;

/// Anchor point from the paper: target per-|T⟩ error for 2048-bit factoring.
pub const ANCHOR_ERROR: f64 = 7.7e-7;

/// Anchor point from the paper: expected volume at [`ANCHOR_ERROR`].
pub const ANCHOR_VOLUME_QUBIT_ROUNDS: f64 = 1.5e4;

/// Default power-law exponent β in `V(ε) = V₀ (ε₀/ε)^β`.
pub const DEFAULT_EXPONENT: f64 = 0.6;

/// Cultivation cost model `V(ε) = V₀ · (ε₀/ε)^β` in qubit·rounds.
///
/// # Example
///
/// ```
/// use raa_factory::cultivation::CultivationModel;
///
/// let m = CultivationModel::paper();
/// // The paper's anchor: 7.7e-7 → 1.5e4 qubit·rounds.
/// let v = m.expected_volume(7.7e-7);
/// assert!((v - 1.5e4).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CultivationModel {
    anchor_error: f64,
    anchor_volume: f64,
    exponent: f64,
}

impl Default for CultivationModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl CultivationModel {
    /// The paper-anchored model.
    pub fn paper() -> Self {
        Self {
            anchor_error: ANCHOR_ERROR,
            anchor_volume: ANCHOR_VOLUME_QUBIT_ROUNDS,
            exponent: DEFAULT_EXPONENT,
        }
    }

    /// A model with a custom anchor and exponent.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < anchor_error < 1`, `anchor_volume > 0`, `exponent > 0`.
    pub fn new(anchor_error: f64, anchor_volume: f64, exponent: f64) -> Self {
        assert!(
            anchor_error > 0.0 && anchor_error < 1.0,
            "anchor error must be in (0, 1)"
        );
        assert!(anchor_volume > 0.0, "anchor volume must be positive");
        assert!(exponent > 0.0, "exponent must be positive");
        Self {
            anchor_error,
            anchor_volume,
            exponent,
        }
    }

    /// Expected volume (qubit·rounds, including discarded attempts) to
    /// cultivate one |T⟩ state of error at most `target_error`.
    ///
    /// # Panics
    ///
    /// Panics unless `target_error` is in (0, 1).
    pub fn expected_volume(&self, target_error: f64) -> f64 {
        assert!(
            target_error > 0.0 && target_error < 1.0,
            "target error must be in (0, 1), got {target_error}"
        );
        self.anchor_volume * (self.anchor_error / target_error).powf(self.exponent)
    }

    /// The best error achievable within an expected volume `v` qubit·rounds
    /// (the inverse of [`CultivationModel::expected_volume`]).
    pub fn error_for_volume(&self, v: f64) -> f64 {
        assert!(v > 0.0, "volume must be positive");
        self.anchor_error * (self.anchor_volume / v).powf(1.0 / self.exponent)
    }

    /// Expected rounds to produce one |T⟩ on a plot of `atoms` atoms.
    pub fn expected_rounds(&self, target_error: f64, atoms: f64) -> f64 {
        assert!(atoms > 0.0, "need a positive number of atoms");
        self.expected_volume(target_error) / atoms
    }
}

impl fmt::Display for CultivationModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cultivation: V(ε) = {:.3e}·({:.2e}/ε)^{}",
            self.anchor_volume, self.anchor_error, self.exponent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn anchor_point_reproduced() {
        let m = CultivationModel::paper();
        assert!((m.expected_volume(ANCHOR_ERROR) - ANCHOR_VOLUME_QUBIT_ROUNDS).abs() < 1e-6);
    }

    #[test]
    fn volume_error_round_trip() {
        let m = CultivationModel::paper();
        for eps in [1e-5, 7.7e-7, 1e-8] {
            let v = m.expected_volume(eps);
            assert!((m.error_for_volume(v) / eps - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn better_fidelity_costs_more() {
        let m = CultivationModel::paper();
        assert!(m.expected_volume(1e-8) > m.expected_volume(1e-6));
        // One decade of fidelity ≈ 10^0.6 ≈ 4x volume.
        let ratio = m.expected_volume(1e-8) / m.expected_volume(1e-7);
        assert!((ratio - 10f64.powf(0.6)).abs() < 0.01);
    }

    #[test]
    fn rounds_scale_inverse_with_atoms() {
        let m = CultivationModel::paper();
        let r1 = m.expected_rounds(ANCHOR_ERROR, 1000.0);
        let r2 = m.expected_rounds(ANCHOR_ERROR, 2000.0);
        assert!((r1 / r2 - 2.0).abs() < 1e-12);
        assert!((r1 - 15.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "target error")]
    fn rejects_bad_target() {
        let _ = CultivationModel::paper().expected_volume(0.0);
    }

    proptest! {
        /// Monotone: lower target error never costs less volume.
        #[test]
        fn volume_monotone(a in 1e-9f64..1e-3, b in 1e-9f64..1e-3) {
            let m = CultivationModel::paper();
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(m.expected_volume(lo) >= m.expected_volume(hi));
        }
    }
}
