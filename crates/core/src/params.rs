//! Calibrated parameters of the transversal logical-error model (§III.4).

use std::fmt;

/// Parameters of the heuristic logical-error model, Eqs. (2)–(6) of the paper.
///
/// The defaults are the paper's standard literature-consistent values:
/// `C = 0.1`, `Λ = 10` (i.e. `p_thres = 1%` at `p_phys = 0.1%`), and the
/// decoding factor `α = 1/6` extracted from fitting the correlated-decoding
/// simulations of Ref. \[17\] (paper Fig. 6a). With these, one transversal CNOT
/// per SE round gives an effective threshold of `1%/(1 + 1/6) ≈ 0.86%`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModelParams {
    /// Prefactor `C` of the exponential suppression (≈ 0.1 for surface codes).
    pub c: f64,
    /// Characteristic physical error rate `p_phys`.
    pub p_phys: f64,
    /// Memory threshold `p_thres` (≈ 1% for the surface code).
    pub p_thres: f64,
    /// Decoding factor `α`: how much one transversal CNOT raises the
    /// effective noise rate per SE round, relative to the SE gates themselves.
    pub alpha: f64,
}

impl Default for ErrorModelParams {
    fn default() -> Self {
        Self {
            c: 0.1,
            p_phys: 1e-3,
            p_thres: 1e-2,
            alpha: 1.0 / 6.0,
        }
    }
}

impl ErrorModelParams {
    /// The paper's standard parameter set (same as [`Default`]).
    pub fn paper() -> Self {
        Self::default()
    }

    /// The suppression base `Λ = p_thres / p_phys` (Eq. 2); 10 by default.
    // raa-audit: allow(orphan-pub): shor's architecture.rs unit tests and the integration tests read the suppression factor through it.
    pub fn lambda(&self) -> f64 {
        self.p_thres / self.p_phys
    }

    /// Returns a copy with a different decoding factor (Fig. 13a sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or non-finite.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "decoding factor must be non-negative, got {alpha}"
        );
        self.alpha = alpha;
        self
    }

    /// Returns a copy with a different physical error rate.
    ///
    /// # Panics
    ///
    /// Panics if `p_phys` is outside `(0, p_thres)`.
    pub fn with_p_phys(mut self, p_phys: f64) -> Self {
        assert!(
            p_phys > 0.0 && p_phys < self.p_thres,
            "p_phys must be in (0, p_thres), got {p_phys}"
        );
        self.p_phys = p_phys;
        self
    }
}

impl fmt::Display for ErrorModelParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C = {}, p_phys = {}, p_thres = {}, Λ = {}, α = {:.4}",
            self.c,
            self.p_phys,
            self.p_thres,
            self.lambda(),
            self.alpha
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = ErrorModelParams::paper();
        assert_eq!(p.c, 0.1);
        assert!((p.lambda() - 10.0).abs() < 1e-12);
        assert!((p.alpha - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_override() {
        let p = ErrorModelParams::paper().with_alpha(0.5);
        assert_eq!(p.alpha, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_alpha() {
        let _ = ErrorModelParams::paper().with_alpha(-0.1);
    }

    #[test]
    #[should_panic(expected = "p_phys")]
    fn rejects_above_threshold_p() {
        let _ = ErrorModelParams::paper().with_p_phys(0.02);
    }

    #[test]
    fn display_mentions_lambda() {
        assert!(ErrorModelParams::paper().to_string().contains("Λ = 10"));
    }
}
