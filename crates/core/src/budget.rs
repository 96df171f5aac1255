//! The §III.6 magic-state share of the failure budget.
//!
//! The paper gives the |CCZ⟩ states a 5% collective budget: over the
//! 2048-bit factoring run's ~3×10⁹ CCZ states that sets the per-CCZ target
//! at 1.6×10⁻¹¹, and hence the per-|T⟩ cultivation target at 7.7×10⁻⁷ via
//! the 28 p² factory law. The factoring and chemistry estimates both size
//! their factories from [`per_ccz_target`].

/// Fraction of the failure budget reserved for |CCZ⟩ states (§III.6: "the
/// CCZ error budget should not exceed 5%").
pub const CCZ_BUDGET: f64 = 0.05;

/// The per-CCZ error target when `ccz_total` states share [`CCZ_BUDGET`].
pub fn per_ccz_target(ccz_total: f64) -> f64 {
    CCZ_BUDGET / ccz_total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ccz_budget() {
        // 5% of the run budget over 3.1e9 CCZ states → 1.6e-11 per CCZ.
        let t = per_ccz_target(3.1e9);
        assert!((t / 1.6e-11 - 1.0).abs() < 0.05, "t = {t}");
    }
}
