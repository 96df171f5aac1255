//! The 8T-to-CCZ magic-state factory (paper §III.6, Fig. 8).
//!
//! The factory consumes eight cultivated |T⟩ states through the transversal
//! T gate of the \[\[8,3,2\]\] cube code and emits one |CCZ⟩ state after
//! post-selection, suppressing input Z errors quadratically:
//! `p_out = 28 p_in² + O(p_in³)` (Eq. 8 — the coefficient 28 is validated by
//! exact enumeration in [`raa_surface::code832`]).
//!
//! Layout (Fig. 8c,d): four output patches and the eight \[\[8,3,2\]\] block
//! patches fit a 12d × 3d region executing four transversal CNOT layers with
//! a 1D move plan (no qubit re-ordering), plus a 12d × 1d bottom row hosting
//! eight parallel cultivation plots. Timing: the CNOT layers run at one SE
//! round per gate while the |T⟩ states grow to full distance; output requires
//! block measurement plus a feed-forward (reaction) step.

use crate::cultivation::CultivationModel;
use raa_core::{logical, ArchContext, Gadget, GadgetCost};
use raa_physics::Footprint;
use raa_surface::code832;
use std::fmt;

/// Number of |T⟩ inputs per |CCZ⟩ output.
pub(crate) const T_PER_CCZ: usize = 8;

/// Transversal CNOT layers in the factory circuit (Fig. 8a).
pub(crate) const FACTORY_CNOT_LAYERS: usize = 4;

/// Logical CNOT count of the factory circuit (Fig. 8c: the four layers touch
/// the four outputs and eight block qubits).
pub(crate) const FACTORY_CNOTS: usize = 16;

/// Patches held by the factory proper: 4 outputs + 8 code-block qubits.
pub(crate) const FACTORY_PATCHES: usize = 12;

/// Cultivation plots in the bottom row (12 slots of d × d; 8 active).
pub(crate) const CULTIVATION_SLOTS: usize = 12;

/// An 8T-to-CCZ factory instance with its cultivation stage.
///
/// # Example
///
/// ```
/// use raa_factory::ccz::CczFactory;
/// use raa_core::ArchContext;
///
/// let ctx = ArchContext::paper();
/// let f = CczFactory::for_target(&ctx, 1.6e-11).unwrap();
/// // The paper's numbers: per-T error ≈ 7.7e-7 for a 1.6e-11 CCZ target.
/// assert!((f.t_input_error() / 7.7e-7 - 1.0).abs() < 0.15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CczFactory {
    t_input_error: f64,
    cultivation: CultivationModel,
}

impl CczFactory {
    /// Builds a factory whose inputs have per-|T⟩ error `t_input_error`.
    ///
    /// # Panics
    ///
    /// Panics unless `t_input_error` is in (0, 0.01) — cultivation cannot
    /// sensibly target worse than ~1%.
    pub(crate) fn new(t_input_error: f64, cultivation: CultivationModel) -> Self {
        assert!(
            t_input_error > 0.0 && t_input_error < 1e-2,
            "per-T input error must be in (0, 1e-2), got {t_input_error}"
        );
        Self {
            t_input_error,
            cultivation,
        }
    }

    /// Chooses the per-|T⟩ input error so the factory's total output error
    /// meets `ccz_target`, accounting for the factory's own Clifford-layer
    /// errors at the context's distance. Returns `None` if the Clifford
    /// errors alone exceed the target (distance too small).
    pub fn for_target(ctx: &ArchContext, ccz_target: f64) -> Option<Self> {
        assert!(
            ccz_target > 0.0 && ccz_target < 1.0,
            "CCZ error target must be in (0, 1)"
        );
        let clifford = Self::clifford_error(ctx);
        if clifford >= ccz_target {
            return None;
        }
        // Invert p_out = 28 p² for the remaining budget.
        let p_in = ((ccz_target - clifford) / 28.0).sqrt();
        if p_in >= 1e-2 {
            // Cultivation would be trivial; clamp to the model's ceiling.
            return Some(Self::new(9.9e-3, CultivationModel::paper()));
        }
        Some(Self::new(p_in, CultivationModel::paper()))
    }

    /// The per-|T⟩ input error this factory requires.
    pub fn t_input_error(&self) -> f64 {
        self.t_input_error
    }

    /// Error contributed by the factory's own transversal Clifford layers
    /// (Eq. 4 per CNOT at the context's distance; the paper treats these as
    /// negligible thanks to the inner surface-code protection).
    pub(crate) fn clifford_error(ctx: &ArchContext) -> f64 {
        FACTORY_CNOTS as f64 * logical::cnot_error(&ctx.error, ctx.distance, ctx.cnots_per_round)
    }

    /// Total output error per |CCZ⟩: exact \[\[8,3,2\]\] enumeration plus the
    /// Clifford-layer term.
    pub fn output_error(&self, ctx: &ArchContext) -> f64 {
        code832::output_error_exact(self.t_input_error) + Self::clifford_error(ctx)
    }

    /// Probability an attempt is discarded by post-selection.
    pub(crate) fn rejection_probability(&self) -> f64 {
        code832::rejection_probability(self.t_input_error)
    }

    /// Footprint in lattice sites: 12d × 3d factory + 12d × 1d cultivation row.
    pub fn footprint(&self, ctx: &ArchContext) -> Footprint {
        let d = u64::from(ctx.distance);
        Footprint::new(12 * d, 3 * d).stack_vertical(Footprint::new(12 * d, d))
    }

    /// Physical atoms: 12 full patches plus the cultivation row at patch
    /// density (≈ 2 atoms per site).
    pub fn qubits(&self, ctx: &ArchContext) -> f64 {
        let per_patch = ctx.atoms_per_patch();
        (FACTORY_PATCHES + CULTIVATION_SLOTS) as f64 * per_patch
    }

    /// Wall-clock interval between |CCZ⟩ outputs from one factory:
    /// the maximum of the factory pipeline period and the cultivation batch
    /// time, inflated by post-selection retries.
    pub fn production_interval(&self, ctx: &ArchContext) -> f64 {
        let cycle = ctx.cycle();
        // Factory pipeline: 4 CNOT layers + teleported-T layer at 1 SE round
        // each, then block measurement and feed-forward.
        let factory_time = (FACTORY_CNOT_LAYERS + 1) as f64
            * cycle.transversal_step(1.0 / ctx.cnots_per_round)
            + ctx.physical.measure_time
            + ctx.reaction_time();
        // Cultivation batch: 8 states on the bottom row in parallel.
        let row_atoms = CULTIVATION_SLOTS as f64 * ctx.atoms_per_patch();
        let rounds =
            T_PER_CCZ as f64 * self.cultivation.expected_volume(self.t_input_error) / row_atoms;
        let cultivation_time = rounds * cycle.idle_cycle_time();
        let retry = 1.0 / (1.0 - self.rejection_probability());
        factory_time.max(cultivation_time) * retry
    }

    /// |CCZ⟩ output rate of one factory, per second.
    pub fn production_rate(&self, ctx: &ArchContext) -> f64 {
        1.0 / self.production_interval(ctx)
    }

    /// Number of factories needed to sustain `ccz_per_second` demand.
    pub fn count_for_demand(&self, ctx: &ArchContext, ccz_per_second: f64) -> u64 {
        assert!(
            ccz_per_second >= 0.0 && ccz_per_second.is_finite(),
            "demand must be non-negative"
        );
        (ccz_per_second * self.production_interval(ctx)).ceil() as u64
    }
}

impl Gadget for CczFactory {
    fn name(&self) -> &str {
        "8t-to-ccz-factory"
    }

    /// Cost of producing one |CCZ⟩ state.
    fn cost(&self, ctx: &ArchContext) -> GadgetCost {
        GadgetCost {
            qubits: self.qubits(ctx),
            seconds: self.production_interval(ctx),
            logical_error: self.output_error(ctx),
            ccz_states: -1.0, // produces one
        }
    }
}

impl fmt::Display for CczFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "8T-to-CCZ factory (p_T = {:.2e})", self.t_input_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx() -> ArchContext {
        ArchContext::paper()
    }

    #[test]
    fn paper_target_gives_paper_t_error() {
        // §III.6: CCZ target 1.6e-11 → per-T cultivation error 7.7e-7.
        let f = CczFactory::for_target(&ctx(), 1.6e-11).unwrap();
        let p_t = f.t_input_error();
        assert!((5e-7..9e-7).contains(&p_t), "p_T = {p_t}");
    }

    #[test]
    fn output_error_meets_target() {
        let target = 1.6e-11;
        let f = CczFactory::for_target(&ctx(), target).unwrap();
        assert!(f.output_error(&ctx()) <= target * 1.01);
    }

    #[test]
    fn quadratic_suppression() {
        let f1 = CczFactory::new(1e-4, CultivationModel::paper());
        let f2 = CczFactory::new(1e-5, CultivationModel::paper());
        let big = ctx().with_distance(45); // make Clifford term negligible
        let ratio = f1.output_error(&big) / f2.output_error(&big);
        assert!((ratio / 100.0 - 1.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn production_interval_is_milliseconds() {
        let f = CczFactory::for_target(&ctx(), 1.6e-11).unwrap();
        let t = f.production_interval(&ctx());
        // Between the ~5.5 ms factory pipeline and ~15 ms cultivation limit.
        assert!((3e-3..30e-3).contains(&t), "interval = {t}");
    }

    #[test]
    fn paper_scale_factory_count() {
        // §IV.2: each lookup-addition consumes ~5900 CCZ in ~0.45 s, i.e.
        // ~13k CCZ/s at the paper's parameters... with Table II quoting a
        // 192-factory cap, one factory must deliver ≈ 70-110 CCZ/s.
        let f = CczFactory::for_target(&ctx(), 1.6e-11).unwrap();
        let rate = f.production_rate(&ctx());
        assert!((50.0..400.0).contains(&rate), "rate = {rate}/s");
        let n = f.count_for_demand(&ctx(), 20_000.0);
        assert!((100..=400).contains(&n), "count = {n}");
    }

    #[test]
    fn footprint_matches_fig8() {
        let f = CczFactory::for_target(&ctx(), 1.6e-11).unwrap();
        let fp = f.footprint(&ctx());
        assert_eq!(fp.width, 12 * 27);
        assert_eq!(fp.height, 4 * 27);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let small = ctx().with_distance(5);
        assert!(CczFactory::for_target(&small, 1e-16).is_none());
    }

    #[test]
    fn gadget_interface() {
        let f = CczFactory::for_target(&ctx(), 1.6e-11).unwrap();
        let c = f.cost(&ctx());
        assert!(c.qubits > 1e4);
        assert!(c.seconds > 0.0);
        assert_eq!(f.name(), "8t-to-ccz-factory");
    }

    proptest! {
        /// Cleaner inputs never increase the output error.
        #[test]
        fn output_error_monotone(a in 1e-8f64..1e-3, b in 1e-8f64..1e-3) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let c = ctx();
            let f_lo = CczFactory::new(lo, CultivationModel::paper());
            let f_hi = CczFactory::new(hi, CultivationModel::paper());
            prop_assert!(f_lo.output_error(&c) <= f_hi.output_error(&c) + 1e-18);
        }

        /// More demand never needs fewer factories.
        #[test]
        fn demand_monotone(r1 in 0.0f64..1e5, r2 in 0.0f64..1e5) {
            let f = CczFactory::for_target(&ctx(), 1.6e-11).unwrap();
            let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
            prop_assert!(f.count_for_demand(&ctx(), lo) <= f.count_for_demand(&ctx(), hi));
        }
    }
}
