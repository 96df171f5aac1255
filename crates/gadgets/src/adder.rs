//! The Cuccaro ripple-carry adder with oblivious carry runways
//! (paper §III.7, Fig. 9).
//!
//! The adder computes |a⟩|b⟩ → |a⟩|a+b⟩ from MAJ and UMA blocks, one Toffoli
//! each, implemented with auto-corrected |CCZ⟩ states so execution is limited
//! only by the reaction time (§III.5). The linear carry chain is cut into
//! segments by oblivious carry runways \[66\]: `r_sep`-bit segments padded with
//! `r_pad` runway bits run *in parallel*, so the wall-clock duration is
//!
//! ```text
//! t_add = 2 · (r_sep + r_pad) · t_r
//! ```
//!
//! — the paper's 0.28 s for its Table II choice (96 + 43 bits, 1 ms reaction).
//! Each MAJ/UMA block fits a 3×2-patch region with moves of at most √2·d·l
//! (Fig. 9c), and Bell bridges keep `⌈t_block/t_r⌉` blocks in flight per
//! segment.

use crate::bell;
use raa_core::{idle, logical, ArchContext, Gadget, GadgetCost};
use raa_physics::motion;
use std::fmt;

/// Patches of one MAJ/UMA working block (Fig. 9c: a 3 × 2 logical region).
pub(crate) const BLOCK_PATCHES: u64 = 6;

/// Two-qubit-gate count charged per bit position: the MAJ block's CCZ
/// teleportation CNOTs and auto-corrected CZs (Fig. 9b) plus the cheaper
/// measurement-based UMA uncomputation.
pub(crate) const GATES_PER_BLOCK: u64 = 12;

/// A Cuccaro ripple-carry adder over `n_bits`-bit registers with runways.
///
/// # Example
///
/// ```
/// use raa_gadgets::adder::CuccaroAdder;
/// use raa_core::{ArchContext, Gadget};
///
/// // The paper's Table II addition: 2048 bits, r_sep = 96, r_pad = 43.
/// let adder = CuccaroAdder::new(2048, 96, 43);
/// let cost = adder.cost(&ArchContext::paper());
/// assert!((cost.seconds - 0.278).abs() < 0.01); // the paper's 0.28 s
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuccaroAdder {
    n_bits: u32,
    runway_separation: u32,
    runway_padding: u32,
}

impl CuccaroAdder {
    /// Creates an adder over `n_bits` with runway separation `r_sep` and
    /// padding `r_pad` (Table II: 96 and 43 for 2048-bit factoring).
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` or `r_sep` is zero.
    pub fn new(n_bits: u32, runway_separation: u32, runway_padding: u32) -> Self {
        assert!(n_bits >= 1, "adder width must be at least 1 bit");
        assert!(runway_separation >= 1, "runway separation must be positive");
        Self {
            n_bits,
            runway_separation,
            runway_padding,
        }
    }

    /// An adder without runways (single segment).
    pub fn without_runways(n_bits: u32) -> Self {
        Self::new(n_bits, n_bits, 0)
    }

    /// Number of parallel runway segments.
    pub fn segments(&self) -> u32 {
        self.n_bits.div_ceil(self.runway_separation)
    }

    /// Total bits processed including runway padding.
    pub fn padded_bits(&self) -> u64 {
        u64::from(self.n_bits) + u64::from(self.segments()) * u64::from(self.runway_padding)
    }

    /// Toffoli (=|CCZ⟩) count: one temporary-AND per bit. The MAJ block
    /// consumes one |CCZ⟩; the UMA block uncomputes its AND ancilla by
    /// measurement with Clifford feed-forward (Gidney's halving trick \[21\]),
    /// which costs a reaction step but no magic state.
    pub fn toffoli_count(&self) -> u64 {
        self.padded_bits()
    }

    /// CNOT count of the bare Cuccaro circuit (≈ 5 per bit).
    pub(crate) fn cnot_count(&self) -> u64 {
        5 * self.padded_bits()
    }

    /// Sequential depth in reaction-time steps: `2 (r_sep + r_pad)`.
    pub(crate) fn reaction_depth(&self) -> u64 {
        2 * u64::from(self.runway_separation + self.runway_padding)
    }

    /// Wall-clock duration of one addition (reaction-limited, Fig. 7).
    pub fn duration(&self, ctx: &ArchContext) -> f64 {
        self.reaction_depth() as f64 * ctx.reaction_time()
    }

    /// Duration of one MAJ/UMA block's physical execution (four transversal
    /// steps within the 3×2 region, the longest move being √2·d·l, plus the
    /// block measurement): sets how many blocks a segment keeps in flight.
    pub(crate) fn block_time(&self, ctx: &ArchContext) -> f64 {
        let cycle = ctx.cycle();
        let diag_move = motion::move_time_sites(
            &ctx.physical,
            std::f64::consts::SQRT_2 * f64::from(ctx.distance),
        );
        4.0 * (cycle.transversal_step(1.0 / ctx.cnots_per_round) + diag_move)
            + ctx.physical.measure_time
    }

    /// |CCZ⟩ demand rate while the adder runs, per second: each segment
    /// resolves one MAJ (consuming a |CCZ⟩) every two reaction steps (the UMA
    /// uncomputation step consumes none).
    pub(crate) fn ccz_rate(&self, ctx: &ArchContext) -> f64 {
        f64::from(self.segments()) / (2.0 * ctx.reaction_time())
    }

    /// Logical patches of the in-flight MAJ/UMA pipeline across all segments
    /// (Bell-bridged copies of the 3×2 working blocks).
    pub fn pipeline_patches(&self, ctx: &ArchContext) -> f64 {
        let copies = bell::parallel_copies(self.block_time(ctx), ctx.reaction_time());
        f64::from(self.segments()) * bell::pipeline_patches(copies, BLOCK_PATCHES) as f64
    }

    /// Physical qubits: the two `padded_bits`-wide registers plus the
    /// in-flight MAJ/UMA pipeline of every segment.
    pub fn qubits(&self, ctx: &ArchContext) -> f64 {
        let per_patch = ctx.atoms_per_patch();
        let registers = 2.0 * self.padded_bits() as f64;
        (registers + self.pipeline_patches(ctx)) * per_patch
    }

    /// Logical error of one addition: transversal-gate errors of every block
    /// (Eq. 4) plus idle-storage error of the registers over the duration
    /// (stored at the optimal idle SE period).
    pub fn logical_error(&self, ctx: &ArchContext) -> f64 {
        let gate_err = (self.toffoli_count() * GATES_PER_BLOCK + self.cnot_count()) as f64
            * logical::cnot_error(&ctx.error, ctx.distance, ctx.cnots_per_round);
        let t_coh = ctx.physical.coherence_time;
        let dt = idle::optimal_idle_period(&ctx.error, ctx.distance, t_coh);
        let idle_rate = idle::idle_error_per_second(&ctx.error, ctx.distance, dt, t_coh);
        let idle_err = 2.0 * self.padded_bits() as f64 * self.duration(ctx) * idle_rate;
        (gate_err + idle_err).min(1.0)
    }
}

impl Gadget for CuccaroAdder {
    fn name(&self) -> &str {
        "cuccaro-adder"
    }

    fn cost(&self, ctx: &ArchContext) -> GadgetCost {
        GadgetCost {
            qubits: self.qubits(ctx),
            seconds: self.duration(ctx),
            logical_error: self.logical_error(ctx),
            ccz_states: self.toffoli_count() as f64,
        }
    }
}

impl fmt::Display for CuccaroAdder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cuccaro adder: {} bits, {} segments of {}+{}",
            self.n_bits,
            self.segments(),
            self.runway_separation,
            self.runway_padding
        )
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
    fn paper_duration_0p28_s() {
        // Table II: r_sep 96, r_pad 43, t_r 1 ms → 2·139·1 ms = 0.278 s.
        let adder = CuccaroAdder::new(2048, 96, 43);
        let t = adder.duration(&ctx());
        assert!((t - 0.278).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn segment_accounting() {
        let adder = CuccaroAdder::new(2048, 96, 43);
        assert_eq!(adder.segments(), 22); // ceil(2048/96)
        assert_eq!(adder.padded_bits(), 2048 + 22 * 43);
        assert_eq!(adder.toffoli_count(), 2048 + 22 * 43);
    }

    #[test]
    fn no_runways_single_segment() {
        let adder = CuccaroAdder::without_runways(64);
        assert_eq!(adder.segments(), 1);
        assert_eq!(adder.padded_bits(), 64);
        // Duration scales with the full width: slow but small.
        assert!(adder.duration(&ctx()) > CuccaroAdder::new(64, 16, 8).duration(&ctx()));
    }

    #[test]
    fn ccz_rate_matches_paper_scale() {
        // 22 segments, one CCZ per 2 ms each: 11k CCZ/s during addition.
        let adder = CuccaroAdder::new(2048, 96, 43);
        let rate = adder.ccz_rate(&ctx());
        assert!((rate - 11_000.0).abs() < 1.0, "rate = {rate}");
    }

    #[test]
    fn block_pipeline_depth_is_a_few() {
        let adder = CuccaroAdder::new(2048, 96, 43);
        let copies = bell::parallel_copies(adder.block_time(&ctx()), ctx().reaction_time());
        assert!((2..=12).contains(&copies), "copies = {copies}");
    }

    #[test]
    fn error_budget_reasonable_at_d27() {
        let adder = CuccaroAdder::new(2048, 96, 43);
        let e = adder.logical_error(&ctx());
        // Must support ~1e6 invocations within a few percent budget.
        assert!(e < 5e-8, "per-addition error = {e}");
        assert!(e > 1e-12, "error should not be absurdly small: {e}");
    }

    #[test]
    fn gadget_cost_consistency() {
        let adder = CuccaroAdder::new(256, 64, 16);
        let c = adder.cost(&ctx());
        assert_eq!(c.ccz_states, adder.toffoli_count() as f64);
        assert!(c.qubits > 2.0 * adder.padded_bits() as f64);
    }

    proptest! {
        /// More bits never shrink any cost component.
        #[test]
        fn costs_monotone_in_width(n1 in 8u32..2048, n2 in 8u32..2048) {
            let (lo, hi) = if n1 < n2 { (n1, n2) } else { (n2, n1) };
            let a_lo = CuccaroAdder::new(lo, 96, 43);
            let a_hi = CuccaroAdder::new(hi, 96, 43);
            prop_assert!(a_hi.toffoli_count() >= a_lo.toffoli_count());
            prop_assert!(a_hi.qubits(&ctx()) >= a_lo.qubits(&ctx()) - 1e-9);
        }

        /// Runway identity: padded bits = n + segments·pad.
        #[test]
        fn padding_identity(n in 1u32..4096, sep in 1u32..512, pad in 0u32..128) {
            let a = CuccaroAdder::new(n, sep, pad);
            let expect = u64::from(n) + u64::from(n.div_ceil(sep)) * u64::from(pad);
            prop_assert_eq!(a.padded_bits(), expect);
        }

        /// Smaller runway separation: more segments, faster, more CCZ demand.
        #[test]
        fn separation_tradeoff(n in 512u32..4096) {
            let fine = CuccaroAdder::new(n, 64, 32);
            let coarse = CuccaroAdder::new(n, 256, 32);
            prop_assert!(fine.duration(&ctx()) < coarse.duration(&ctx()));
            prop_assert!(fine.ccz_rate(&ctx()) > coarse.ccz_rate(&ctx()));
        }
    }
}
