//! Quantum look-up tables (QROM) with GHZ-assisted CNOT fan-out
//! (paper §III.8, Fig. 10).
//!
//! A look-up table with `w` address bits loads one of `2^w` classically
//! pre-computed values into an `m`-bit output register. The circuit loops
//! through address values with temporary-AND Toffolis (one per entry) and
//! fans each selected row into the target register. The fan-out is done with
//! measurement-based GHZ states snaked through the register (Fig. 10b,c), so
//! every move is a short constant hop of ≈ 2·d·l rather than a log-depth
//! long-range tree — that keeps the per-entry time near the reaction limit:
//!
//! ```text
//! t_entry = max(t_r, t_fanout_stage),   t_fanout_stage ≈ 2 · t_move(2d·l)
//! ```
//!
//! which at Table I parameters gives ≈ 1.3 ms per entry and the paper's
//! 0.17 s per (w = 7)-window lookup.

use raa_core::{idle, logical, ArchContext, Gadget, GadgetCost};
use raa_physics::motion;
use std::fmt;

/// GHZ helper patches per target patch (one GHZ qubit plus a shared prep
/// ancilla between neighbours, Fig. 10c).
pub(crate) const GHZ_OVERHEAD_PER_TARGET: f64 = 1.5;

/// GHZ grid spacing in patch pitches: 2 keeps moves at 2·d·l as in
/// Fig. 10c. Each GHZ stage runs one pipeline copy, which the paper finds
/// optimal.
const GHZ_SPACING: f64 = 2.0;

/// A QROM look-up gadget.
///
/// # Example
///
/// ```
/// use raa_gadgets::lookup::LookupTable;
/// use raa_core::{ArchContext, Gadget};
///
/// // The paper's windowed lookup: w_exp + w_mul = 7 address bits feeding a
/// // 2048-bit (padded) register.
/// let lookup = LookupTable::new(7, 2994);
/// let cost = lookup.cost(&ArchContext::paper());
/// assert!((cost.seconds - 0.17).abs() < 0.03); // the paper's 0.17 s
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupTable {
    address_bits: u32,
    pub(crate) output_bits: u32,
}

impl LookupTable {
    /// Creates a lookup over `address_bits` (table of `2^address_bits`
    /// entries) into an `output_bits`-wide register, with default layout.
    ///
    /// # Panics
    ///
    /// Panics if `address_bits` is 0 or exceeds 30, or `output_bits` is 0.
    pub fn new(address_bits: u32, output_bits: u32) -> Self {
        assert!(
            (1..=30).contains(&address_bits),
            "address bits must be in 1..=30, got {address_bits}"
        );
        assert!(output_bits >= 1, "output register must be at least 1 bit");
        Self {
            address_bits,
            output_bits,
        }
    }

    /// Number of table entries, `2^w`.
    pub(crate) fn entries(&self) -> u64 {
        1u64 << self.address_bits
    }

    /// Toffoli count of the unary-iteration scan: `2^w − 1` temporary ANDs.
    pub(crate) fn toffoli_count(&self) -> u64 {
        self.entries() - 1
    }

    /// Toffoli count of the measurement-based unlookup (uncomputation):
    /// `O(2^(w/2))` via the square-root trick of windowed arithmetic \[65\].
    pub(crate) fn unlookup_toffoli_count(&self) -> u64 {
        1u64 << self.address_bits.div_ceil(2)
    }

    /// Duration of one GHZ fan-out stage: two constant hops of
    /// `GHZ_SPACING · d` sites (GHZ qubits into place, next stage's prep
    /// moving behind it) — measurements pipeline with the moves.
    pub(crate) fn fanout_stage_time(&self, ctx: &ArchContext) -> f64 {
        let hop = motion::move_time_sites(&ctx.physical, GHZ_SPACING * f64::from(ctx.distance));
        2.0 * hop + ctx.physical.gate_time
    }

    /// Effective time per table entry: reaction-limited Toffoli scan
    /// overlapped with the fan-out pipeline.
    pub(crate) fn entry_time(&self, ctx: &ArchContext) -> f64 {
        ctx.reaction_time().max(self.fanout_stage_time(ctx))
    }

    /// Wall-clock duration of one lookup: the `2^w`-entry scan at the
    /// per-entry rate. The measurement-based unlookup involves no fan-out and
    /// overlaps with the subsequent addition, so it costs |CCZ⟩ states
    /// (`LookupTable::unlookup_toffoli_count`) but no extra wall-clock time.
    pub fn duration(&self, ctx: &ArchContext) -> f64 {
        self.entries() as f64 * self.entry_time(ctx)
    }

    /// Logical patches of the GHZ fan-out layer: an underlying grid of one
    /// GHZ qubit plus half a prep ancilla per `GHZ_SPACING` target patches
    /// (Fig. 10c).
    pub fn ghz_patches(&self) -> f64 {
        f64::from(self.output_bits) * GHZ_OVERHEAD_PER_TARGET / GHZ_SPACING
    }

    /// Physical qubits: address + output registers plus the GHZ fan-out layer.
    pub fn qubits(&self, ctx: &ArchContext) -> f64 {
        let per_patch = ctx.atoms_per_patch();
        let registers = f64::from(self.address_bits) + f64::from(self.output_bits);
        (registers + self.ghz_patches() + 2.0) * per_patch
    }

    /// |CCZ⟩ states consumed (lookup plus unlookup Toffolis).
    pub fn ccz_count(&self) -> u64 {
        self.toffoli_count() + self.unlookup_toffoli_count()
    }

    /// Logical error of one lookup: scan-gate errors, the GHZ fan-out volume
    /// (the dominant term, Fig. 12b) and register idling.
    pub fn logical_error(&self, ctx: &ArchContext) -> f64 {
        let per_cnot = logical::cnot_error(&ctx.error, ctx.distance, ctx.cnots_per_round);
        let scan = (self.toffoli_count() * 8) as f64 * per_cnot;
        // Each entry's fan-out exposes a GHZ chain of ~m logical qubits for
        // ~2 SE rounds (prep + transversal CX + measure).
        let per_round =
            logical::error_per_qubit_round(&ctx.error, ctx.distance, ctx.cnots_per_round);
        let fanout = self.entries() as f64 * f64::from(self.output_bits) * 2.0 * per_round;
        let t_coh = ctx.physical.coherence_time;
        let dt = idle::optimal_idle_period(&ctx.error, ctx.distance, t_coh);
        let idle_rate = idle::idle_error_per_second(&ctx.error, ctx.distance, dt, t_coh);
        let idle_err =
            f64::from(self.output_bits + self.address_bits) * self.duration(ctx) * idle_rate;
        (scan + fanout + idle_err).min(1.0)
    }

    /// The fan-out share of the lookup's logical error (for Fig. 12b).
    pub fn fanout_error_share(&self, ctx: &ArchContext) -> f64 {
        let per_round =
            logical::error_per_qubit_round(&ctx.error, ctx.distance, ctx.cnots_per_round);
        let fanout = self.entries() as f64 * f64::from(self.output_bits) * 2.0 * per_round;
        fanout / self.logical_error(ctx).max(f64::MIN_POSITIVE)
    }
}

impl Gadget for LookupTable {
    fn name(&self) -> &str {
        "lookup-table"
    }

    fn cost(&self, ctx: &ArchContext) -> GadgetCost {
        GadgetCost {
            qubits: self.qubits(ctx),
            seconds: self.duration(ctx),
            logical_error: self.logical_error(ctx),
            ccz_states: self.ccz_count() as f64,
        }
    }
}

impl fmt::Display for LookupTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lookup table: {} address bits ({} entries) -> {} bits",
            self.address_bits,
            self.entries(),
            self.output_bits
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
    fn paper_lookup_takes_0p17_s() {
        // §IV.2: "each lookup takes 0.17 seconds" at w = 3 + 4 = 7.
        let lookup = LookupTable::new(7, 2994);
        let t = lookup.duration(&ctx());
        assert!((t - 0.17).abs() < 0.03, "t = {t}");
    }

    #[test]
    fn entry_time_is_fanout_limited_at_paper_params() {
        // 2·move(2d·l) ≈ 1.37 ms > 1 ms reaction: the fan-out move dominates,
        // which is why Fig. 14(c) shows a floor when the reaction time drops.
        let lookup = LookupTable::new(7, 2048);
        let stage = lookup.fanout_stage_time(&ctx());
        assert!(stage > ctx().reaction_time(), "stage = {stage}");
        assert!((stage - 1.37e-3).abs() < 0.1e-3, "stage = {stage}");
    }

    #[test]
    fn toffoli_counts() {
        let lookup = LookupTable::new(7, 64);
        assert_eq!(lookup.entries(), 128);
        assert_eq!(lookup.toffoli_count(), 127);
        assert_eq!(lookup.unlookup_toffoli_count(), 16);
        assert_eq!(lookup.ccz_count(), 143);
    }

    #[test]
    fn fanout_dominates_error_budget() {
        // Fig. 12(b): during lookup the CNOT fan-out dominates the error.
        let lookup = LookupTable::new(7, 2994);
        let share = lookup.fanout_error_share(&ctx());
        assert!(share > 0.5, "fan-out share = {share}");
    }

    #[test]
    fn gadget_interface() {
        let lookup = LookupTable::new(5, 128);
        let c = lookup.cost(&ctx());
        assert_eq!(c.ccz_states, lookup.ccz_count() as f64);
        assert!(c.logical_error > 0.0 && c.logical_error < 1e-3);
        assert_eq!(lookup.name(), "lookup-table");
    }

    #[test]
    #[should_panic(expected = "address bits")]
    fn rejects_oversized_table() {
        let _ = LookupTable::new(31, 8);
    }

    proptest! {
        /// Entries double per address bit.
        #[test]
        fn entries_exponential(w in 1u32..20) {
            let a = LookupTable::new(w, 8);
            let b = LookupTable::new(w + 1, 8);
            prop_assert_eq!(b.entries(), 2 * a.entries());
        }

        /// Duration grows with address width; qubits with output width.
        #[test]
        fn cost_monotonicity(w in 2u32..12, m in 8u32..4096) {
            let small = LookupTable::new(w, m);
            let wide = LookupTable::new(w + 1, m);
            prop_assert!(wide.duration(&ctx()) > small.duration(&ctx()));
            let tall = LookupTable::new(w, m + 64);
            prop_assert!(tall.qubits(&ctx()) > small.qubits(&ctx()));
        }
    }
}
