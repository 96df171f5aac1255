//! Windowed lookup-addition: the unit step of windowed modular
//! exponentiation (paper §III.2, Fig. 5b-d).
//!
//! Windowed arithmetic \[65\] computes the coefficients of groups of exponent
//! bits (window `w_exp`) and multiplier bits (window `w_mul`) classically,
//! loads them through a `2^(w_exp+w_mul)`-entry look-up table, and adds the
//! loaded value into the target register with a runway-segmented Cuccaro
//! adder. One *lookup-addition* is therefore a [`LookupTable`] followed by a
//! [`CuccaroAdder`]; the paper's 2048-bit compilation issues ≈ 1.07×10⁶ of
//! them at 0.17 s + 0.28 s each, which is the entire 5.6-day run time.

use crate::adder::CuccaroAdder;
use crate::lookup::LookupTable;
use raa_core::{ArchContext, Gadget, GadgetCost};
use std::fmt;

/// One windowed lookup-addition into an `n`-bit (plus runways) accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupAddition {
    lookup: LookupTable,
    adder: CuccaroAdder,
}

impl LookupAddition {
    /// Builds the gadget for exponent window `w_exp`, multiplication window
    /// `w_mul`, an `n_bits` accumulator and runway parameters.
    ///
    /// # Panics
    ///
    /// Panics on zero windows or widths (see [`LookupTable::new`] and
    /// [`CuccaroAdder::new`]).
    pub fn new(w_exp: u32, w_mul: u32, n_bits: u32, r_sep: u32, r_pad: u32) -> Self {
        let adder = CuccaroAdder::new(n_bits, r_sep, r_pad);
        let lookup = LookupTable::new(w_exp + w_mul, adder.padded_bits() as u32);
        Self { lookup, adder }
    }

    /// The lookup stage.
    pub fn lookup(&self) -> &LookupTable {
        &self.lookup
    }

    /// The adder stage.
    pub fn adder(&self) -> &CuccaroAdder {
        &self.adder
    }

    /// Total |CCZ⟩ states consumed per lookup-addition.
    pub fn ccz_count(&self) -> u64 {
        self.lookup.ccz_count() + self.adder.toffoli_count()
    }

    /// Peak |CCZ⟩ demand rate, set by the addition stage (Fig. 5c,d: factories
    /// feed the active addition).
    pub fn peak_ccz_rate(&self, ctx: &ArchContext) -> f64 {
        self.adder.ccz_rate(ctx)
    }
}

impl Gadget for LookupAddition {
    fn name(&self) -> &str {
        "lookup-addition"
    }

    fn cost(&self, ctx: &ArchContext) -> GadgetCost {
        let l = self.lookup.cost(ctx);
        let a = self.adder.cost(ctx);
        GadgetCost {
            // The two stages share the register space; the peak footprint is
            // the larger stage (Fig. 5c,d show the space rebalancing).
            qubits: l.qubits.max(a.qubits),
            seconds: l.seconds + a.seconds,
            logical_error: (l.logical_error + a.logical_error).min(1.0),
            ccz_states: l.ccz_states + a.ccz_states,
        }
    }
}

impl fmt::Display for LookupAddition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lookup-addition [{} | {}]", self.lookup, self.adder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx() -> ArchContext {
        ArchContext::paper()
    }

    /// The paper's Table II gadget.
    fn paper_gadget() -> LookupAddition {
        LookupAddition::new(3, 4, 2048, 96, 43)
    }

    #[test]
    fn paper_duration_0p45_s() {
        // 0.17 s lookup + 0.28 s addition (§IV.2).
        let g = paper_gadget();
        let t = g.cost(&ctx()).seconds;
        assert!((t - 0.45).abs() < 0.04, "t = {t}");
    }

    #[test]
    fn ccz_per_lookup_addition_matches_paper_scale() {
        // ~1.07e6 lookup-additions for ~3e9 CCZ → ~2.9e3 CCZ per gadget.
        let g = paper_gadget();
        let c = g.ccz_count();
        assert!((2_500..=3_500).contains(&c), "ccz = {c}");
    }

    #[test]
    fn lookup_register_covers_padded_adder() {
        let g = paper_gadget();
        assert_eq!(
            u64::from(g.lookup().output_bits),
            g.adder().padded_bits(),
            "the loaded value must cover runway-padded accumulator bits"
        );
    }

    #[test]
    fn cost_composition() {
        let g = paper_gadget();
        let c = g.cost(&ctx());
        let duration = g.lookup().duration(&ctx()) + g.adder().duration(&ctx());
        assert!((c.seconds - duration).abs() < 1e-12);
        assert_eq!(c.ccz_states, g.ccz_count() as f64);
        assert!(c.logical_error < 1e-6, "error = {}", c.logical_error);
    }

    #[test]
    fn peak_demand_from_adder() {
        let g = paper_gadget();
        assert!((g.peak_ccz_rate(&ctx()) - 11_000.0).abs() < 1.0);
    }

    proptest! {
        /// Larger windows trade more lookup time for fewer invocations
        /// downstream; locally, duration and CCZ grow with window size.
        #[test]
        fn window_growth(w1 in 1u32..5, w2 in 1u32..5) {
            let small = LookupAddition::new(w1, w2, 512, 96, 43);
            let big = LookupAddition::new(w1 + 1, w2 + 1, 512, 96, 43);
            prop_assert!(big.ccz_count() > small.ccz_count());
            prop_assert!(big.cost(&ctx()).seconds > small.cost(&ctx()).seconds);
        }
    }
}
