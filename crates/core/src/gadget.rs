//! The gadget cost abstraction: every algorithmic subroutine reports a
//! common space/time/error/magic-state cost that the architecture-level
//! optimizer composes (paper §III.1: "these subroutine generators take as
//! input certain parameters ... and output the layout, together with an
//! estimate of the space and time cost of the subroutine, as well as the
//! resulting logical error rate").

use crate::params::ErrorModelParams;
use raa_physics::{CycleModel, PhysicalParams};
use std::fmt;

/// Shared architectural context threaded through gadget cost evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchContext {
    /// Platform timing parameters (Table I).
    pub physical: PhysicalParams,
    /// Logical error model parameters (§III.4).
    pub error: ErrorModelParams,
    /// Code distance used by compute patches.
    pub distance: u32,
    /// Transversal CNOTs per SE round (the paper fixes 1 after Fig. 11).
    pub cnots_per_round: f64,
}

impl ArchContext {
    /// The paper's baseline context: Table I physics, standard error model,
    /// distance 27 and one SE round per transversal gate.
    pub fn paper() -> Self {
        Self {
            physical: PhysicalParams::default(),
            error: ErrorModelParams::paper(),
            distance: 27,
            cnots_per_round: 1.0,
        }
    }

    /// The QEC cycle timing model at this context's distance.
    pub fn cycle(&self) -> CycleModel {
        CycleModel::new(&self.physical, self.distance)
    }

    /// Reaction time of the control system.
    pub fn reaction_time(&self) -> f64 {
        self.physical.reaction_time()
    }

    /// Physical atoms per logical patch (data + ancilla).
    pub fn atoms_per_patch(&self) -> f64 {
        raa_physics::geometry::atoms_per_patch(self.distance) as f64
    }

    /// Returns a copy with a different code distance.
    // raa-audit: allow(orphan-pub): end_to_end.rs and factory's ccz.rs unit tests vary the code distance with it.
    pub fn with_distance(mut self, distance: u32) -> Self {
        assert!(distance >= 3, "distance must be at least 3");
        self.distance = distance;
        self
    }
}

/// The composite cost of invoking a gadget once.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GadgetCost {
    /// Physical qubits held while the gadget runs.
    pub qubits: f64,
    /// Wall-clock duration of one invocation, in seconds.
    pub seconds: f64,
    /// Logical error probability contributed by one invocation.
    pub logical_error: f64,
    /// |CCZ⟩ magic states consumed per invocation.
    pub ccz_states: f64,
}

impl fmt::Display for GadgetCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3e} qubits for {:.3e} s, p_err {:.3e}, {:.1} CCZ",
            self.qubits, self.seconds, self.logical_error, self.ccz_states
        )
    }
}

/// An algorithmic building block with a parameterized cost (§III.1).
pub trait Gadget {
    /// A short human-readable name ("cuccaro-adder", "lookup-table", ...).
    fn name(&self) -> &str;

    /// The cost of one invocation in the given context.
    fn cost(&self, ctx: &ArchContext) -> GadgetCost;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_context_values() {
        let ctx = ArchContext::paper();
        assert_eq!(ctx.distance, 27);
        assert!((ctx.reaction_time() - 1e-3).abs() < 1e-12);
        // Per-CNOT logical error at d=27, x=1, α=1/6:
        // 2·0.1·(7/6/10)^14 ≈ 2e-1·(0.1167)^14 ≈ 1.2e-14.
        let e = crate::logical::cnot_error(&ctx.error, ctx.distance, ctx.cnots_per_round);
        assert!(e > 1e-15 && e < 1e-13, "e = {e}");
    }

    #[test]
    fn context_distance_override() {
        let ctx = ArchContext::paper().with_distance(15);
        assert_eq!(ctx.distance, 15);
        let paper = ArchContext::paper();
        let cnot_error =
            |c: &ArchContext| crate::logical::cnot_error(&c.error, c.distance, c.cnots_per_round);
        assert!(cnot_error(&ctx) > cnot_error(&paper));
    }

    #[test]
    fn display_nonempty() {
        assert!(!GadgetCost::default().to_string().is_empty());
    }
}
