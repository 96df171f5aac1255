//! Circuit-level Clifford skeletons of the arithmetic gadgets, for the
//! `raa-sim` Monte-Carlo pipeline.
//!
//! The gadgets' non-Clifford content (Toffolis, phase kickback) cannot be
//! stabilizer-sampled, but their syndrome structure is fixed by the
//! transversal-CNOT frame that moves data through the gadget. Each
//! [`GadgetKind`] exposes that frame as a cycled CNOT layer schedule — one
//! layer per SE round, matching the paper's operating point — which
//! [`raa_surface::ScheduledCnotExperiment`] turns into a decodable circuit
//! with uniform detector layering, so arbitrary gadget depths stream through
//! the windowed decoder (PR 4's deep-CNOT path).

use raa_surface::{Basis, NoiseModel, ScheduledCnotExperiment};

/// Which gadget's Clifford skeleton to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GadgetKind {
    /// Cuccaro ripple-carry adder (paper Fig. 9): MAJ layers ripple the
    /// carry up through `width` bit positions, UMA layers ripple it back.
    Adder,
    /// QROM lookup's CNOT fan-out tree (paper Fig. 10): a doubling tree
    /// copies the address register out, then uncomputes it in reverse.
    Lookup,
    /// GHZ-style single-source fan-out: one control patch targets each of
    /// the other patches in turn.
    Fanout,
}

impl GadgetKind {
    /// All kinds, in catalog order.
    pub const ALL: [GadgetKind; 3] = [GadgetKind::Adder, GadgetKind::Lookup, GadgetKind::Fanout];

    /// Stable lowercase label used in records and on the wire.
    // raa-audit: allow(orphan-pub): sim's jobs.rs unit tests label every kind with it.
    pub fn label(self) -> &'static str {
        match self {
            GadgetKind::Adder => "adder",
            GadgetKind::Lookup => "lookup",
            GadgetKind::Fanout => "fanout",
        }
    }

    /// Number of surface-code patches a width-`width` instance occupies.
    ///
    /// The adder holds two `width`-bit registers plus the carry patch; the
    /// lookup tree and the fan-out act on `width` patches directly.
    pub fn patches(self, width: usize) -> usize {
        match self {
            GadgetKind::Adder => 2 * width + 1,
            GadgetKind::Lookup | GadgetKind::Fanout => width,
        }
    }

    /// The cycled transversal-CNOT layer schedule (0-based patch pairs).
    ///
    /// # Panics
    ///
    /// Panics if `width` is below the gadget's minimum (1 for the adder,
    /// 2 for lookup and fan-out).
    // raa-audit: allow(orphan-pub): scenario_proptests.rs checks every schedule's CNOT layers with it.
    pub fn schedule(self, width: usize) -> Vec<Vec<(usize, usize)>> {
        match self {
            GadgetKind::Adder => {
                assert!(width >= 1, "adder needs at least one bit position");
                // Patch layout: carry = 0, a_i = 1 + i, b_i = 1 + width + i.
                // MAJ layer i sources the running carry (the carry patch for
                // i = 0, then a_{i-1}) into both registers at position i.
                let maj: Vec<Vec<(usize, usize)>> = (0..width)
                    .map(|i| {
                        let carry_src = if i == 0 { 0 } else { i };
                        vec![(carry_src, 1 + width + i), (carry_src, 1 + i)]
                    })
                    .collect();
                let mut layers = maj.clone();
                layers.extend(maj.into_iter().rev());
                layers
            }
            GadgetKind::Lookup => {
                assert!(width >= 2, "lookup tree needs at least two patches");
                let mut tree: Vec<Vec<(usize, usize)>> = Vec::new();
                let mut span = 1;
                while span < width {
                    tree.push(
                        (0..span)
                            .filter(|&i| i + span < width)
                            .map(|i| (i, i + span))
                            .collect(),
                    );
                    span *= 2;
                }
                let mut layers = tree.clone();
                layers.extend(tree.into_iter().rev());
                layers
            }
            GadgetKind::Fanout => {
                assert!(width >= 2, "fan-out needs at least two patches");
                (1..width).map(|j| vec![(0, j)]).collect()
            }
        }
    }

    /// The decodable circuit-level experiment for this gadget.
    ///
    /// # Example
    ///
    /// ```
    /// use raa_gadgets::circuits::GadgetKind;
    /// use raa_surface::NoiseModel;
    ///
    /// let exp = GadgetKind::Adder.experiment(3, 4, 4, NoiseModel::uniform(1e-3));
    /// assert_eq!(exp.build().num_detectors(), 4 * 9 * 8);
    /// ```
    pub fn experiment(
        self,
        distance: u32,
        width: usize,
        rounds: usize,
        noise: NoiseModel,
    ) -> ScheduledCnotExperiment {
        ScheduledCnotExperiment {
            distance,
            patches: self.patches(width),
            schedule: self.schedule(width),
            rounds,
            basis: Basis::Z,
            noise,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_schedule_ripples_and_unripples() {
        let layers = GadgetKind::Adder.schedule(4);
        assert_eq!(layers.len(), 8, "width MAJ layers + width UMA layers");
        assert_eq!(layers[0], vec![(0, 5), (0, 1)]);
        assert_eq!(layers[3], vec![(3, 8), (3, 4)]);
        // UMA half is the MAJ half mirrored.
        for i in 0..4 {
            assert_eq!(layers[4 + i], layers[3 - i]);
        }
    }

    #[test]
    fn lookup_schedule_is_a_doubling_tree() {
        let layers = GadgetKind::Lookup.schedule(4);
        assert_eq!(
            layers,
            vec![
                vec![(0, 1)],
                vec![(0, 2), (1, 3)],
                vec![(0, 2), (1, 3)],
                vec![(0, 1)],
            ]
        );
        // Non-power-of-two widths drop the out-of-range branches.
        let w5 = GadgetKind::Lookup.schedule(5);
        assert_eq!(w5[2], vec![(0, 4)]);
    }

    #[test]
    fn fanout_schedule_targets_every_patch_once() {
        let layers = GadgetKind::Fanout.schedule(3);
        assert_eq!(layers, vec![vec![(0, 1)], vec![(0, 2)]]);
    }

    #[test]
    fn schedules_stay_in_range() {
        for kind in GadgetKind::ALL {
            for width in 2..=5 {
                let patches = kind.patches(width);
                for layer in kind.schedule(width) {
                    for (c, t) in layer {
                        assert!(
                            c < patches && t < patches && c != t,
                            "{kind:?} w={width}: ({c}, {t})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn experiments_layer_uniformly() {
        for kind in GadgetKind::ALL {
            let exp = kind.experiment(3, 3, 3, NoiseModel::uniform(1e-3));
            let c = exp.build();
            assert_eq!(
                c.num_detectors(),
                3 * kind.patches(3) * 8,
                "{kind:?}: rounds × patches × (d² − 1)"
            );
            assert_eq!(c.num_observables(), kind.patches(3));
        }
    }
}
