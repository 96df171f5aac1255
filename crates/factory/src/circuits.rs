//! Circuit-level Clifford skeletons of the factory protocols, for the
//! `raa-sim` Monte-Carlo pipeline.
//!
//! The non-Clifford content of a factory (the |T⟩ injections themselves) is
//! outside the reach of stabilizer sampling, but the factory's *syndrome
//! structure* is set entirely by its Clifford frame: the deterministic
//! transversal-CNOT network that encodes, checks and decodes the block. Each
//! [`FactoryProtocol`] exposes that frame as a cycled CNOT layer schedule —
//! one layer per SE round, the paper's one-SE-round-per-transversal-gate
//! operating point (§III.6, Fig. 11) — which
//! [`raa_surface::ScheduledCnotExperiment`] turns into a decodable
//! circuit with uniform detector layering.

use raa_surface::{Basis, NoiseModel, ScheduledCnotExperiment};

/// Which factory protocol's Clifford skeleton to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactoryProtocol {
    /// 15-to-1 |T⟩ distillation: the transversal encoding network of the
    /// \[\[15,1,3\]\] punctured Reed–Muller code (four layers of seven CNOTs,
    /// one per code coordinate-hyperplane).
    Distill15,
    /// 8T-to-CCZ on the \[\[8,3,2\]\] cube code (paper §III.6, Fig. 8): three
    /// cube-dimension CNOT layers over eight patches.
    Ccz,
    /// Magic-state cultivation's repeated two-patch check: alternating
    /// CNOT directions between the cultivated patch and its checker.
    Cultivation,
}

impl FactoryProtocol {
    /// All protocols, in catalog order.
    pub const ALL: [FactoryProtocol; 3] = [
        FactoryProtocol::Distill15,
        FactoryProtocol::Ccz,
        FactoryProtocol::Cultivation,
    ];

    /// Stable lowercase label used in records and on the wire.
    // raa-audit: allow(orphan-pub): sim's jobs.rs unit tests label every kind with it.
    pub fn label(self) -> &'static str {
        match self {
            FactoryProtocol::Distill15 => "distill15",
            FactoryProtocol::Ccz => "ccz",
            FactoryProtocol::Cultivation => "cultivation",
        }
    }

    /// Number of surface-code patches the skeleton occupies.
    pub fn patches(self) -> usize {
        match self {
            FactoryProtocol::Distill15 => 15,
            FactoryProtocol::Ccz => 8,
            FactoryProtocol::Cultivation => 2,
        }
    }

    /// The cycled transversal-CNOT layer schedule (0-based patch pairs).
    // raa-audit: allow(orphan-pub): scenario_proptests.rs checks every schedule's CNOT layers with it.
    pub fn schedule(self) -> Vec<Vec<(usize, usize)>> {
        match self {
            // [[15,1,3]] Reed–Muller encoder: qubits are labelled 1..=15 by
            // their coordinate bits; layer w ∈ {1,2,4,8} copies qubit w onto
            // every qubit sharing that bit. Patch index = qubit − 1.
            FactoryProtocol::Distill15 => [1usize, 2, 4, 8]
                .iter()
                .map(|&w| {
                    (1..=15)
                        .filter(|&q| q & w != 0 && q != w)
                        .map(|q| (w - 1, q - 1))
                        .collect()
                })
                .collect(),
            // Cube code: one CNOT layer per cube dimension, pairing vertices
            // across the x, y and z faces.
            FactoryProtocol::Ccz => vec![
                vec![(0, 1), (2, 3), (4, 5), (6, 7)],
                vec![(0, 2), (1, 3), (4, 6), (5, 7)],
                vec![(0, 4), (1, 5), (2, 6), (3, 7)],
            ],
            FactoryProtocol::Cultivation => vec![vec![(0, 1)], vec![(1, 0)]],
        }
    }

    /// The decodable circuit-level experiment for this protocol.
    ///
    /// # Example
    ///
    /// ```
    /// use raa_factory::circuits::FactoryProtocol;
    /// use raa_surface::NoiseModel;
    ///
    /// let exp = FactoryProtocol::Ccz.experiment(3, 4, NoiseModel::uniform(1e-3));
    /// assert_eq!(exp.build().num_detectors(), 4 * 8 * 8);
    /// ```
    pub fn experiment(
        self,
        distance: u32,
        rounds: usize,
        noise: NoiseModel,
    ) -> ScheduledCnotExperiment {
        ScheduledCnotExperiment {
            distance,
            patches: self.patches(),
            schedule: self.schedule(),
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
    fn schedule_shapes() {
        let d15 = FactoryProtocol::Distill15.schedule();
        assert_eq!(d15.len(), 4);
        for layer in &d15 {
            assert_eq!(layer.len(), 7, "each hyperplane holds 7 targets");
        }
        let ccz = FactoryProtocol::Ccz.schedule();
        assert_eq!(ccz.len(), 3);
        for layer in &ccz {
            assert_eq!(layer.len(), 4, "each cube dimension pairs 8 vertices");
        }
        assert_eq!(FactoryProtocol::Cultivation.schedule().len(), 2);
    }

    #[test]
    fn schedules_stay_in_range() {
        for proto in FactoryProtocol::ALL {
            let patches = proto.patches();
            for layer in proto.schedule() {
                for (c, t) in layer {
                    assert!(
                        c < patches && t < patches && c != t,
                        "{proto:?}: ({c}, {t})"
                    );
                }
            }
        }
    }

    #[test]
    fn experiments_layer_uniformly() {
        for proto in FactoryProtocol::ALL {
            let exp = proto.experiment(3, 3, NoiseModel::uniform(1e-3));
            let c = exp.build();
            assert_eq!(
                c.num_detectors(),
                3 * proto.patches() * 8,
                "{proto:?}: rounds × patches × (d² − 1)"
            );
            assert_eq!(c.num_observables(), proto.patches());
        }
    }
}
