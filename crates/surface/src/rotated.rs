//! Rotated surface code layout: data qubits, plaquettes and the
//! syndrome-extraction schedule.
//!
//! The [[d², 1, d]] rotated surface code (§II.3 of the paper) places `d × d`
//! data qubits on odd coordinates `(2c+1, 2r+1)` and stabilizer ancillas on
//! even coordinates, checkerboard-coloured: Z-type plaquettes where `c + r`
//! is even, X-type where odd. Weight-2 boundary plaquettes are X-type on the
//! top/bottom edges and Z-type on the left/right edges, so logical Z runs
//! along a row and logical X along a column.

/// A stabilizer plaquette of the rotated code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Plaquette {
    /// Ancilla coordinate `(x, y)` on the even grid.
    pub(crate) position: (i32, i32),
    /// Data-qubit indices touched, in syndrome-extraction layer order;
    /// `None` where the neighbour falls outside the patch (boundary).
    pub(crate) data: [Option<usize>; 4],
}

impl Plaquette {
    /// Iterates over the data-qubit indices in this plaquette's support.
    pub(crate) fn support(&self) -> impl Iterator<Item = usize> + '_ {
        self.data.iter().flatten().copied()
    }
}

/// The rotated surface code at distance `d`.
///
/// Local qubit numbering (used by circuit builders): data qubits `0..d²` in
/// row-major order, then X ancillas, then Z ancillas.
///
/// # Example
///
/// ```
/// use raa_surface::{Basis, MemoryExperiment, NoiseModel};
///
/// // A d = 3 memory experiment runs on one rotated patch.
/// let exp = MemoryExperiment {
///     distance: 3,
///     rounds: 2,
///     basis: Basis::Z,
///     noise: NoiseModel::uniform(1e-3),
/// };
/// assert_eq!(exp.build().num_qubits(), 17); // 9 data + 8 ancillas
/// ```
#[derive(Debug, Clone)]
pub(crate) struct RotatedSurfaceCode {
    distance: u32,
    x_plaquettes: Vec<Plaquette>,
    z_plaquettes: Vec<Plaquette>,
}

impl RotatedSurfaceCode {
    /// Builds the distance-`d` rotated surface code.
    ///
    /// # Panics
    ///
    /// Panics if `d` is even or smaller than 3 (the architecture uses odd
    /// distances, where the rotated layout is balanced).
    pub(crate) fn new(distance: u32) -> Self {
        assert!(
            distance >= 3 && distance % 2 == 1,
            "distance must be odd and at least 3, got {distance}"
        );
        let d = distance as i32;
        let mut x_plaquettes = Vec::new();
        let mut z_plaquettes = Vec::new();
        for c in 0..=d {
            for r in 0..=d {
                let pos = (2 * c, 2 * r);
                let is_z = (c + r) % 2 == 0;
                // Data neighbours NW, NE, SW, SE of the ancilla.
                let corners = [
                    (pos.0 - 1, pos.1 - 1),
                    (pos.0 + 1, pos.1 - 1),
                    (pos.0 - 1, pos.1 + 1),
                    (pos.0 + 1, pos.1 + 1),
                ];
                let idx = |xy: (i32, i32)| -> Option<usize> {
                    let (x, y) = xy;
                    if x < 1 || y < 1 || x > 2 * d - 1 || y > 2 * d - 1 {
                        return None;
                    }
                    let (cc, rr) = ((x - 1) / 2, (y - 1) / 2);
                    Some((rr * d + cc) as usize)
                };
                let present: Vec<(i32, i32)> = corners
                    .iter()
                    .copied()
                    .filter(|&c| idx(c).is_some())
                    .collect();
                let keep = match present.len() {
                    4 => true,
                    2 => {
                        let on_top_bottom = pos.1 == 0 || pos.1 == 2 * d;
                        // X-type boundary plaquettes on top/bottom edges,
                        // Z-type on left/right edges.
                        if is_z {
                            !on_top_bottom
                        } else {
                            on_top_bottom
                        }
                    }
                    _ => false,
                };
                if !keep {
                    continue;
                }
                // Schedule order: X-type sweeps NW, NE, SW, SE ("Z" path);
                // Z-type sweeps NW, SW, NE, SE ("N" path). The opposite
                // interleave preserves the code distance under circuit noise.
                let order: [usize; 4] = if is_z { [0, 2, 1, 3] } else { [0, 1, 2, 3] };
                let mut data = [None; 4];
                for (slot, &k) in order.iter().enumerate() {
                    data[slot] = idx(corners[k]);
                }
                let plaq = Plaquette {
                    position: (pos.0, pos.1),
                    data,
                };
                if is_z {
                    z_plaquettes.push(plaq);
                } else {
                    x_plaquettes.push(plaq);
                }
            }
        }
        Self {
            distance,
            x_plaquettes,
            z_plaquettes,
        }
    }

    /// Number of data qubits, `d²`.
    pub(crate) fn num_data(&self) -> usize {
        (self.distance * self.distance) as usize
    }

    /// Total qubits per patch: data plus one ancilla per plaquette.
    pub(crate) fn num_qubits(&self) -> usize {
        self.num_data() + self.x_plaquettes.len() + self.z_plaquettes.len()
    }

    /// The X-type plaquettes.
    pub(crate) fn x_plaquettes(&self) -> &[Plaquette] {
        &self.x_plaquettes
    }

    /// The Z-type plaquettes.
    pub(crate) fn z_plaquettes(&self) -> &[Plaquette] {
        &self.z_plaquettes
    }

    /// Local index of the ancilla for X plaquette `i`.
    pub(crate) fn x_ancilla(&self, i: usize) -> usize {
        self.num_data() + i
    }

    /// Local index of the ancilla for Z plaquette `i`.
    pub(crate) fn z_ancilla(&self, i: usize) -> usize {
        self.num_data() + self.x_plaquettes.len() + i
    }

    /// Data indices of the logical Z operator (the top row).
    pub(crate) fn logical_z_support(&self) -> Vec<usize> {
        (0..self.distance as usize).collect()
    }

    /// Data indices of the logical X operator (the left column).
    pub(crate) fn logical_x_support(&self) -> Vec<usize> {
        let d = self.distance as usize;
        (0..d).map(|r| r * d).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raa_stabsim::pauli::PauliString;

    fn z_string(support: impl IntoIterator<Item = usize>) -> PauliString {
        PauliString::z_on(support.into_iter().map(|q| q as u32))
    }

    fn x_string(support: impl IntoIterator<Item = usize>) -> PauliString {
        PauliString::x_on(support.into_iter().map(|q| q as u32))
    }

    #[test]
    fn stabilizer_counts() {
        for d in [3u32, 5, 7, 9] {
            let code = RotatedSurfaceCode::new(d);
            let total = code.x_plaquettes().len() + code.z_plaquettes().len();
            assert_eq!(total, (d * d - 1) as usize, "d = {d}");
            // Balanced split between X and Z.
            assert_eq!(
                code.x_plaquettes().len(),
                code.z_plaquettes().len(),
                "d = {d}"
            );
        }
    }

    #[test]
    fn plaquette_weights_are_2_or_4() {
        let code = RotatedSurfaceCode::new(5);
        for p in code.x_plaquettes().iter().chain(code.z_plaquettes()) {
            assert!(
                p.support().count() == 2 || p.support().count() == 4,
                "{p:?}"
            );
        }
        // (d²-1)/2 plaquettes of each type; (d-1)/2... boundary count:
        let boundary_x = code
            .x_plaquettes()
            .iter()
            .filter(|p| p.support().count() == 2)
            .count();
        let boundary_z = code
            .z_plaquettes()
            .iter()
            .filter(|p| p.support().count() == 2)
            .count();
        assert_eq!(boundary_x, 4); // (d-1)/2 per edge × 2 edges at d=5
        assert_eq!(boundary_z, 4);
    }

    #[test]
    fn all_stabilizers_commute() {
        let code = RotatedSurfaceCode::new(5);
        let xs: Vec<PauliString> = code
            .x_plaquettes()
            .iter()
            .map(|p| x_string(p.support()))
            .collect();
        let zs: Vec<PauliString> = code
            .z_plaquettes()
            .iter()
            .map(|p| z_string(p.support()))
            .collect();
        for x in &xs {
            for z in &zs {
                assert!(x.commutes_with(z), "{x} vs {z}");
            }
        }
    }

    #[test]
    fn logicals_commute_with_stabilizers_and_anticommute() {
        let code = RotatedSurfaceCode::new(5);
        let lz = z_string(code.logical_z_support());
        let lx = x_string(code.logical_x_support());
        for p in code.x_plaquettes() {
            assert!(lz.commutes_with(&x_string(p.support())));
        }
        for p in code.z_plaquettes() {
            assert!(lx.commutes_with(&z_string(p.support())));
        }
        assert!(!lz.commutes_with(&lx));
        assert_eq!(lz.weight(), 5);
        assert_eq!(lx.weight(), 5);
    }

    #[test]
    fn schedule_slots_cover_all_neighbours() {
        let code = RotatedSurfaceCode::new(3);
        for p in code.x_plaquettes().iter().chain(code.z_plaquettes()) {
            let mut support: Vec<usize> = p.support().collect();
            support.sort_unstable();
            support.dedup();
            assert_eq!(
                support.len(),
                p.support().count(),
                "duplicate neighbour in {p:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The full stabilizer group is consistent at several distances.
        #[test]
        fn group_structure(k in 1u32..5) {
            let d = 2 * k + 1;
            let code = RotatedSurfaceCode::new(d);
            let lz = z_string(code.logical_z_support());
            // Logical Z commutes with every X stabilizer.
            for p in code.x_plaquettes() {
                prop_assert!(lz.commutes_with(&x_string(p.support())));
            }
            // Every data qubit is covered by at least one plaquette.
            let mut covered = vec![false; code.num_data()];
            for p in code.x_plaquettes().iter().chain(code.z_plaquettes()) {
                for q in p.support() {
                    covered[q] = true;
                }
            }
            prop_assert!(covered.iter().all(|&b| b));
        }
    }
}
