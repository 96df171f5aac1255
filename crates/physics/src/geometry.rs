//! Site-grid geometry: rectangular footprints and per-patch atom counts.
//!
//! All lengths are in units of the lattice site spacing (Table I: 12 µm).
//! A distance-`d` surface-code patch occupies a `d × d` block of sites (data
//! qubits at unit pitch with syndrome ancillas interleaved at sub-site offsets),
//! so the physical linear size of a patch is `d` sites — consistent with the
//! paper's statement that moving a patch "across the distance of a logical
//! qubit" is a `d`-site move.

use std::fmt;

/// An axis-aligned rectangular footprint on the site grid.
///
/// Footprints measure the space cost of gadgets in sites; multiply by the
/// atoms-per-site density of the relevant zone to get physical qubit counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Footprint {
    /// Width in sites.
    pub width: u64,
    /// Height in sites.
    pub height: u64,
}

impl Footprint {
    /// Creates a `width × height` footprint.
    pub fn new(width: u64, height: u64) -> Self {
        Self { width, height }
    }

    /// Stacks `self` on top of `other` (heights add, width is the maximum).
    pub fn stack_vertical(&self, other: Footprint) -> Footprint {
        Footprint::new(self.width.max(other.width), self.height + other.height)
    }
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} sites", self.width, self.height)
    }
}

/// Number of physical atoms in one distance-`d` rotated surface-code patch:
/// `d²` data qubits plus `d² − 1` syndrome ancillas (§II.3).
pub fn atoms_per_patch(distance: u32) -> u64 {
    let d = u64::from(distance);
    2 * d * d - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn patch_footprint_and_atoms() {
        // d^2 data + d^2 - 1 ancilla
        assert_eq!(atoms_per_patch(27), 2 * 27 * 27 - 1);
    }

    #[test]
    fn stacking() {
        let a = Footprint::new(12, 3);
        let b = Footprint::new(12, 1);
        let stacked = a.stack_vertical(b);
        assert_eq!(stacked, Footprint::new(12, 4));
    }

    #[test]
    fn display_nonempty() {
        assert!(!Footprint::new(1, 1).to_string().is_empty());
    }

    proptest! {
        /// Stacking equal widths keeps the width and adds the heights.
        #[test]
        fn vertical_stack_area(w in 1u64..100, h1 in 1u64..100, h2 in 1u64..100) {
            let s = Footprint::new(w, h1).stack_vertical(Footprint::new(w, h2));
            prop_assert_eq!((s.width, s.height), (w, h1 + h2));
        }

        /// Atom counts are strictly increasing in distance.
        #[test]
        fn atoms_monotone_in_distance(d in 3u32..60) {
            prop_assert!(atoms_per_patch(d + 2) > atoms_per_patch(d));
        }
    }
}
