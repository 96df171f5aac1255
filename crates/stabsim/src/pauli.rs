//! Sparse Pauli strings (sign-free), used for error propagation and code analysis.

use std::collections::BTreeSet;
use std::fmt;

/// A single-qubit Pauli, encoded as (x-bit, z-bit): `I=(0,0)`, `X=(1,0)`, `Z=(0,1)`, `Y=(1,1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Pauli {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// The (x, z) bit pair of this Pauli.
    pub(crate) fn bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Reconstructs a Pauli from its (x, z) bit pair.
    pub(crate) fn from_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// A sparse multi-qubit Pauli string, ignoring global phase.
///
/// Stored as the set of qubits with an X component and the set with a Z
/// component (a qubit in both sets carries Y).
///
/// # Example
///
/// ```
/// use raa_stabsim::pauli::PauliString;
///
/// // X on qubits 0 and 1 meets Z on qubit 0 once: they anticommute.
/// let p = PauliString::x_on([0, 1]);
/// let q = PauliString::z_on([0]);
/// assert!(!p.commutes_with(&q));
/// assert_eq!(p.weight(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PauliString {
    xs: BTreeSet<u32>,
    zs: BTreeSet<u32>,
}

impl PauliString {
    /// The identity string.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Builds a string from `(qubit, pauli)` pairs; later pairs multiply in.
    pub(crate) fn from_pairs<I: IntoIterator<Item = (u32, Pauli)>>(pairs: I) -> Self {
        let mut s = Self::new();
        for (q, p) in pairs {
            s.mul_pauli(q, p);
        }
        s
    }

    /// Builds an X-type string supported on `qubits`.
    // raa-audit: allow(orphan-pub): surface's rotated.rs and code832.rs unit tests check stabilizer commutation against it.
    pub fn x_on<I: IntoIterator<Item = u32>>(qubits: I) -> Self {
        Self::from_pairs(qubits.into_iter().map(|q| (q, Pauli::X)))
    }

    /// Builds a Z-type string supported on `qubits`.
    // raa-audit: allow(orphan-pub): surface's rotated.rs and code832.rs unit tests check stabilizer commutation against it.
    pub fn z_on<I: IntoIterator<Item = u32>>(qubits: I) -> Self {
        Self::from_pairs(qubits.into_iter().map(|q| (q, Pauli::Z)))
    }

    /// The Pauli at `qubit`.
    pub(crate) fn get(&self, qubit: u32) -> Pauli {
        Pauli::from_bits(self.xs.contains(&qubit), self.zs.contains(&qubit))
    }

    /// Multiplies the given single-qubit Pauli into this string (phase dropped).
    pub(crate) fn mul_pauli(&mut self, qubit: u32, pauli: Pauli) {
        let (x, z) = pauli.bits();
        if x && !self.xs.remove(&qubit) {
            self.xs.insert(qubit);
        }
        if z && !self.zs.remove(&qubit) {
            self.zs.insert(qubit);
        }
    }

    /// Whether this string commutes with `other`.
    // raa-audit: allow(orphan-pub): surface's rotated.rs and code832.rs unit tests check stabilizer commutation against it.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        // Anticommutation count = |X(self) ∩ Z(other)| + |Z(self) ∩ X(other)| (mod 2).
        let a = self.xs.intersection(&other.zs).count();
        let b = self.zs.intersection(&other.xs).count();
        (a + b).is_multiple_of(2)
    }

    /// Number of qubits with a non-identity Pauli.
    // raa-audit: allow(orphan-pub): surface's rotated.rs and code832.rs unit tests check stabilizer commutation against it.
    pub fn weight(&self) -> usize {
        self.xs.union(&self.zs).count()
    }

    /// Whether this is the identity string.
    pub(crate) fn is_identity(&self) -> bool {
        self.xs.is_empty() && self.zs.is_empty()
    }

    /// Iterates over the `(qubit, pauli)` pairs of the support, in qubit order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, Pauli)> + '_ {
        let support: BTreeSet<u32> = self.xs.union(&self.zs).copied().collect();
        support.into_iter().map(move |q| (q, self.get(q)))
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identity() {
            return write!(f, "I");
        }
        let mut first = true;
        for (q, p) in self.iter() {
            if !first {
                write!(f, "·")?;
            }
            write!(f, "{p}{q}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_pauli_commutation() {
        let single = |p| PauliString::from_pairs([(0, p)]);
        let (i, x, y, z) = (
            single(Pauli::I),
            single(Pauli::X),
            single(Pauli::Y),
            single(Pauli::Z),
        );
        assert!(x.commutes_with(&x));
        assert!(!x.commutes_with(&z));
        assert!(!x.commutes_with(&y));
        assert!(!y.commutes_with(&z));
        assert!(i.commutes_with(&x));
    }

    #[test]
    fn bits_round_trip() {
        for p in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
            let (x, z) = p.bits();
            assert_eq!(Pauli::from_bits(x, z), p);
        }
    }

    #[test]
    fn multiplication_xor_structure() {
        // X * Z = Y (up to phase)
        let mut s = PauliString::new();
        s.mul_pauli(0, Pauli::X);
        s.mul_pauli(0, Pauli::Z);
        assert_eq!(s.get(0), Pauli::Y);
        // X * X = I
        s.mul_pauli(0, Pauli::Y);
        assert!(s.is_identity());
    }

    #[test]
    fn string_commutation() {
        // XX commutes with ZZ (two anticommuting sites cancel).
        let xx = PauliString::x_on([0, 1]);
        let zz = PauliString::z_on([0, 1]);
        assert!(xx.commutes_with(&zz));
        // XI anticommutes with ZZ? X0 vs Z0Z1: one overlap -> anticommute.
        let xi = PauliString::x_on([0]);
        assert!(!xi.commutes_with(&zz));
    }

    #[test]
    fn weight_and_iter() {
        let p = PauliString::from_pairs([(3, Pauli::Y), (1, Pauli::X), (5, Pauli::Z)]);
        assert_eq!(p.weight(), 3);
        let collected: Vec<_> = p.iter().collect();
        assert_eq!(collected, vec![(1, Pauli::X), (3, Pauli::Y), (5, Pauli::Z)]);
        assert_eq!(p.to_string(), "X1·Y3·Z5");
    }

    proptest! {
        /// Commutation is symmetric.
        #[test]
        fn commutation_symmetric(a in proptest::collection::vec((0u32..8, 0u8..4), 0..8),
                                 b in proptest::collection::vec((0u32..8, 0u8..4), 0..8)) {
            let to_pauli = |v: u8| match v { 0 => Pauli::I, 1 => Pauli::X, 2 => Pauli::Y, _ => Pauli::Z };
            let s = PauliString::from_pairs(a.iter().map(|&(q, v)| (q, to_pauli(v))));
            let t = PauliString::from_pairs(b.iter().map(|&(q, v)| (q, to_pauli(v))));
            prop_assert_eq!(s.commutes_with(&t), t.commutes_with(&s));
        }
    }
}
