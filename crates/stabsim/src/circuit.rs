//! Stabilizer circuit intermediate representation.
//!
//! A [`Circuit`] is a flat list of operations: Clifford gates, resets,
//! measurements, probabilistic Pauli noise channels and detector/observable
//! annotations. It is the common input to the tableau simulator, the
//! Pauli-frame sampler and detector-error-model extraction.
//!
//! Detectors are parity checks over measurement outcomes that are
//! deterministic in the absence of noise; observables are the logical
//! measurement parities whose flips constitute logical errors.

use std::fmt;

/// The kind of a circuit operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Pauli X gate (targets: qubits).
    X,
    /// Pauli Y gate.
    Y,
    /// Pauli Z gate.
    Z,
    /// Hadamard gate.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate.
    SDag,
    /// Square root of X.
    SqrtX,
    /// Inverse square root of X.
    SqrtXDag,
    /// Controlled-X; targets are (control, target) pairs.
    CX,
    /// Controlled-Z; targets are pairs.
    CZ,
    /// Swap; targets are pairs.
    Swap,
    /// Reset to |0⟩.
    R,
    /// Reset to |+⟩.
    RX,
    /// Z-basis measurement.
    M,
    /// X-basis measurement.
    MX,
    /// Z-basis measurement followed by reset to |0⟩.
    MR,
    /// Bit-flip channel: X with probability `arg` on each target.
    XError,
    /// Phase-flip channel: Z with probability `arg`.
    ZError,
    /// Y-flip channel.
    YError,
    /// Single-qubit depolarizing: one of X/Y/Z each with probability `arg`/3.
    Depolarize1,
    /// Two-qubit depolarizing on pairs: one of the 15 non-identity two-qubit
    /// Paulis each with probability `arg`/15.
    Depolarize2,
    /// Layer separator (no effect on semantics).
    Tick,
}

impl OpKind {
    /// Whether this operation is a probabilistic noise channel.
    pub fn is_noise(self) -> bool {
        matches!(
            self,
            OpKind::XError
                | OpKind::ZError
                | OpKind::YError
                | OpKind::Depolarize1
                | OpKind::Depolarize2
        )
    }

    /// Whether this operation takes its targets in pairs.
    pub fn is_two_qubit(self) -> bool {
        matches!(
            self,
            OpKind::CX | OpKind::CZ | OpKind::Swap | OpKind::Depolarize2
        )
    }

    /// Whether this operation records measurement outcomes.
    pub fn is_measurement(self) -> bool {
        matches!(self, OpKind::M | OpKind::MX | OpKind::MR)
    }
}

/// One operation: a kind, a flat target list and an optional probability argument.
///
/// Two-qubit kinds interpret `targets` as consecutive pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// The operation kind.
    pub kind: OpKind,
    /// Flat target list (pairs for two-qubit kinds).
    pub targets: Vec<u32>,
    /// Probability argument for noise channels; 0.0 otherwise.
    pub arg: f64,
}

impl Operation {
    /// Iterates over the (control, target) pairs of a two-qubit operation.
    ///
    /// # Panics
    ///
    /// Panics if the kind is not a two-qubit operation.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        assert!(self.kind.is_two_qubit(), "{:?} is not two-qubit", self.kind);
        self.targets.chunks_exact(2).map(|c| (c[0], c[1]))
    }
}

/// A reference to a previously recorded measurement, counting backwards:
/// `MeasRecord::back(1)` is the most recent measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasRecord(usize);

impl MeasRecord {
    /// References the `k`-th most recent measurement (`k ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn back(k: usize) -> Self {
        assert!(k >= 1, "measurement look-back must be at least 1");
        Self(k)
    }

    /// The look-back offset.
    pub fn offset(self) -> usize {
        self.0
    }
}

/// A stabilizer circuit: operations plus detector and observable definitions.
///
/// # Example
///
/// ```
/// use raa_stabsim::circuit::{Circuit, MeasRecord};
///
/// // A two-round bit-flip repetition-code memory on 3 qubits (2 ancillas).
/// let mut c = Circuit::new();
/// c.r(&[0, 1, 2, 3, 4]);
/// for _ in 0..2 {
///     c.x_error(&[0, 2, 4], 1e-3);
///     c.cx(&[(0, 1), (2, 1), (2, 3), (4, 3)]);
///     c.mr(&[1, 3]);
/// }
/// // Compare the two rounds of each ancilla.
/// c.detector(&[MeasRecord::back(1), MeasRecord::back(3)]);
/// c.detector(&[MeasRecord::back(2), MeasRecord::back(4)]);
/// c.m(&[0, 2, 4]);
/// c.observable_include(0, &[MeasRecord::back(3)]);
/// assert_eq!(c.num_measurements(), 7);
/// assert_eq!(c.num_detectors(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    ops: Vec<Operation>,
    num_qubits: u32,
    num_measurements: usize,
    /// Detector definitions as absolute measurement indices.
    detectors: Vec<Vec<usize>>,
    /// Observable definitions as absolute measurement indices, by observable id.
    observables: Vec<Vec<usize>>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of qubits touched (highest target + 1).
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Total number of measurement records produced.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// Number of detectors defined.
    pub fn num_detectors(&self) -> usize {
        self.detectors.len()
    }

    /// Number of observables defined (highest observable id + 1).
    pub fn num_observables(&self) -> usize {
        self.observables.len()
    }

    /// The measurement indices (absolute) of detector `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn detector_measurements(&self, i: usize) -> &[usize] {
        &self.detectors[i]
    }

    /// All detector definitions.
    pub fn detectors(&self) -> &[Vec<usize>] {
        &self.detectors
    }

    /// The measurement indices (absolute) of observable `i`.
    pub fn observable(&self, i: usize) -> &[usize] {
        &self.observables[i]
    }

    /// All observable definitions.
    pub fn observables(&self) -> &[Vec<usize>] {
        &self.observables
    }

    fn note_targets(&mut self, targets: &[u32]) {
        for &t in targets {
            self.num_qubits = self.num_qubits.max(t + 1);
        }
    }

    fn push_simple(&mut self, kind: OpKind, targets: &[u32]) -> &mut Self {
        if targets.is_empty() {
            return self;
        }
        self.note_targets(targets);
        if kind.is_measurement() {
            self.num_measurements += targets.len();
        }
        self.ops.push(Operation {
            kind,
            targets: targets.to_vec(),
            arg: 0.0,
        });
        self
    }

    fn push_pairs(&mut self, kind: OpKind, pairs: &[(u32, u32)]) -> &mut Self {
        if pairs.is_empty() {
            return self;
        }
        let mut targets = Vec::with_capacity(pairs.len() * 2);
        for &(a, b) in pairs {
            assert!(a != b, "two-qubit {kind:?} with identical targets {a}");
            targets.push(a);
            targets.push(b);
        }
        self.note_targets(&targets);
        self.ops.push(Operation {
            kind,
            targets,
            arg: 0.0,
        });
        self
    }

    fn push_noise(&mut self, kind: OpKind, targets: &[u32], p: f64) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&p) && p.is_finite(),
            "noise probability must be in [0, 1], got {p}"
        );
        if targets.is_empty() || p == 0.0 {
            return self;
        }
        self.note_targets(targets);
        self.ops.push(Operation {
            kind,
            targets: targets.to_vec(),
            arg: p,
        });
        self
    }

    /// Appends Pauli X gates.
    pub fn x(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::X, qs)
    }

    /// Appends Pauli Y gates.
    pub fn y(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::Y, qs)
    }

    /// Appends Pauli Z gates.
    pub fn z(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::Z, qs)
    }

    /// Appends Hadamard gates.
    pub fn h(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::H, qs)
    }

    /// Appends S gates.
    pub fn s(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::S, qs)
    }

    /// Appends S† gates.
    pub fn s_dag(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::SDag, qs)
    }

    /// Appends √X gates.
    pub fn sqrt_x(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::SqrtX, qs)
    }

    /// Appends √X† gates.
    pub fn sqrt_x_dag(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::SqrtXDag, qs)
    }

    /// Appends CX gates on (control, target) pairs.
    ///
    /// # Panics
    ///
    /// Panics if any pair repeats a qubit.
    pub fn cx(&mut self, pairs: &[(u32, u32)]) -> &mut Self {
        self.push_pairs(OpKind::CX, pairs)
    }

    /// Appends CZ gates on pairs.
    pub fn cz(&mut self, pairs: &[(u32, u32)]) -> &mut Self {
        self.push_pairs(OpKind::CZ, pairs)
    }

    /// Appends SWAP gates on pairs.
    pub fn swap(&mut self, pairs: &[(u32, u32)]) -> &mut Self {
        self.push_pairs(OpKind::Swap, pairs)
    }

    /// Appends resets to |0⟩.
    pub fn r(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::R, qs)
    }

    /// Appends resets to |+⟩.
    pub fn rx(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::RX, qs)
    }

    /// Appends Z-basis measurements (one record per target, in order).
    pub fn m(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::M, qs)
    }

    /// Appends X-basis measurements.
    pub fn mx(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::MX, qs)
    }

    /// Appends Z-basis measure-and-reset operations.
    pub fn mr(&mut self, qs: &[u32]) -> &mut Self {
        self.push_simple(OpKind::MR, qs)
    }

    /// Appends an X-error channel with probability `p` per target.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn x_error(&mut self, qs: &[u32], p: f64) -> &mut Self {
        self.push_noise(OpKind::XError, qs, p)
    }

    /// Appends a Z-error channel.
    pub fn z_error(&mut self, qs: &[u32], p: f64) -> &mut Self {
        self.push_noise(OpKind::ZError, qs, p)
    }

    /// Appends a Y-error channel.
    pub fn y_error(&mut self, qs: &[u32], p: f64) -> &mut Self {
        self.push_noise(OpKind::YError, qs, p)
    }

    /// Appends a single-qubit depolarizing channel with total probability `p`.
    pub fn depolarize1(&mut self, qs: &[u32], p: f64) -> &mut Self {
        self.push_noise(OpKind::Depolarize1, qs, p)
    }

    /// Appends a two-qubit depolarizing channel on pairs with total probability `p`.
    pub fn depolarize2(&mut self, pairs: &[(u32, u32)], p: f64) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&p) && p.is_finite(),
            "noise probability must be in [0, 1], got {p}"
        );
        if pairs.is_empty() || p == 0.0 {
            return self;
        }
        let mut targets = Vec::with_capacity(pairs.len() * 2);
        for &(a, b) in pairs {
            assert!(a != b, "two-qubit noise with identical targets {a}");
            targets.push(a);
            targets.push(b);
        }
        self.note_targets(&targets);
        self.ops.push(Operation {
            kind: OpKind::Depolarize2,
            targets,
            arg: p,
        });
        self
    }

    /// Appends a layer separator.
    pub fn tick(&mut self) -> &mut Self {
        self.ops.push(Operation {
            kind: OpKind::Tick,
            targets: Vec::new(),
            arg: 0.0,
        });
        self
    }

    /// Defines a detector over the referenced measurement records.
    ///
    /// # Panics
    ///
    /// Panics if any record looks back beyond the measurements recorded so far.
    pub fn detector(&mut self, recs: &[MeasRecord]) -> &mut Self {
        let abs = self.resolve(recs);
        self.detectors.push(abs);
        self
    }

    /// Adds the referenced measurement records to observable `id` (creating it
    /// and any lower-numbered observables if needed).
    ///
    /// # Panics
    ///
    /// Panics if any record looks back beyond the measurements recorded so far.
    pub fn observable_include(&mut self, id: usize, recs: &[MeasRecord]) -> &mut Self {
        let abs = self.resolve(recs);
        while self.observables.len() <= id {
            self.observables.push(Vec::new());
        }
        self.observables[id].extend(abs);
        self
    }

    /// Defines a detector over *absolute* measurement indices (0-based from
    /// the start of the circuit). Convenient for programmatic builders that
    /// track indices themselves.
    ///
    /// # Panics
    ///
    /// Panics if any index refers to a measurement not yet recorded.
    pub fn detector_at(&mut self, meas: &[usize]) -> &mut Self {
        for &m in meas {
            assert!(
                m < self.num_measurements,
                "measurement index {m} out of range ({} recorded)",
                self.num_measurements
            );
        }
        self.detectors.push(meas.to_vec());
        self
    }

    /// Adds *absolute* measurement indices to observable `id`.
    ///
    /// # Panics
    ///
    /// Panics if any index refers to a measurement not yet recorded.
    pub fn observable_include_at(&mut self, id: usize, meas: &[usize]) -> &mut Self {
        for &m in meas {
            assert!(
                m < self.num_measurements,
                "measurement index {m} out of range ({} recorded)",
                self.num_measurements
            );
        }
        while self.observables.len() <= id {
            self.observables.push(Vec::new());
        }
        self.observables[id].extend_from_slice(meas);
        self
    }

    fn resolve(&self, recs: &[MeasRecord]) -> Vec<usize> {
        recs.iter()
            .map(|r| {
                assert!(
                    r.offset() <= self.num_measurements,
                    "measurement look-back {} exceeds {} recorded measurements",
                    r.offset(),
                    self.num_measurements
                );
                self.num_measurements - r.offset()
            })
            .collect()
    }

    /// Appends all operations, detectors and observables of `other`,
    /// offsetting its measurement references past this circuit's records.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        let meas_offset = self.num_measurements;
        for op in &other.ops {
            self.ops.push(op.clone());
        }
        self.num_qubits = self.num_qubits.max(other.num_qubits);
        self.num_measurements += other.num_measurements;
        for det in &other.detectors {
            self.detectors
                .push(det.iter().map(|m| m + meas_offset).collect());
        }
        for (id, obs) in other.observables.iter().enumerate() {
            while self.observables.len() <= id {
                self.observables.push(Vec::new());
            }
            self.observables[id].extend(obs.iter().map(|m| m + meas_offset));
        }
        self
    }

    /// Counts operations of a given kind.
    pub fn count_ops(&self, kind: OpKind) -> usize {
        self.ops.iter().filter(|o| o.kind == kind).count()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# circuit: {} qubits, {} ops, {} measurements, {} detectors, {} observables",
            self.num_qubits,
            self.ops.len(),
            self.num_measurements,
            self.num_detectors(),
            self.num_observables()
        )?;
        for op in &self.ops {
            if op.kind.is_noise() {
                write!(f, "{:?}({})", op.kind, op.arg)?;
            } else {
                write!(f, "{:?}", op.kind)?;
            }
            for t in &op.targets {
                write!(f, " {t}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_measurements_and_qubits() {
        let mut c = Circuit::new();
        c.r(&[0, 1, 2]);
        c.h(&[0]);
        c.cx(&[(0, 1), (1, 2)]);
        c.m(&[0, 1, 2]);
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_measurements(), 3);
        assert_eq!(c.count_ops(OpKind::CX), 1);
    }

    #[test]
    fn detector_resolution_is_absolute() {
        let mut c = Circuit::new();
        c.m(&[0, 1]);
        c.m(&[2]);
        c.detector(&[MeasRecord::back(1), MeasRecord::back(3)]);
        assert_eq!(c.detector_measurements(0), &[2, 0]);
    }

    #[test]
    fn observable_includes_accumulate() {
        let mut c = Circuit::new();
        c.m(&[0]);
        c.observable_include(1, &[MeasRecord::back(1)]);
        c.m(&[1]);
        c.observable_include(1, &[MeasRecord::back(1)]);
        assert_eq!(c.num_observables(), 2);
        assert_eq!(c.observable(1), &[0, 1]);
        assert!(c.observable(0).is_empty());
    }

    #[test]
    fn append_offsets_measurements() {
        let mut a = Circuit::new();
        a.m(&[0]);
        let mut b = Circuit::new();
        b.m(&[1]);
        b.detector(&[MeasRecord::back(1)]);
        a.append(&b);
        assert_eq!(a.num_measurements(), 2);
        assert_eq!(a.detector_measurements(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "identical targets")]
    fn rejects_self_pair() {
        Circuit::new().cx(&[(3, 3)]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_deep_lookback() {
        let mut c = Circuit::new();
        c.m(&[0]);
        c.detector(&[MeasRecord::back(2)]);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        Circuit::new().x_error(&[0], 1.5);
    }

    #[test]
    fn zero_probability_noise_is_elided() {
        let mut c = Circuit::new();
        c.x_error(&[0], 0.0);
        assert_eq!(c.ops().len(), 0);
    }

    #[test]
    fn display_nonempty() {
        let mut c = Circuit::new();
        c.h(&[0]).depolarize1(&[0], 0.25).m(&[0]);
        let s = c.to_string();
        assert!(s.contains("Depolarize1(0.25) 0"));
    }
}
