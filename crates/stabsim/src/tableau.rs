//! Aaronson–Gottesman stabilizer tableau simulator.
//!
//! Tracks `n` destabilizer and `n` stabilizer generators with ±1 signs,
//! supporting the full Clifford gate set, resets and (possibly forced)
//! measurements. Used as the exact reference simulator: the Pauli-frame
//! sampler ([`crate::frame`]) XORs noise-induced flips against a noiseless
//! reference sample produced here.

use crate::circuit::{Circuit, OpKind};
use rand::{Rng, RngExt};

/// Outcome of a single measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureResult {
    /// The measured bit.
    pub value: bool,
    /// Whether the outcome was random (`true`) or determined by the state.
    pub deterministic: bool,
}

/// A stabilizer state on `n` qubits in tableau form.
///
/// # Example
///
/// ```
/// use raa_stabsim::tableau::TableauSim;
///
/// let mut sim = TableauSim::new(2);
/// sim.h(0);
/// sim.cx(0, 1);                    // Bell pair
/// let a = sim.measure_forced(0, false); // collapse to |00>
/// let b = sim.measure(1, &mut rand::rng());
/// assert_eq!(a.value, b.value);    // perfectly correlated
/// assert!(b.deterministic);
/// ```
#[derive(Debug, Clone)]
pub struct TableauSim {
    n: usize,
    /// x[r * n + q]: X component of generator r at qubit q.
    /// Rows 0..n are destabilizers, n..2n are stabilizers, row 2n is scratch.
    x: Vec<bool>,
    z: Vec<bool>,
    /// Sign bit per row: true means −1.
    sign: Vec<bool>,
}

impl TableauSim {
    /// Creates the all-|0⟩ state on `n` qubits.
    pub fn new(n: usize) -> Self {
        let rows = 2 * n + 1;
        let mut sim = Self {
            n,
            x: vec![false; rows * n],
            z: vec![false; rows * n],
            sign: vec![false; rows],
        };
        for q in 0..n {
            sim.x[q * n + q] = true; // destabilizer X_q
            sim.z[(n + q) * n + q] = true; // stabilizer Z_q
        }
        sim
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    fn xr(&self, r: usize, q: usize) -> bool {
        self.x[r * self.n + q]
    }

    #[inline]
    fn zr(&self, r: usize, q: usize) -> bool {
        self.z[r * self.n + q]
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) {
        self.check(q);
        let n = self.n;
        for r in 0..2 * n {
            let i = r * n + q;
            self.sign[r] ^= self.x[i] & self.z[i];
            let (xv, zv) = (self.x[i], self.z[i]);
            self.x[i] = zv;
            self.z[i] = xv;
        }
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) {
        self.check(q);
        let n = self.n;
        for r in 0..2 * n {
            let i = r * n + q;
            self.sign[r] ^= self.x[i] & self.z[i];
            self.z[i] ^= self.x[i];
        }
    }

    /// Inverse phase gate S† on `q` (three applications of S).
    pub fn s_dag(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// √X on `q`.
    pub fn sqrt_x(&mut self, q: usize) {
        self.h(q);
        self.s(q);
        self.h(q);
    }

    /// √X† on `q`.
    pub fn sqrt_x_dag(&mut self, q: usize) {
        self.h(q);
        self.s_dag(q);
        self.h(q);
    }

    /// Pauli X on `q` (flips signs of generators with a Z component at `q`).
    pub fn x_gate(&mut self, q: usize) {
        self.check(q);
        let n = self.n;
        for r in 0..2 * n {
            self.sign[r] ^= self.z[r * n + q];
        }
    }

    /// Pauli Z on `q`.
    pub fn z_gate(&mut self, q: usize) {
        self.check(q);
        let n = self.n;
        for r in 0..2 * n {
            self.sign[r] ^= self.x[r * n + q];
        }
    }

    /// Pauli Y on `q`.
    pub fn y_gate(&mut self, q: usize) {
        self.check(q);
        let n = self.n;
        for r in 0..2 * n {
            self.sign[r] ^= self.x[r * n + q] ^ self.z[r * n + q];
        }
    }

    /// CX with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `c == t` or either index is out of range.
    pub fn cx(&mut self, c: usize, t: usize) {
        self.check(c);
        self.check(t);
        assert!(c != t, "CX control and target must differ");
        let n = self.n;
        for r in 0..2 * n {
            let (xc, zc) = (self.x[r * n + c], self.z[r * n + c]);
            let (xt, zt) = (self.x[r * n + t], self.z[r * n + t]);
            self.sign[r] ^= xc & zt & (xt == zc);
            self.x[r * n + t] = xt ^ xc;
            self.z[r * n + c] = zc ^ zt;
        }
    }

    /// CZ between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cx(a, b);
        self.h(b);
    }

    /// SWAP of `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cx(a, b);
        self.cx(b, a);
        self.cx(a, b);
    }

    fn check(&self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
    }

    /// Phase contribution when multiplying row `i` into row `h`
    /// (the g function of Aaronson–Gottesman), summed over qubits, plus the
    /// sign bits; returns the resulting sign bit for row `h`.
    fn rowsum_sign(&self, h: usize, i: usize) -> bool {
        let n = self.n;
        let mut phase: i32 = 2 * (self.sign[h] as i32) + 2 * (self.sign[i] as i32);
        for q in 0..n {
            let (x1, z1) = (self.xr(i, q) as i32, self.zr(i, q) as i32);
            let (x2, z2) = (self.xr(h, q) as i32, self.zr(h, q) as i32);
            let g = match (x1, z1) {
                (0, 0) => 0,
                (1, 1) => z2 - x2,
                (1, 0) => z2 * (2 * x2 - 1),
                (0, 1) => x2 * (1 - 2 * z2),
                _ => unreachable!(),
            };
            phase += g;
        }
        // For pairs of commuting rows the phase is 0 or 2 (mod 4). Products
        // involving destabilizer rows may be odd (the factors anticommute);
        // destabilizer signs carry no meaning, so rounding is harmless.
        phase.rem_euclid(4) / 2 == 1
    }

    /// Row `h` ← row `i` · row `h` (Paulis multiply, signs via `rowsum_sign`).
    fn rowsum(&mut self, h: usize, i: usize) {
        let n = self.n;
        self.sign[h] = self.rowsum_sign(h, i);
        for q in 0..n {
            self.x[h * n + q] ^= self.x[i * n + q];
            self.z[h * n + q] ^= self.z[i * n + q];
        }
    }

    /// Measures qubit `q` in the Z basis with outcomes drawn from `rng`.
    pub fn measure<R: Rng>(&mut self, q: usize, rng: &mut R) -> MeasureResult {
        let outcome = rng.random::<bool>();
        self.measure_impl(q, Some(outcome))
    }

    /// Measures qubit `q`, forcing random outcomes to `forced`.
    ///
    /// The caller asserts the outcome: when the measurement is deterministic,
    /// debug builds check that `forced` matches the state's value and panic on
    /// a mismatch (a mismatch means the caller's expectation about the state
    /// is wrong — historically the forced value was silently ignored, which
    /// hid such bugs). Use [`TableauSim::measure_desired`] to express "take
    /// this value only if the outcome is random".
    pub fn measure_forced(&mut self, q: usize, forced: bool) -> MeasureResult {
        let m = self.measure_impl(q, Some(forced));
        debug_assert!(
            !m.deterministic || m.value == forced,
            "measure_forced: qubit {q} is deterministically {}, caller forced {forced}",
            m.value
        );
        m
    }

    /// Measures qubit `q`, taking `desired` as the outcome when (and only
    /// when) the measurement is random; deterministic outcomes keep the
    /// state's value. The non-asserting sibling of
    /// [`TableauSim::measure_forced`].
    pub fn measure_desired(&mut self, q: usize, desired: bool) -> MeasureResult {
        self.measure_impl(q, Some(desired))
    }

    fn measure_impl(&mut self, q: usize, random_value: Option<bool>) -> MeasureResult {
        self.check(q);
        let n = self.n;
        // A stabilizer row with X at q anticommutes with Z_q: outcome random.
        let p = (n..2 * n).find(|&r| self.xr(r, q));
        match p {
            Some(p) => {
                let value = random_value.unwrap_or(false);
                let rows: Vec<usize> = (0..2 * n).filter(|&r| r != p && self.xr(r, q)).collect();
                for r in rows {
                    self.rowsum(r, p);
                }
                // Destabilizer row (p - n) becomes the old stabilizer row p.
                let (dst, src) = (p - n, p);
                for qq in 0..n {
                    self.x[dst * n + qq] = self.x[src * n + qq];
                    self.z[dst * n + qq] = self.z[src * n + qq];
                }
                self.sign[dst] = self.sign[src];
                // Row p becomes ±Z_q.
                for qq in 0..n {
                    self.x[p * n + qq] = false;
                    self.z[p * n + qq] = false;
                }
                self.z[p * n + q] = true;
                self.sign[p] = value;
                MeasureResult {
                    value,
                    deterministic: false,
                }
            }
            None => {
                // Deterministic: accumulate into the scratch row 2n.
                let scratch = 2 * n;
                for qq in 0..n {
                    self.x[scratch * n + qq] = false;
                    self.z[scratch * n + qq] = false;
                }
                self.sign[scratch] = false;
                for r in 0..n {
                    if self.xr(r, q) {
                        self.rowsum(scratch, r + n);
                    }
                }
                MeasureResult {
                    value: self.sign[scratch],
                    deterministic: true,
                }
            }
        }
    }

    /// Resets qubit `q` to |0⟩.
    pub fn reset(&mut self, q: usize) {
        let m = self.measure_desired(q, false);
        if m.value {
            self.x_gate(q);
        }
    }

    /// Resets qubit `q` to |+⟩.
    pub fn reset_x(&mut self, q: usize) {
        self.reset(q);
        self.h(q);
    }

    /// Expectation structure of Z on `q`: `Some(v)` if ⟨Z⟩ = ±1 with `v` the
    /// measured bit, `None` if the outcome would be random.
    pub fn peek_z(&self, q: usize) -> Option<bool> {
        let mut probe = self.clone();
        let m = probe.measure_desired(q, false);
        m.deterministic.then_some(m.value)
    }

    /// Runs `circuit` without noise, forcing every random measurement to 0.
    ///
    /// Returns the reference measurement record used by the frame sampler.
    ///
    /// # Panics
    ///
    /// Panics if the circuit touches more qubits than this simulator holds.
    pub fn reference_sample(circuit: &Circuit) -> Vec<bool> {
        let mut sim = Self::new(circuit.num_qubits() as usize);
        let mut record = Vec::with_capacity(circuit.num_measurements());
        for op in circuit.ops() {
            sim.apply_deterministic(op, &mut record);
        }
        record
    }

    /// Runs `circuit` with noise channels sampled from `rng`.
    ///
    /// Returns the sampled measurement record. This is the slow exact path,
    /// used to cross-validate the Pauli-frame sampler.
    pub fn sample<R: Rng>(circuit: &Circuit, rng: &mut R) -> Vec<bool> {
        let mut sim = Self::new(circuit.num_qubits() as usize);
        let mut record = Vec::with_capacity(circuit.num_measurements());
        for op in circuit.ops() {
            sim.apply_sampled(op, &mut record, rng);
        }
        record
    }

    fn apply_deterministic(&mut self, op: &crate::circuit::Operation, record: &mut Vec<bool>) {
        use OpKind::*;
        match op.kind {
            XError | ZError | YError | Depolarize1 | Depolarize2 | Tick => {}
            M => {
                for &q in &op.targets {
                    record.push(self.measure_desired(q as usize, false).value);
                }
            }
            MX => {
                for &q in &op.targets {
                    self.h(q as usize);
                    record.push(self.measure_desired(q as usize, false).value);
                    self.h(q as usize);
                }
            }
            MR => {
                for &q in &op.targets {
                    let m = self.measure_desired(q as usize, false);
                    record.push(m.value);
                    if m.value {
                        self.x_gate(q as usize);
                    }
                }
            }
            _ => self.apply_unitary_or_reset(op),
        }
    }

    fn apply_sampled<R: Rng>(
        &mut self,
        op: &crate::circuit::Operation,
        record: &mut Vec<bool>,
        rng: &mut R,
    ) {
        use OpKind::*;
        match op.kind {
            Tick => {}
            XError => {
                for &q in &op.targets {
                    if rng.random::<f64>() < op.arg {
                        self.x_gate(q as usize);
                    }
                }
            }
            ZError => {
                for &q in &op.targets {
                    if rng.random::<f64>() < op.arg {
                        self.z_gate(q as usize);
                    }
                }
            }
            YError => {
                for &q in &op.targets {
                    if rng.random::<f64>() < op.arg {
                        self.y_gate(q as usize);
                    }
                }
            }
            Depolarize1 => {
                for &q in &op.targets {
                    if rng.random::<f64>() < op.arg {
                        match rng.random_range(0..3) {
                            0 => self.x_gate(q as usize),
                            1 => self.y_gate(q as usize),
                            _ => self.z_gate(q as usize),
                        }
                    }
                }
            }
            Depolarize2 => {
                for pair in op.targets.chunks_exact(2) {
                    if rng.random::<f64>() < op.arg {
                        let which = rng.random_range(1..16u32);
                        self.apply_pauli_index(pair[0] as usize, which & 3);
                        self.apply_pauli_index(pair[1] as usize, which >> 2);
                    }
                }
            }
            M => {
                for &q in &op.targets {
                    record.push(self.measure(q as usize, rng).value);
                }
            }
            MX => {
                for &q in &op.targets {
                    self.h(q as usize);
                    record.push(self.measure(q as usize, rng).value);
                    self.h(q as usize);
                }
            }
            MR => {
                for &q in &op.targets {
                    let m = self.measure(q as usize, rng);
                    record.push(m.value);
                    if m.value {
                        self.x_gate(q as usize);
                    }
                }
            }
            _ => self.apply_unitary_or_reset(op),
        }
    }

    /// Applies Pauli 0=I, 1=X, 2=Z, 3=Y (two-bit x/z encoding: bit0 = x, bit1 = z).
    fn apply_pauli_index(&mut self, q: usize, code: u32) {
        match code {
            0 => {}
            1 => self.x_gate(q),
            2 => self.z_gate(q),
            3 => self.y_gate(q),
            _ => unreachable!(),
        }
    }

    fn apply_unitary_or_reset(&mut self, op: &crate::circuit::Operation) {
        use OpKind::*;
        match op.kind {
            X => op.targets.iter().for_each(|&q| self.x_gate(q as usize)),
            Y => op.targets.iter().for_each(|&q| self.y_gate(q as usize)),
            Z => op.targets.iter().for_each(|&q| self.z_gate(q as usize)),
            H => op.targets.iter().for_each(|&q| self.h(q as usize)),
            S => op.targets.iter().for_each(|&q| self.s(q as usize)),
            SDag => op.targets.iter().for_each(|&q| self.s_dag(q as usize)),
            SqrtX => op.targets.iter().for_each(|&q| self.sqrt_x(q as usize)),
            SqrtXDag => op.targets.iter().for_each(|&q| self.sqrt_x_dag(q as usize)),
            CX => {
                for c in op.targets.chunks_exact(2) {
                    self.cx(c[0] as usize, c[1] as usize);
                }
            }
            CZ => {
                for c in op.targets.chunks_exact(2) {
                    self.cz(c[0] as usize, c[1] as usize);
                }
            }
            Swap => {
                for c in op.targets.chunks_exact(2) {
                    self.swap(c[0] as usize, c[1] as usize);
                }
            }
            R => op.targets.iter().for_each(|&q| self.reset(q as usize)),
            RX => op.targets.iter().for_each(|&q| self.reset_x(q as usize)),
            _ => unreachable!("handled by caller: {:?}", op.kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_measures_zero_deterministically() {
        let mut sim = TableauSim::new(1);
        // The desired value is only taken when the outcome is random.
        let m = sim.measure_desired(0, true);
        assert!(!m.value);
        assert!(m.deterministic);
    }

    #[test]
    fn x_flip_measures_one() {
        let mut sim = TableauSim::new(1);
        sim.x_gate(0);
        let m = sim.measure_desired(0, false);
        assert!(m.value);
        assert!(m.deterministic);
    }

    #[test]
    fn plus_state_is_random_then_collapses() {
        let mut sim = TableauSim::new(1);
        sim.h(0);
        let m1 = sim.measure_forced(0, true);
        assert!(!m1.deterministic);
        assert!(m1.value);
        let m2 = sim.measure_forced(0, true);
        assert!(m2.deterministic);
        assert!(m2.value, "state must stay collapsed");
    }

    #[test]
    fn bell_pair_correlations() {
        let mut sim = TableauSim::new(2);
        sim.h(0);
        sim.cx(0, 1);
        let a = sim.measure_forced(0, true);
        let b = sim.measure_forced(1, a.value);
        assert!(!a.deterministic);
        assert!(b.deterministic);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn forced_consistent_with_deterministic_outcome_is_accepted() {
        let mut sim = TableauSim::new(1);
        sim.x_gate(0);
        let m = sim.measure_forced(0, true);
        assert!(m.deterministic);
        assert!(m.value);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "deterministically")]
    fn forced_inconsistent_with_deterministic_outcome_panics() {
        let mut sim = TableauSim::new(1);
        sim.x_gate(0);
        // |1⟩ measures 1 deterministically; forcing 0 is a caller bug.
        let _ = sim.measure_forced(0, false);
    }

    #[test]
    fn measure_desired_never_panics_on_mismatch() {
        let mut sim = TableauSim::new(1);
        sim.x_gate(0);
        let m = sim.measure_desired(0, false);
        assert!(m.deterministic);
        assert!(m.value, "deterministic value wins over the desired one");
    }

    #[test]
    fn ghz_parity() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut sim = TableauSim::new(3);
            sim.h(0);
            sim.cx(0, 1);
            sim.cx(1, 2);
            let a = sim.measure(0, &mut rng).value;
            let b = sim.measure(1, &mut rng).value;
            let c = sim.measure(2, &mut rng).value;
            assert_eq!(a, b);
            assert_eq!(b, c);
        }
    }

    #[test]
    fn s_squared_is_z() {
        // S² |+> = Z |+> = |−>, so H S S H |0> = |1>.
        let mut sim = TableauSim::new(1);
        sim.h(0);
        sim.s(0);
        sim.s(0);
        sim.h(0);
        assert_eq!(sim.peek_z(0), Some(true));
    }

    #[test]
    fn s_dag_inverts_s() {
        let mut sim = TableauSim::new(1);
        sim.h(0);
        sim.s(0);
        sim.s_dag(0);
        sim.h(0);
        assert_eq!(sim.peek_z(0), Some(false));
    }

    #[test]
    fn sqrt_x_squares_to_x() {
        let mut sim = TableauSim::new(1);
        sim.sqrt_x(0);
        sim.sqrt_x(0);
        assert_eq!(sim.peek_z(0), Some(true));
    }

    #[test]
    fn cz_phase_kickback() {
        // CZ on |+>|1> flips the first qubit to |−>.
        let mut sim = TableauSim::new(2);
        sim.h(0);
        sim.x_gate(1);
        sim.cz(0, 1);
        sim.h(0);
        assert_eq!(sim.peek_z(0), Some(true));
    }

    #[test]
    fn swap_moves_excitation() {
        let mut sim = TableauSim::new(2);
        sim.x_gate(0);
        sim.swap(0, 1);
        assert_eq!(sim.peek_z(0), Some(false));
        assert_eq!(sim.peek_z(1), Some(true));
    }

    #[test]
    fn reset_collapses_bell_partner() {
        // Resetting half of a Bell pair measures it: the partner collapses to
        // the (forced-false) measured value in this trajectory.
        let mut sim = TableauSim::new(2);
        sim.h(0);
        sim.cx(0, 1);
        sim.reset(0);
        assert_eq!(sim.peek_z(0), Some(false));
        assert_eq!(sim.peek_z(1), Some(false));
    }

    #[test]
    fn teleportation_is_deterministic_per_branch() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            // Teleport |1> from qubit 0 to qubit 2.
            let mut sim = TableauSim::new(3);
            sim.x_gate(0);
            sim.h(1);
            sim.cx(1, 2);
            sim.cx(0, 1);
            sim.h(0);
            let m0 = sim.measure(0, &mut rng).value;
            let m1 = sim.measure(1, &mut rng).value;
            if m1 {
                sim.x_gate(2);
            }
            if m0 {
                sim.z_gate(2);
            }
            assert_eq!(sim.peek_z(2), Some(true));
        }
    }

    #[test]
    fn reference_sample_of_deterministic_circuit() {
        let mut c = Circuit::new();
        c.r(&[0, 1]);
        c.x(&[0]);
        c.cx(&[(0, 1)]);
        c.m(&[0, 1]);
        assert_eq!(TableauSim::reference_sample(&c), vec![true, true]);
    }

    #[test]
    fn reference_sample_forces_random_to_zero() {
        let mut c = Circuit::new();
        c.h(&[0]);
        c.m(&[0]);
        assert_eq!(TableauSim::reference_sample(&c), vec![false]);
    }

    #[test]
    fn mx_measures_plus_deterministically() {
        let mut c = Circuit::new();
        c.rx(&[0]);
        c.mx(&[0]);
        assert_eq!(TableauSim::reference_sample(&c), vec![false]);
        let mut c2 = Circuit::new();
        c2.rx(&[0]);
        c2.z(&[0]);
        c2.mx(&[0]);
        assert_eq!(TableauSim::reference_sample(&c2), vec![true]);
    }

    #[test]
    fn stabilizer_measurement_repeats() {
        // Measuring ZZ via an ancilla twice gives identical outcomes.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let mut sim = TableauSim::new(3);
            sim.h(0); // random-ish state
            sim.h(1);
            sim.cx(0, 1);
            let mut outcomes = Vec::new();
            for _ in 0..2 {
                sim.reset(2);
                sim.cx(0, 2);
                sim.cx(1, 2);
                outcomes.push(sim.measure(2, &mut rng).value);
            }
            assert_eq!(outcomes[0], outcomes[1]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// H is self-inverse on random product states.
        #[test]
        fn h_self_inverse(bits in proptest::collection::vec(any::<bool>(), 1..6)) {
            let n = bits.len();
            let mut sim = TableauSim::new(n);
            for (q, &b) in bits.iter().enumerate() {
                if b { sim.x_gate(q); }
                sim.h(q);
                sim.h(q);
            }
            for (q, &b) in bits.iter().enumerate() {
                prop_assert_eq!(sim.peek_z(q), Some(b));
            }
        }

        /// CX is self-inverse.
        #[test]
        fn cx_self_inverse(a in any::<bool>(), b in any::<bool>()) {
            let mut sim = TableauSim::new(2);
            if a { sim.x_gate(0); }
            if b { sim.x_gate(1); }
            sim.cx(0, 1);
            sim.cx(0, 1);
            prop_assert_eq!(sim.peek_z(0), Some(a));
            prop_assert_eq!(sim.peek_z(1), Some(b));
        }

        /// CX computes XOR onto the target.
        #[test]
        fn cx_is_xor(a in any::<bool>(), b in any::<bool>()) {
            let mut sim = TableauSim::new(2);
            if a { sim.x_gate(0); }
            if b { sim.x_gate(1); }
            sim.cx(0, 1);
            prop_assert_eq!(sim.peek_z(1), Some(a ^ b));
        }
    }
}
