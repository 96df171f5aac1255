//! Multi-patch circuit builder with automatic detector derivation.
//!
//! Builds noisy syndrome-extraction circuits for one or more surface-code
//! patches connected by transversal CNOTs. Detectors are derived by tracking
//! the *stabilizer flow*: for every plaquette we remember which earlier
//! measurements its current eigenvalue equals (as a parity), updating the
//! bookkeeping through each transversal gate (a transversal CX maps
//! `Z_target → Z_control·Z_target` and `X_control → X_control·X_target`
//! plaquette-wise). Every ancilla measurement then yields a detector against
//! its flowed reference, which is exactly the correlated-decoding structure
//! the paper relies on (§II.4).

use crate::rotated::RotatedSurfaceCode;
use raa_stabsim::Circuit;

/// Circuit-level depolarizing noise strengths (§III.4: every operation is
/// followed — or for measurements preceded — by a depolarizing channel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Two-qubit depolarizing probability after every CX.
    pub p2: f64,
    /// Single-qubit depolarizing on data qubits, once per SE round (idle).
    pub p_idle: f64,
    /// Preparation flip probability after each reset.
    pub p_prep: f64,
    /// Measurement flip probability before each readout.
    pub p_meas: f64,
}

impl NoiseModel {
    /// Uniform circuit-level noise of strength `p` (the paper's `p_phys`).
    pub fn uniform(p: f64) -> Self {
        Self {
            p2: p,
            p_idle: p,
            p_prep: p,
            p_meas: p,
        }
    }

    /// No noise at all (for determinism checks).
    pub fn noiseless() -> Self {
        Self::uniform(0.0)
    }
}

/// Measurement basis of an experiment: which logical operator is protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Prepare |0⟩, protect logical Z, detect X errors in readout.
    Z,
    /// Prepare |+⟩, protect logical X.
    X,
}

/// Stabilizer-flow entry: the set of measurement indices whose parity equals
/// the plaquette's current eigenvalue; `None` when the value is undetermined.
type Flow = Option<Vec<usize>>;

fn flow_xor(a: &Flow, b: &Flow) -> Flow {
    match (a, b) {
        (Some(x), Some(y)) => {
            let mut out = x.clone();
            for &m in y {
                if let Some(pos) = out.iter().position(|&v| v == m) {
                    out.remove(pos);
                } else {
                    out.push(m);
                }
            }
            Some(out)
        }
        _ => None,
    }
}

/// Builder for multi-patch transversal circuits on identical distance-`d`
/// patches.
///
/// # Example
///
/// ```
/// use raa_surface::builder::{Basis, NoiseModel, PatchCircuitBuilder};
///
/// // Two patches, |0⟩ init, one SE round, transversal CNOT, one more round.
/// let mut b = PatchCircuitBuilder::new(3, 2, Basis::Z, NoiseModel::uniform(1e-3));
/// b.initialize();
/// b.se_round();
/// b.transversal_cx(0, 1);
/// b.se_round();
/// let circuit = b.finish();
/// assert_eq!(circuit.num_observables(), 2);
/// assert!(circuit.num_detectors() > 0);
/// ```
#[derive(Debug)]
pub struct PatchCircuitBuilder {
    code: RotatedSurfaceCode,
    num_patches: usize,
    basis: Basis,
    noise: NoiseModel,
    circuit: Circuit,
    /// Per patch, per Z-plaquette.
    z_flow: Vec<Vec<Flow>>,
    /// Per patch, per X-plaquette.
    x_flow: Vec<Vec<Flow>>,
    /// Per patch: the logical Z operator's reference (measurement parity it
    /// currently equals), `None` when undetermined.
    logical_z: Vec<Flow>,
    /// Per patch: the logical X operator's reference.
    logical_x: Vec<Flow>,
    /// Per patch: false once consumed by a mid-circuit measurement.
    alive: Vec<bool>,
    /// Z-plaquette index → X-plaquette index under the diagonal reflection
    /// used by transversal H.
    h_map_z_to_x: Vec<usize>,
    initialized: bool,
    se_rounds_emitted: usize,
    cnots_emitted: usize,
}

impl PatchCircuitBuilder {
    /// Creates a builder for `num_patches` distance-`distance` patches.
    ///
    /// # Panics
    ///
    /// Panics if `num_patches` is zero or `distance < 2`.
    pub fn new(distance: u32, num_patches: usize, basis: Basis, noise: NoiseModel) -> Self {
        assert!(num_patches >= 1, "need at least one patch");
        let code = RotatedSurfaceCode::new(distance);
        let nz = code.z_plaquettes().len();
        let nx = code.x_plaquettes().len();
        // Transversal H maps the code to its dual, which equals the original
        // layout rotated by 90°: position (x, y) ↦ (y, 2d − x) carries every
        // Z plaquette onto an X plaquette (and the logical Z row onto the
        // logical X column).
        let two_d = 2 * distance as i32;
        let h_map_z_to_x = code
            .z_plaquettes()
            .iter()
            .map(|zp| {
                let want = (zp.position.1, two_d - zp.position.0);
                code.x_plaquettes()
                    .iter()
                    .position(|xp| xp.position == want)
                    .expect("rotated layout is self-dual under 90-degree rotation")
            })
            .collect();
        Self {
            code,
            num_patches,
            basis,
            noise,
            circuit: Circuit::new(),
            z_flow: vec![vec![None; nz]; num_patches],
            x_flow: vec![vec![None; nx]; num_patches],
            logical_z: vec![None; num_patches],
            logical_x: vec![None; num_patches],
            alive: vec![true; num_patches],
            h_map_z_to_x,
            initialized: false,
            se_rounds_emitted: 0,
            cnots_emitted: 0,
        }
    }

    /// The underlying code layout.
    pub fn code(&self) -> &RotatedSurfaceCode {
        &self.code
    }

    /// Number of SE rounds emitted so far.
    pub fn se_rounds_emitted(&self) -> usize {
        self.se_rounds_emitted
    }

    /// Number of transversal CX layers emitted so far.
    pub fn cnots_emitted(&self) -> usize {
        self.cnots_emitted
    }

    /// Global circuit-qubit index of data qubit `i` of patch `p`.
    pub fn data_qubit(&self, patch: usize, i: usize) -> u32 {
        (patch * self.code.num_qubits() + i) as u32
    }

    fn x_anc(&self, patch: usize, i: usize) -> u32 {
        (patch * self.code.num_qubits() + self.code.x_ancilla(i)) as u32
    }

    fn z_anc(&self, patch: usize, i: usize) -> u32 {
        (patch * self.code.num_qubits() + self.code.z_ancilla(i)) as u32
    }

    /// Prepares every patch in the builder's basis and seeds stabilizer flows:
    /// the basis-aligned plaquettes start with a known (+1) eigenvalue.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn initialize(&mut self) {
        assert!(!self.initialized, "initialize() may only be called once");
        self.initialized = true;
        let all_data: Vec<u32> = (0..self.num_patches)
            .flat_map(|p| (0..self.code.num_data()).map(move |i| (p, i)))
            .map(|(p, i)| self.data_qubit(p, i))
            .collect();
        match self.basis {
            Basis::Z => {
                self.circuit.r(&all_data);
                self.circuit.x_error(&all_data, self.noise.p_prep);
                for p in 0..self.num_patches {
                    for s in 0..self.code.z_plaquettes().len() {
                        self.z_flow[p][s] = Some(Vec::new());
                    }
                    self.logical_z[p] = Some(Vec::new());
                }
            }
            Basis::X => {
                self.circuit.rx(&all_data);
                self.circuit.z_error(&all_data, self.noise.p_prep);
                for p in 0..self.num_patches {
                    for s in 0..self.code.x_plaquettes().len() {
                        self.x_flow[p][s] = Some(Vec::new());
                    }
                    self.logical_x[p] = Some(Vec::new());
                }
            }
        }
    }

    /// Prepares a *specific* patch in the given basis (overriding the
    /// builder-wide default), before the first SE round touches it. Useful
    /// for mixed-basis experiments like measurement-based GHZ preparation.
    ///
    /// # Panics
    ///
    /// Panics if called before [`PatchCircuitBuilder::initialize`].
    pub fn reprepare_patch(&mut self, patch: usize, basis: Basis) {
        assert!(self.initialized, "call initialize() first");
        assert!(patch < self.num_patches, "patch index out of range");
        let data: Vec<u32> = (0..self.code.num_data())
            .map(|i| self.data_qubit(patch, i))
            .collect();
        let nz = self.code.z_plaquettes().len();
        let nx = self.code.x_plaquettes().len();
        self.z_flow[patch] = vec![None; nz];
        self.x_flow[patch] = vec![None; nx];
        self.logical_z[patch] = None;
        self.logical_x[patch] = None;
        self.alive[patch] = true;
        match basis {
            Basis::Z => {
                self.circuit.r(&data);
                self.circuit.x_error(&data, self.noise.p_prep);
                for s in 0..nz {
                    self.z_flow[patch][s] = Some(Vec::new());
                }
                self.logical_z[patch] = Some(Vec::new());
            }
            Basis::X => {
                self.circuit.rx(&data);
                self.circuit.z_error(&data, self.noise.p_prep);
                for s in 0..nx {
                    self.x_flow[patch][s] = Some(Vec::new());
                }
                self.logical_x[patch] = Some(Vec::new());
            }
        }
    }

    /// Emits one noisy syndrome-extraction round on every patch, with
    /// detectors comparing each outcome to its flowed reference.
    pub fn se_round(&mut self) {
        assert!(self.initialized, "call initialize() first");
        self.se_rounds_emitted += 1;
        let nm = self.noise;
        // Reset ancillas.
        let z_ancs: Vec<u32> = (0..self.num_patches)
            .flat_map(|p| (0..self.code.z_plaquettes().len()).map(move |i| (p, i)))
            .map(|(p, i)| self.z_anc(p, i))
            .collect();
        let x_ancs: Vec<u32> = (0..self.num_patches)
            .flat_map(|p| (0..self.code.x_plaquettes().len()).map(move |i| (p, i)))
            .map(|(p, i)| self.x_anc(p, i))
            .collect();
        self.circuit.r(&z_ancs);
        self.circuit.x_error(&z_ancs, nm.p_prep);
        self.circuit.rx(&x_ancs);
        self.circuit.z_error(&x_ancs, nm.p_prep);

        // Four interleaved CX layers.
        for layer in 0..4 {
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for p in 0..self.num_patches {
                for (i, plaq) in self.code.x_plaquettes().iter().enumerate() {
                    if let Some(dq) = plaq.data[layer] {
                        pairs.push((self.x_anc(p, i), self.data_qubit(p, dq)));
                    }
                }
                for (i, plaq) in self.code.z_plaquettes().iter().enumerate() {
                    if let Some(dq) = plaq.data[layer] {
                        pairs.push((self.data_qubit(p, dq), self.z_anc(p, i)));
                    }
                }
            }
            self.circuit.cx(&pairs);
            self.circuit.depolarize2(&pairs, nm.p2);
        }

        // Data idle noise once per round.
        let all_data: Vec<u32> = (0..self.num_patches)
            .flat_map(|p| (0..self.code.num_data()).map(move |i| (p, i)))
            .map(|(p, i)| self.data_qubit(p, i))
            .collect();
        self.circuit.depolarize1(&all_data, nm.p_idle);

        // Measure ancillas; emit detectors against the flow.
        self.circuit.x_error(&z_ancs, nm.p_meas);
        let z_base = self.circuit.num_measurements();
        self.circuit.m(&z_ancs);
        self.circuit.z_error(&x_ancs, nm.p_meas);
        let x_base = self.circuit.num_measurements();
        self.circuit.mx(&x_ancs);

        let nz = self.code.z_plaquettes().len();
        let nx = self.code.x_plaquettes().len();
        for p in 0..self.num_patches {
            if !self.alive[p] {
                continue;
            }
            for s in 0..nz {
                let m = z_base + p * nz + s;
                if let Some(prev) = &self.z_flow[p][s] {
                    let mut dets = prev.clone();
                    dets.push(m);
                    self.circuit.detector_at(&dets);
                }
                self.z_flow[p][s] = Some(vec![m]);
            }
            for s in 0..nx {
                let m = x_base + p * nx + s;
                if let Some(prev) = &self.x_flow[p][s] {
                    let mut dets = prev.clone();
                    dets.push(m);
                    self.circuit.detector_at(&dets);
                }
                self.x_flow[p][s] = Some(vec![m]);
            }
        }
    }

    /// Emits a transversal logical CX from patch `control` to patch `target`:
    /// physical CXs between matching data qubits plus the flow update
    /// `Z_t ← Z_c·Z_t`, `X_c ← X_c·X_t` (plaquette-wise and logical).
    ///
    /// # Panics
    ///
    /// Panics if the patch indices coincide or are out of range.
    pub fn transversal_cx(&mut self, control: usize, target: usize) {
        assert!(self.initialized, "call initialize() first");
        assert!(control != target, "control and target patch must differ");
        assert!(
            control < self.num_patches && target < self.num_patches,
            "patch index out of range"
        );
        self.cnots_emitted += 1;
        let pairs: Vec<(u32, u32)> = (0..self.code.num_data())
            .map(|i| (self.data_qubit(control, i), self.data_qubit(target, i)))
            .collect();
        self.circuit.cx(&pairs);
        self.circuit.depolarize2(&pairs, self.noise.p2);
        // Flow update (plaquettes and logical operators alike).
        for s in 0..self.code.z_plaquettes().len() {
            self.z_flow[target][s] = flow_xor(&self.z_flow[target][s], &self.z_flow[control][s]);
        }
        for s in 0..self.code.x_plaquettes().len() {
            self.x_flow[control][s] = flow_xor(&self.x_flow[control][s], &self.x_flow[target][s]);
        }
        self.logical_z[target] = flow_xor(&self.logical_z[target], &self.logical_z[control]);
        self.logical_x[control] = flow_xor(&self.logical_x[control], &self.logical_x[target]);
    }

    /// Emits a transversal logical Hadamard on `patch`: physical H on every
    /// data qubit followed by the diagonal reflection of the patch (a block
    /// move, §II.4 — the paper assumes it costs the same as an entangling
    /// layer). Plaquette flows exchange between the X and Z sectors through
    /// the reflection map, and the logical operators swap roles.
    ///
    /// # Panics
    ///
    /// Panics if the builder is uninitialized or `patch` is out of range.
    pub fn transversal_h(&mut self, patch: usize) {
        assert!(self.initialized, "call initialize() first");
        assert!(patch < self.num_patches, "patch index out of range");
        let d = self.code.distance() as usize;
        let data: Vec<u32> = (0..self.code.num_data())
            .map(|i| self.data_qubit(patch, i))
            .collect();
        self.circuit.h(&data);
        self.circuit.depolarize1(&data, self.noise.p_idle);
        // Rotate the patch by 90°: data (r, c) moves to (d−1−c, r). Emit the
        // permutation as swaps along its cycles (physically one AOD block
        // rotation; the paper charges it like an entangling layer).
        let perm = |i: usize| {
            let (r, c) = (i / d, i % d);
            (d - 1 - c) * d + r
        };
        let mut visited = vec![false; d * d];
        let mut swaps = Vec::new();
        for start in 0..d * d {
            if visited[start] {
                continue;
            }
            let mut cycle = vec![start];
            visited[start] = true;
            let mut next = perm(start);
            while next != start {
                visited[next] = true;
                cycle.push(next);
                next = perm(next);
            }
            // Realize the cycle (a b c ...) as swaps (a b)(a c)...
            for &other in cycle.iter().skip(1) {
                swaps.push((
                    self.data_qubit(patch, cycle[0]),
                    self.data_qubit(patch, other),
                ));
            }
        }
        self.circuit.swap(&swaps);
        // Flow exchange through the reflection map.
        let nz = self.code.z_plaquettes().len();
        let mut new_x = vec![None; self.code.x_plaquettes().len()];
        let mut new_z = vec![None; nz];
        for (zi, nz_slot) in new_z.iter_mut().enumerate() {
            let xi = self.h_map_z_to_x[zi];
            new_x[xi] = self.z_flow[patch][zi].take();
            *nz_slot = self.x_flow[patch][xi].take();
        }
        self.x_flow[patch] = new_x;
        self.z_flow[patch] = new_z;
        std::mem::swap(&mut self.logical_z[patch], &mut self.logical_x[patch]);
    }

    /// Measures every data qubit of `patch` transversally in `basis`,
    /// consuming the patch: emits the final plaquette detectors of that
    /// basis and returns the measurement indices of the patch's logical
    /// operator support (for custom detectors/observables).
    ///
    /// # Panics
    ///
    /// Panics if the patch was already consumed.
    pub fn measure_patch(&mut self, patch: usize, basis: Basis) -> Vec<usize> {
        assert!(self.initialized, "call initialize() first");
        assert!(self.alive[patch], "patch {patch} was already measured");
        self.alive[patch] = false;
        let nd = self.code.num_data();
        let data: Vec<u32> = (0..nd).map(|i| self.data_qubit(patch, i)).collect();
        let base = match basis {
            Basis::Z => {
                self.circuit.x_error(&data, self.noise.p_meas);
                let base = self.circuit.num_measurements();
                self.circuit.m(&data);
                base
            }
            Basis::X => {
                self.circuit.z_error(&data, self.noise.p_meas);
                let base = self.circuit.num_measurements();
                self.circuit.mx(&data);
                base
            }
        };
        match basis {
            Basis::Z => {
                for (s, plaq) in self.code.z_plaquettes().iter().enumerate() {
                    if let Some(prev) = self.z_flow[patch][s].take() {
                        let mut dets = prev;
                        dets.extend(plaq.support().map(|dq| base + dq));
                        self.circuit.detector_at(&dets);
                    }
                }
            }
            Basis::X => {
                for (s, plaq) in self.code.x_plaquettes().iter().enumerate() {
                    if let Some(prev) = self.x_flow[patch][s].take() {
                        let mut dets = prev;
                        dets.extend(plaq.support().map(|dq| base + dq));
                        self.circuit.detector_at(&dets);
                    }
                }
            }
        }
        self.z_flow[patch].fill(None);
        self.x_flow[patch].fill(None);
        let support = match basis {
            Basis::Z => self.code.logical_z_support(),
            Basis::X => self.code.logical_x_support(),
        };
        support.into_iter().map(|dq| base + dq).collect()
    }

    /// Injects an X-error channel of probability `p` on data qubit `i` of
    /// `patch`, at the current point of the circuit. Probability-1
    /// injections are deterministic Pauli faults — the differential
    /// tableau-vs-frame conformance tests use them to compare engines
    /// bit-for-bit on scenario circuits; error channels never perturb the
    /// stabilizer-flow bookkeeping.
    pub fn inject_x_error(&mut self, patch: usize, i: usize, p: f64) {
        assert!(self.initialized, "call initialize() first");
        let q = self.data_qubit(patch, i);
        self.circuit.x_error(&[q], p);
    }

    /// Z-basis twin of [`PatchCircuitBuilder::inject_x_error`].
    pub fn inject_z_error(&mut self, patch: usize, i: usize, p: f64) {
        assert!(self.initialized, "call initialize() first");
        let q = self.data_qubit(patch, i);
        self.circuit.z_error(&[q], p);
    }

    /// Adds absolute measurement indices to observable `id`.
    pub fn custom_observable(&mut self, id: usize, meas: &[usize]) {
        self.circuit.observable_include_at(id, meas);
    }

    /// Measures every data qubit in the builder's basis, emits the final
    /// plaquette detectors and defines one logical observable per patch
    /// (observable `p` for patch `p`).
    ///
    /// Consumes the builder and returns the finished circuit.
    pub fn finish(mut self) -> Circuit {
        assert!(self.initialized, "call initialize() first");
        let nm = self.noise;
        let nd = self.code.num_data();
        // Reserve one observable slot per patch, so skipped observables read
        // back as empty rather than out of range.
        self.circuit
            .observable_include_at(self.num_patches - 1, &[]);
        // Only patches still alive are measured; consumed patches already
        // emitted their detectors in measure_patch().
        let live: Vec<usize> = (0..self.num_patches).filter(|&p| self.alive[p]).collect();
        if live.is_empty() {
            return self.circuit;
        }
        let all_data: Vec<u32> = live
            .iter()
            .flat_map(|&p| (0..nd).map(move |i| (p, i)))
            .map(|(p, i)| self.data_qubit(p, i))
            .collect();
        let base = match self.basis {
            Basis::Z => {
                self.circuit.x_error(&all_data, nm.p_meas);
                let base = self.circuit.num_measurements();
                self.circuit.m(&all_data);
                base
            }
            Basis::X => {
                self.circuit.z_error(&all_data, nm.p_meas);
                let base = self.circuit.num_measurements();
                self.circuit.mx(&all_data);
                base
            }
        };
        // Final plaquette checks in the measured basis.
        for (slot, &p) in live.iter().enumerate() {
            match self.basis {
                Basis::Z => {
                    for (s, plaq) in self.code.z_plaquettes().iter().enumerate() {
                        if let Some(prev) = &self.z_flow[p][s] {
                            let mut dets = prev.clone();
                            dets.extend(plaq.support().map(|dq| base + slot * nd + dq));
                            self.circuit.detector_at(&dets);
                        }
                    }
                }
                Basis::X => {
                    for (s, plaq) in self.code.x_plaquettes().iter().enumerate() {
                        if let Some(prev) = &self.x_flow[p][s] {
                            let mut dets = prev.clone();
                            dets.extend(plaq.support().map(|dq| base + slot * nd + dq));
                            self.circuit.detector_at(&dets);
                        }
                    }
                }
            }
            // Logical observable, only when its reference is determined
            // (e.g. skipped for a basis-Z readout after an odd number of
            // transversal Hadamards).
            let logical = match self.basis {
                Basis::Z => &self.logical_z[p],
                Basis::X => &self.logical_x[p],
            };
            if let Some(reference) = logical {
                let support = match self.basis {
                    Basis::Z => self.code.logical_z_support(),
                    Basis::X => self.code.logical_x_support(),
                };
                let mut meas: Vec<usize> =
                    support.iter().map(|&dq| base + slot * nd + dq).collect();
                meas.extend_from_slice(reference);
                self.circuit.observable_include_at(p, &meas);
            }
        }
        self.circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_stabsim::{FrameSim, TableauSim};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_memory_has_silent_detectors() {
        for basis in [Basis::Z, Basis::X] {
            let mut b = PatchCircuitBuilder::new(3, 1, basis, NoiseModel::noiseless());
            b.initialize();
            for _ in 0..3 {
                b.se_round();
            }
            let c = b.finish();
            // All detectors must be deterministic: the reference sample is
            // all-zero detectors by construction; sampling without noise
            // must produce no flips.
            let s = FrameSim::sample(&c, 64, &mut StdRng::seed_from_u64(0));
            for shot in 0..64 {
                assert!(s.fired_detectors(shot).is_empty(), "basis {basis:?}");
                assert_eq!(s.observable_mask(shot), 0);
            }
        }
    }

    /// The reference sample itself must make every detector even: detectors
    /// are valid parity checks of the noiseless circuit.
    #[test]
    fn detectors_are_deterministic_parity_checks() {
        let mut b = PatchCircuitBuilder::new(3, 2, Basis::Z, NoiseModel::noiseless());
        b.initialize();
        b.se_round();
        b.transversal_cx(0, 1);
        b.se_round();
        b.transversal_cx(1, 0);
        b.se_round();
        let c = b.finish();
        let reference = TableauSim::reference_sample(&c);
        for d in 0..c.num_detectors() {
            let parity = c
                .detector_measurements(d)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "detector {d} is not deterministic");
        }
        for o in 0..c.num_observables() {
            let parity = c
                .observable(o)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "observable {o} is not deterministic");
        }
    }

    #[test]
    fn noiseless_transversal_circuit_is_silent_under_sampling() {
        let mut b = PatchCircuitBuilder::new(3, 2, Basis::X, NoiseModel::noiseless());
        b.initialize();
        b.se_round();
        for step in 0..4 {
            if step % 2 == 0 {
                b.transversal_cx(0, 1);
            } else {
                b.transversal_cx(1, 0);
            }
            b.se_round();
        }
        let c = b.finish();
        let s = FrameSim::sample(&c, 32, &mut StdRng::seed_from_u64(1));
        for shot in 0..32 {
            assert!(s.fired_detectors(shot).is_empty());
            assert_eq!(s.observable_mask(shot), 0);
        }
    }

    #[test]
    fn detector_count_accounting() {
        let d = 3u32;
        let mut b = PatchCircuitBuilder::new(d, 1, Basis::Z, NoiseModel::uniform(1e-3));
        b.initialize();
        b.se_round(); // 4 Z detectors (first round), X silent
        b.se_round(); // 4 Z + 4 X
        let c = b.finish(); // + 4 final Z
        let half = ((d * d - 1) / 2) as usize;
        assert_eq!(c.num_detectors(), half * 4);
        assert_eq!(c.num_observables(), 1);
    }

    #[test]
    #[should_panic(expected = "initialize")]
    fn se_round_requires_initialize() {
        let mut b = PatchCircuitBuilder::new(3, 1, Basis::Z, NoiseModel::noiseless());
        b.se_round();
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn transversal_cx_rejects_same_patch() {
        let mut b = PatchCircuitBuilder::new(3, 2, Basis::Z, NoiseModel::noiseless());
        b.initialize();
        b.transversal_cx(1, 1);
    }

    #[test]
    fn double_hadamard_preserves_determinism() {
        // H twice returns the patch to the Z sector: all detectors and the
        // observable must stay deterministic.
        let mut b = PatchCircuitBuilder::new(3, 1, Basis::Z, NoiseModel::noiseless());
        b.initialize();
        b.se_round();
        b.transversal_h(0);
        b.se_round();
        b.transversal_h(0);
        b.se_round();
        let c = b.finish();
        assert_eq!(c.num_observables(), 1);
        assert!(!c.observable(0).is_empty());
        let reference = TableauSim::reference_sample(&c);
        for d in 0..c.num_detectors() {
            let parity = c
                .detector_measurements(d)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "detector {d} not deterministic after H·H");
        }
        let s = FrameSim::sample(&c, 64, &mut StdRng::seed_from_u64(7));
        for shot in 0..64 {
            assert!(s.fired_detectors(shot).is_empty());
            assert_eq!(s.observable_mask(shot), 0);
        }
    }

    #[test]
    fn single_hadamard_switches_sector() {
        // After one H, the Z-basis observable is undetermined and skipped,
        // but every emitted detector is still deterministic.
        let mut b = PatchCircuitBuilder::new(3, 1, Basis::Z, NoiseModel::noiseless());
        b.initialize();
        b.se_round();
        b.transversal_h(0);
        b.se_round();
        let c = b.finish();
        assert!(c.observable(0).is_empty(), "observable must be skipped");
        let reference = TableauSim::reference_sample(&c);
        for d in 0..c.num_detectors() {
            let parity = c
                .detector_measurements(d)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "detector {d} not deterministic after H");
        }
    }

    #[test]
    fn mid_circuit_patch_measurement_is_deterministic() {
        // Measure one of two patches mid-circuit; the other carries on.
        let mut b = PatchCircuitBuilder::new(3, 2, Basis::Z, NoiseModel::noiseless());
        b.initialize();
        b.se_round();
        b.transversal_cx(0, 1);
        b.se_round();
        let rows = b.measure_patch(1, Basis::Z);
        assert_eq!(rows.len(), 3);
        b.se_round();
        let c = b.finish();
        let reference = TableauSim::reference_sample(&c);
        for d in 0..c.num_detectors() {
            let parity = c
                .detector_measurements(d)
                .iter()
                .fold(false, |acc, &m| acc ^ reference[m]);
            assert!(!parity, "detector {d} not deterministic");
        }
        // Patch 0 still gets its observable; patch 1 does not (consumed).
        assert!(!c.observable(0).is_empty());
        assert!(c.observable(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "already measured")]
    fn double_measurement_rejected() {
        let mut b = PatchCircuitBuilder::new(3, 1, Basis::Z, NoiseModel::noiseless());
        b.initialize();
        b.se_round();
        b.measure_patch(0, Basis::Z);
        b.measure_patch(0, Basis::Z);
    }

    #[test]
    fn reprepare_patch_in_other_basis() {
        let mut b = PatchCircuitBuilder::new(3, 2, Basis::Z, NoiseModel::noiseless());
        b.initialize();
        b.reprepare_patch(0, Basis::X);
        b.se_round();
        let c = b.finish();
        // Patch 0's Z observable is undetermined (|+> init): skipped.
        assert!(c.observable(0).is_empty());
        assert!(!c.observable(1).is_empty());
        let s = FrameSim::sample(&c, 32, &mut StdRng::seed_from_u64(3));
        for shot in 0..32 {
            assert!(s.fired_detectors(shot).is_empty());
        }
    }
}
