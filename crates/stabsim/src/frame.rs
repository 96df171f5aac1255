//! Bit-packed Pauli-frame Monte-Carlo sampler.
//!
//! Simulates many shots of a noisy stabilizer circuit at once by tracking,
//! per shot, only the Pauli *difference* (the frame) between the noisy run
//! and a noiseless reference run. Frames propagate through Clifford gates by
//! conjugation, noise channels XOR random Paulis into the frame, and a
//! measurement records a flip when the frame anticommutes with the measured
//! observable. Detector and observable values are then parities of flips,
//! exactly as in Stim's frame simulator.
//!
//! Shots are packed 64 per machine word, so one gate application costs a few
//! bitwise operations per 64 shots. Noise uses geometric skip sampling so the
//! cost scales with the number of *hits*, not the number of targets × shots.

use crate::circuit::{Circuit, OpKind};
use rand::{Rng, RngExt};

/// Samples of detector and observable flip bits for a batch of shots.
#[derive(Debug, Clone, Default)]
pub struct DetectorSamples {
    num_shots: usize,
    num_detectors: usize,
    num_observables: usize,
    words_per_row: usize,
    /// Detector-major bit matrix: row `d`, word `w` at `d * words_per_row + w`.
    detectors: Vec<u64>,
    /// Observable-major bit matrix.
    observables: Vec<u64>,
}

impl DetectorSamples {
    /// Clears and resizes the buffers for a batch of `num_shots` shots with
    /// the given detector/observable counts, reusing allocations. All bits
    /// are zero afterwards; samplers XOR flips in on top.
    ///
    /// # Panics
    ///
    /// Panics if `num_shots` is zero or `num_observables` exceeds 64 (the
    /// [`DetectorSamples::observable_mask`] packing limit).
    // raa-audit: allow(orphan-pub): sampler_validation.rs prepares injection targets with it.
    pub fn reset(&mut self, num_shots: usize, num_detectors: usize, num_observables: usize) {
        assert!(num_shots > 0, "need at least one shot");
        assert!(
            num_observables <= 64,
            "DetectorSamples supports at most 64 observables, got {num_observables}"
        );
        let words = num_shots.div_ceil(64);
        self.num_shots = num_shots;
        self.num_detectors = num_detectors;
        self.num_observables = num_observables;
        self.words_per_row = words;
        self.detectors.clear();
        self.detectors.resize(num_detectors * words, 0);
        self.observables.clear();
        self.observables.resize(num_observables * words, 0);
    }

    /// Mutable access to the detector/observable planes plus the row stride,
    /// for in-crate samplers that XOR flips directly into the bit matrices.
    pub(crate) fn planes_mut(&mut self) -> (&mut [u64], &mut [u64], usize) {
        (
            &mut self.detectors,
            &mut self.observables,
            self.words_per_row,
        )
    }
    /// Number of shots.
    pub(crate) fn num_shots(&self) -> usize {
        self.num_shots
    }

    /// Number of detectors per shot.
    pub(crate) fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of observables per shot.
    pub(crate) fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// The value of detector `d` in shot `s`.
    // raa-audit: allow(orphan-pub): the frame-sampler reference tests (sampler_validation.rs, scenario_conformance.rs and other crates' unit tests) read sampled shots through it.
    pub fn detector(&self, s: usize, d: usize) -> bool {
        assert!(s < self.num_shots && d < self.num_detectors);
        (self.detectors[d * self.words_per_row + s / 64] >> (s % 64)) & 1 == 1
    }

    /// The value of observable `o` in shot `s`.
    // raa-audit: allow(orphan-pub): the frame-sampler reference tests (sampler_validation.rs, scenario_conformance.rs and other crates' unit tests) read sampled shots through it.
    pub fn observable(&self, s: usize, o: usize) -> bool {
        assert!(s < self.num_shots && o < self.num_observables);
        (self.observables[o * self.words_per_row + s / 64] >> (s % 64)) & 1 == 1
    }

    /// The indices of detectors that fired in shot `s` (the syndrome).
    ///
    /// Allocates per call; hot loops should transpose once with
    /// [`DetectorSamples::transpose_detectors_into`] and extract syndromes
    /// with [`SyndromeBatch::fired_into`].
    // raa-audit: allow(orphan-pub): the frame-sampler reference tests (sampler_validation.rs, scenario_conformance.rs and other crates' unit tests) read sampled shots through it.
    pub fn fired_detectors(&self, s: usize) -> Vec<u32> {
        let mut out = Vec::new();
        self.fired_detectors_into(s, &mut out);
        out
    }

    /// Writes the indices of detectors that fired in shot `s` into `out`
    /// (cleared first), reading the detector-major matrix directly.
    pub(crate) fn fired_detectors_into(&self, s: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            (0..self.num_detectors)
                .filter(|&d| self.detector(s, d))
                .map(|d| d as u32),
        );
    }

    /// Transposes the detector-major bit matrix into `out`'s shot-major
    /// layout (64×64 bit-block transpose), so each shot's syndrome occupies
    /// contiguous words. Reuses `out`'s allocation; steady state performs no
    /// heap allocation.
    pub fn transpose_detectors_into(&self, out: &mut SyndromeBatch) {
        out.num_shots = self.num_shots;
        out.num_detectors = self.num_detectors;
        let wps = self.num_detectors.div_ceil(64);
        out.words_per_shot = wps;
        out.bits.clear();
        out.bits.resize(self.num_shots * wps, 0);
        let mut block = [0u64; 64];
        // Walk 64-detector × 64-shot tiles of the source matrix.
        for dw in 0..wps {
            let d0 = dw * 64;
            for sw in 0..self.words_per_row {
                let s0 = sw * 64;
                for (i, b) in block.iter_mut().enumerate() {
                    let d = d0 + i;
                    *b = if d < self.num_detectors {
                        self.detectors[d * self.words_per_row + sw]
                    } else {
                        0
                    };
                }
                transpose64(&mut block);
                for (j, &b) in block.iter().enumerate() {
                    let s = s0 + j;
                    if s < self.num_shots {
                        out.bits[s * wps + dw] = b;
                    }
                }
            }
        }
    }

    /// Observable bits of shot `s` packed into a u64 mask.
    // raa-audit: allow(orphan-pub): the frame-sampler reference tests (sampler_validation.rs, scenario_conformance.rs and other crates' unit tests) read sampled shots through it.
    pub fn observable_mask(&self, s: usize) -> u64 {
        let mut mask = 0u64;
        for o in 0..self.num_observables {
            if self.observable(s, o) {
                mask |= 1 << o;
            }
        }
        mask
    }

    /// Packs every shot's observable mask into `out` (cleared and resized
    /// to `num_shots`), skipping all-zero words — observable flips are
    /// rare below threshold, so this is nearly free. Reuses `out`'s
    /// allocation.
    pub fn observable_masks_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.num_shots, 0);
        for o in 0..self.num_observables {
            for w in 0..self.words_per_row {
                let mut word = self.observables[o * self.words_per_row + w];
                while word != 0 {
                    let s = w * 64 + word.trailing_zeros() as usize;
                    if s < self.num_shots {
                        out[s] |= 1 << o;
                    }
                    word &= word - 1;
                }
            }
        }
    }
}

/// Shot-major detector bits: shot `s`'s syndrome is the contiguous words
/// `bits[s * words_per_shot ..][..words_per_shot]`, bit `d % 64` of word
/// `d / 64` holding detector `d`.
///
/// Produced by [`DetectorSamples::transpose_detectors_into`]; the layout
/// makes per-shot syndrome extraction a linear scan that skips empty words,
/// so sparse syndromes (the common case below threshold) cost almost
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct SyndromeBatch {
    num_shots: usize,
    num_detectors: usize,
    words_per_shot: usize,
    bits: Vec<u64>,
}

impl SyndromeBatch {
    /// Clears and resizes the batch for `num_shots` shots of
    /// `num_detectors` detectors, reusing the allocation; all bits are
    /// zero afterwards. Samplers that produce shot-major bits natively
    /// (the compiled DEM sampler) write in on top.
    // raa-audit: allow(orphan-pub): decode's batch_proptest.rs and union-find unit tests build syndrome batches bit by bit with it.
    pub fn reset(&mut self, num_shots: usize, num_detectors: usize) {
        self.num_shots = num_shots;
        self.num_detectors = num_detectors;
        self.words_per_shot = num_detectors.div_ceil(64);
        self.bits.clear();
        self.bits.resize(num_shots * self.words_per_shot, 0);
    }

    /// Mutable access to the raw shot-major words plus the per-shot
    /// stride, for in-crate samplers.
    pub(crate) fn rows_mut(&mut self) -> (&mut [u64], usize) {
        (&mut self.bits, self.words_per_shot)
    }

    /// Read access to the raw shot-major words plus the per-shot stride,
    /// for in-crate samplers.
    pub(crate) fn rows(&self) -> (&[u64], usize) {
        (&self.bits, self.words_per_shot)
    }

    /// Sets detector `d` of shot `s`. Mostly useful for building reference
    /// batches by hand (tests, batch-vs-per-shot equivalence checks);
    /// samplers write whole shot-major words instead.
    // raa-audit: allow(orphan-pub): decode's batch_proptest.rs and union-find unit tests build syndrome batches bit by bit with it.
    pub fn set_detector(&mut self, s: usize, d: usize) {
        assert!(s < self.num_shots && d < self.num_detectors);
        self.bits[s * self.words_per_shot + d / 64] |= 1u64 << (d % 64);
    }

    /// Shifts every shot row right by `bits` bit positions (detector `d`
    /// moves to `d - bits`; the lowest `bits` detectors fall off, the top
    /// fills with zeros). This is the roll of the streaming sampler's
    /// resident window when a time layer is finalized.
    pub(crate) fn shift_rows_down(&mut self, bits: usize) {
        let w = self.words_per_shot;
        if w == 0 || bits == 0 {
            return;
        }
        let (skip, rot) = (bits / 64, bits % 64);
        for row in self.bits.chunks_exact_mut(w) {
            for i in 0..w {
                let lo = if i + skip < w { row[i + skip] } else { 0 };
                row[i] = if rot == 0 {
                    lo
                } else {
                    let hi = if i + skip + 1 < w {
                        row[i + skip + 1]
                    } else {
                        0
                    };
                    (lo >> rot) | (hi << (64 - rot))
                };
            }
        }
    }

    /// Number of shots.
    pub fn num_shots(&self) -> usize {
        self.num_shots
    }

    /// Number of detectors per shot.
    pub(crate) fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// The value of detector `d` in shot `s`: the dense reference the
    /// sparse-extraction tests compare [`SyndromeBatch::fired_into`] to.
    #[cfg(test)]
    pub(crate) fn detector(&self, s: usize, d: usize) -> bool {
        assert!(s < self.num_shots && d < self.num_detectors);
        (self.bits[s * self.words_per_shot + d / 64] >> (d % 64)) & 1 == 1
    }

    /// Writes the indices of detectors that fired in shot `s` into `out`
    /// (cleared first), skipping empty words via `u64::trailing_zeros`.
    /// Performs no heap allocation once `out` has grown to the largest
    /// syndrome seen.
    pub fn fired_into(&self, s: usize, out: &mut Vec<u32>) {
        assert!(s < self.num_shots);
        out.clear();
        let row = &self.bits[s * self.words_per_shot..(s + 1) * self.words_per_shot];
        for (w, &word) in row.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let d = (w * 64) as u32 + word.trailing_zeros();
                out.push(d);
                word &= word - 1;
            }
        }
    }
}

/// In-place transpose of a 64×64 bit matrix (`a[i]` bit `j` ↔ `a[j]` bit
/// `i`), by recursive block swaps.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            if k & j == 0 {
                let t = ((a[k] >> j) ^ a[k + j]) & m;
                a[k] ^= t << j;
                a[k + j] ^= t;
            }
            k += 1;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// The batched Pauli-frame simulator.
///
/// # Example
///
/// ```
/// use raa_stabsim::circuit::{Circuit, MeasRecord};
/// use raa_stabsim::frame::FrameSim;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new();
/// c.r(&[0]);
/// c.x_error(&[0], 0.25);
/// c.m(&[0]);
/// c.detector(&[MeasRecord::back(1)]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let samples = FrameSim::sample(&c, 10_000, &mut rng);
/// let fired: usize = (0..10_000).filter(|&s| samples.detector(s, 0)).count();
/// assert!((fired as f64 / 10_000.0 - 0.25).abs() < 0.02);
/// ```
#[derive(Debug, Default)]
pub struct FrameSim {
    num_qubits: usize,
    num_shots: usize,
    words: usize,
    /// X frame bits, qubit-major: `x[q * words + w]`.
    x: Vec<u64>,
    /// Z frame bits.
    z: Vec<u64>,
    /// Measurement flip bits, measurement-major.
    meas: Vec<u64>,
    tail_mask: u64,
}

impl FrameSim {
    fn reset(&mut self, num_qubits: usize, num_shots: usize) {
        assert!(num_shots > 0, "need at least one shot");
        let words = num_shots.div_ceil(64);
        let rem = num_shots % 64;
        self.num_qubits = num_qubits;
        self.num_shots = num_shots;
        self.words = words;
        self.x.clear();
        self.x.resize(num_qubits * words, 0);
        self.z.clear();
        self.z.resize(num_qubits * words, 0);
        self.meas.clear();
        self.tail_mask = if rem == 0 { !0 } else { (1u64 << rem) - 1 };
    }

    fn run<R: Rng>(&mut self, circuit: &Circuit, num_shots: usize, rng: &mut R) {
        self.reset(circuit.num_qubits() as usize, num_shots);
        for op in circuit.ops() {
            self.apply(op, rng);
        }
    }

    /// Samples `num_shots` shots of `circuit`, returning detector/observable flips.
    pub fn sample<R: Rng>(circuit: &Circuit, num_shots: usize, rng: &mut R) -> DetectorSamples {
        let mut sim = Self::default();
        let mut out = DetectorSamples::default();
        sim.sample_into(circuit, num_shots, rng, &mut out);
        out
    }

    /// Like [`FrameSim::sample`], but reuses both this simulator's frame
    /// buffers and `out`'s bit planes: steady-state batch loops perform no
    /// heap allocation.
    pub fn sample_into<R: Rng>(
        &mut self,
        circuit: &Circuit,
        num_shots: usize,
        rng: &mut R,
        out: &mut DetectorSamples,
    ) {
        self.run(circuit, num_shots, rng);
        self.collect_into(circuit, out);
    }

    /// Samples raw measurement-flip bits (relative to the noiseless
    /// reference) for `num_shots` shots, bit-packed 64 shots per word.
    // raa-audit: allow(orphan-pub): cross_validation.rs and scenario_proptests.rs compare the frame simulator's raw measurement flips with the tableau reference.
    pub fn sample_measurement_flips<R: Rng>(
        circuit: &Circuit,
        num_shots: usize,
        rng: &mut R,
    ) -> MeasurementFlips {
        let mut sim = Self::default();
        sim.run(circuit, num_shots, rng);
        MeasurementFlips {
            num_shots,
            num_measurements: circuit.num_measurements(),
            words_per_row: sim.words,
            bits: std::mem::take(&mut sim.meas),
        }
    }

    #[inline]
    fn row(buf: &mut [u64], q: usize, words: usize) -> &mut [u64] {
        &mut buf[q * words..(q + 1) * words]
    }

    fn apply<R: Rng>(&mut self, op: &crate::circuit::Operation, rng: &mut R) {
        use OpKind::*;
        let w = self.words;
        match op.kind {
            Tick | X | Y | Z => {}
            H => {
                for &q in &op.targets {
                    let q = q as usize;
                    for i in 0..w {
                        let xv = self.x[q * w + i];
                        let zv = self.z[q * w + i];
                        self.x[q * w + i] = zv;
                        self.z[q * w + i] = xv;
                    }
                }
            }
            S | SDag => {
                // X → ±Y: the Z component toggles wherever X is set.
                for &q in &op.targets {
                    let q = q as usize;
                    for i in 0..w {
                        self.z[q * w + i] ^= self.x[q * w + i];
                    }
                }
            }
            SqrtX | SqrtXDag => {
                // Z → ±Y: the X component toggles wherever Z is set.
                for &q in &op.targets {
                    let q = q as usize;
                    for i in 0..w {
                        self.x[q * w + i] ^= self.z[q * w + i];
                    }
                }
            }
            CX => {
                for pair in op.targets.chunks_exact(2) {
                    let (c, t) = (pair[0] as usize, pair[1] as usize);
                    for i in 0..w {
                        self.x[t * w + i] ^= self.x[c * w + i];
                        self.z[c * w + i] ^= self.z[t * w + i];
                    }
                }
            }
            CZ => {
                for pair in op.targets.chunks_exact(2) {
                    let (a, b) = (pair[0] as usize, pair[1] as usize);
                    for i in 0..w {
                        self.z[a * w + i] ^= self.x[b * w + i];
                        self.z[b * w + i] ^= self.x[a * w + i];
                    }
                }
            }
            Swap => {
                for pair in op.targets.chunks_exact(2) {
                    let (a, b) = (pair[0] as usize, pair[1] as usize);
                    for i in 0..w {
                        self.x.swap(a * w + i, b * w + i);
                        self.z.swap(a * w + i, b * w + i);
                    }
                }
            }
            R => {
                for &q in &op.targets {
                    let q = q as usize;
                    Self::row(&mut self.x, q, w).fill(0);
                    Self::row(&mut self.z, q, w).fill(0);
                }
            }
            RX => {
                for &q in &op.targets {
                    let q = q as usize;
                    Self::row(&mut self.x, q, w).fill(0);
                    Self::row(&mut self.z, q, w).fill(0);
                }
            }
            M => {
                for &q in &op.targets {
                    let q = q as usize;
                    let start = self.meas.len();
                    self.meas.extend_from_slice(&self.x[q * w..(q + 1) * w]);
                    self.mask_tail(start);
                    // A residual Z frame on a collapsed qubit is unphysical.
                    Self::row(&mut self.z, q, w).fill(0);
                }
            }
            MX => {
                for &q in &op.targets {
                    let q = q as usize;
                    let start = self.meas.len();
                    self.meas.extend_from_slice(&self.z[q * w..(q + 1) * w]);
                    self.mask_tail(start);
                    Self::row(&mut self.x, q, w).fill(0);
                }
            }
            MR => {
                for &q in &op.targets {
                    let q = q as usize;
                    let start = self.meas.len();
                    self.meas.extend_from_slice(&self.x[q * w..(q + 1) * w]);
                    self.mask_tail(start);
                    Self::row(&mut self.x, q, w).fill(0);
                    Self::row(&mut self.z, q, w).fill(0);
                }
            }
            XError => self.pauli_noise(op, rng, true, false),
            ZError => self.pauli_noise(op, rng, false, true),
            YError => self.pauli_noise(op, rng, true, true),
            Depolarize1 => {
                let p = op.arg;
                let trials = op.targets.len() * self.num_shots;
                let targets = op.targets.clone();
                let w = self.words;
                for_each_hit(p, trials, rng, |hit, rng| {
                    let q = targets[hit / self.num_shots] as usize;
                    let s = hit % self.num_shots;
                    let which = rng.random_range(1..4u32);
                    if which & 1 != 0 {
                        self.x[q * w + s / 64] ^= 1 << (s % 64);
                    }
                    if which & 2 != 0 {
                        self.z[q * w + s / 64] ^= 1 << (s % 64);
                    }
                });
            }
            Depolarize2 => {
                let p = op.arg;
                let pairs = op.targets.len() / 2;
                let trials = pairs * self.num_shots;
                let targets = op.targets.clone();
                let w = self.words;
                for_each_hit(p, trials, rng, |hit, rng| {
                    let pair = hit / self.num_shots;
                    let s = hit % self.num_shots;
                    let (a, b) = (targets[2 * pair] as usize, targets[2 * pair + 1] as usize);
                    let which = rng.random_range(1..16u32);
                    if which & 1 != 0 {
                        self.x[a * w + s / 64] ^= 1 << (s % 64);
                    }
                    if which & 2 != 0 {
                        self.z[a * w + s / 64] ^= 1 << (s % 64);
                    }
                    if which & 4 != 0 {
                        self.x[b * w + s / 64] ^= 1 << (s % 64);
                    }
                    if which & 8 != 0 {
                        self.z[b * w + s / 64] ^= 1 << (s % 64);
                    }
                });
            }
        }
    }

    fn mask_tail(&mut self, row_start: usize) {
        let w = self.words;
        self.meas[row_start + w - 1] &= self.tail_mask;
    }

    fn pauli_noise<R: Rng>(
        &mut self,
        op: &crate::circuit::Operation,
        rng: &mut R,
        flip_x: bool,
        flip_z: bool,
    ) {
        let p = op.arg;
        let trials = op.targets.len() * self.num_shots;
        let targets = op.targets.clone();
        let w = self.words;
        for_each_hit(p, trials, rng, |hit, _rng| {
            let q = targets[hit / self.num_shots] as usize;
            let s = hit % self.num_shots;
            if flip_x {
                self.x[q * w + s / 64] ^= 1 << (s % 64);
            }
            if flip_z {
                self.z[q * w + s / 64] ^= 1 << (s % 64);
            }
        });
    }

    fn collect_into(&self, circuit: &Circuit, out: &mut DetectorSamples) {
        let w = self.words;
        let nd = circuit.num_detectors();
        let no = circuit.num_observables();
        // `observable_mask` packs observables into a u64; `reset` enforces
        // the ≤64-observables invariant here, at construction, instead of
        // silently truncating bits at read time.
        out.reset(self.num_shots, nd, no);
        let (detectors, observables, _) = out.planes_mut();
        for (d, meas_list) in circuit.detectors().iter().enumerate() {
            for &m in meas_list {
                for i in 0..w {
                    detectors[d * w + i] ^= self.meas[m * w + i];
                }
            }
        }
        for (o, meas_list) in circuit.observables().iter().enumerate() {
            for &m in meas_list {
                for i in 0..w {
                    observables[o * w + i] ^= self.meas[m * w + i];
                }
            }
        }
    }
}

/// Bit-packed raw measurement-flip samples: row `m` holds measurement `m`,
/// 64 shots per word, as produced by [`FrameSim::sample_measurement_flips`].
///
/// Replaces the historical `Vec<Vec<bool>>` return type (one heap row per
/// measurement, one byte per bit) with the same shot-packed `u64` layout the
/// rest of the sampling pipeline uses.
#[derive(Debug, Clone, Default)]
pub struct MeasurementFlips {
    num_shots: usize,
    num_measurements: usize,
    words_per_row: usize,
    /// Measurement-major bit matrix: row `m`, word `w` at
    /// `m * words_per_row + w`.
    bits: Vec<u64>,
}

impl MeasurementFlips {
    /// Number of measurements per shot.
    // raa-audit: allow(orphan-pub): cross_validation.rs and scenario_proptests.rs compare the frame simulator's raw measurement flips with the tableau reference.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// Whether measurement `m` flipped (relative to the noiseless
    /// reference) in shot `s`.
    // raa-audit: allow(orphan-pub): cross_validation.rs and scenario_proptests.rs compare the frame simulator's raw measurement flips with the tableau reference.
    pub fn flipped(&self, s: usize, m: usize) -> bool {
        assert!(s < self.num_shots && m < self.num_measurements);
        (self.bits[m * self.words_per_row + s / 64] >> (s % 64)) & 1 == 1
    }
}

/// Calls `f(hit_index, rng)` for each Bernoulli(p) success among `trials`
/// independent trials, using geometric skip sampling: expected cost is
/// O(p · trials) rather than O(trials). The compiled DEM sampler
/// ([`crate::dem_sampler`]) uses the same construction but its own
/// ziggurat-based walk — the two are independent implementations.
fn for_each_hit<R: Rng>(p: f64, trials: usize, rng: &mut R, mut f: impl FnMut(usize, &mut R)) {
    if trials == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        for i in 0..trials {
            f(i, rng);
        }
        return;
    }
    let log_q = (1.0 - p).ln();
    let mut i = 0usize;
    loop {
        let u: f64 = rng.random();
        // Number of failures before the next success.
        let skip = if u <= 0.0 {
            usize::MAX
        } else {
            let s = (u.ln() / log_q).floor();
            if s >= trials as f64 {
                usize::MAX
            } else {
                s as usize
            }
        };
        if skip == usize::MAX || i.saturating_add(skip) >= trials {
            return;
        }
        i += skip;
        f(i, rng);
        i += 1;
        if i >= trials {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, MeasRecord};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEADBEEF)
    }

    #[test]
    fn no_noise_means_no_flips() {
        let mut c = Circuit::new();
        c.r(&[0, 1]);
        c.h(&[0]);
        c.cx(&[(0, 1)]);
        c.m(&[0, 1]);
        c.detector(&[MeasRecord::back(1), MeasRecord::back(2)]);
        let s = FrameSim::sample(&c, 256, &mut rng());
        for shot in 0..256 {
            assert!(!s.detector(shot, 0));
        }
    }

    #[test]
    fn certain_x_error_flips_measurement() {
        let mut c = Circuit::new();
        c.r(&[0]);
        c.x_error(&[0], 1.0);
        c.m(&[0]);
        c.detector(&[MeasRecord::back(1)]);
        let s = FrameSim::sample(&c, 100, &mut rng());
        for shot in 0..100 {
            assert!(s.detector(shot, 0));
        }
    }

    #[test]
    fn z_error_invisible_to_z_measurement() {
        let mut c = Circuit::new();
        c.r(&[0]);
        c.z_error(&[0], 1.0);
        c.m(&[0]);
        c.detector(&[MeasRecord::back(1)]);
        let s = FrameSim::sample(&c, 64, &mut rng());
        for shot in 0..64 {
            assert!(!s.detector(shot, 0));
        }
    }

    #[test]
    fn z_error_flips_x_measurement() {
        let mut c = Circuit::new();
        c.rx(&[0]);
        c.z_error(&[0], 1.0);
        c.mx(&[0]);
        c.detector(&[MeasRecord::back(1)]);
        let s = FrameSim::sample(&c, 64, &mut rng());
        for shot in 0..64 {
            assert!(s.detector(shot, 0));
        }
    }

    #[test]
    fn error_propagates_through_cx() {
        // X on control before CX flips both measurements; detector on the
        // pair (parity) stays silent while individual detectors fire.
        let mut c = Circuit::new();
        c.r(&[0, 1]);
        c.x_error(&[0], 1.0);
        c.cx(&[(0, 1)]);
        c.m(&[0, 1]);
        c.detector(&[MeasRecord::back(2)]);
        c.detector(&[MeasRecord::back(1)]);
        c.detector(&[MeasRecord::back(1), MeasRecord::back(2)]);
        let s = FrameSim::sample(&c, 64, &mut rng());
        for shot in 0..64 {
            assert!(s.detector(shot, 0));
            assert!(s.detector(shot, 1));
            assert!(!s.detector(shot, 2));
        }
    }

    #[test]
    fn hadamard_exchanges_x_and_z_frames() {
        let mut c = Circuit::new();
        c.r(&[0]);
        c.z_error(&[0], 1.0);
        c.h(&[0]);
        c.m(&[0]); // Z frame became X frame: flip visible
        c.detector(&[MeasRecord::back(1)]);
        let s = FrameSim::sample(&c, 64, &mut rng());
        for shot in 0..64 {
            assert!(s.detector(shot, 0));
        }
    }

    #[test]
    fn reset_clears_frames() {
        let mut c = Circuit::new();
        c.r(&[0]);
        c.x_error(&[0], 1.0);
        c.r(&[0]);
        c.m(&[0]);
        c.detector(&[MeasRecord::back(1)]);
        let s = FrameSim::sample(&c, 64, &mut rng());
        for shot in 0..64 {
            assert!(!s.detector(shot, 0));
        }
    }

    #[test]
    fn x_error_rate_statistics() {
        let mut c = Circuit::new();
        c.r(&[0]);
        c.x_error(&[0], 0.1);
        c.m(&[0]);
        c.detector(&[MeasRecord::back(1)]);
        let shots = 100_000;
        let s = FrameSim::sample(&c, shots, &mut rng());
        let hits: usize = (0..shots).filter(|&i| s.detector(i, 0)).count();
        let rate = hits as f64 / shots as f64;
        assert!((rate - 0.1).abs() < 0.005, "rate = {rate}");
    }

    #[test]
    fn depolarize1_marginals() {
        // Each of X, Y, Z occurs with p/3; Z-measurement flips see X and Y: 2p/3.
        let mut c = Circuit::new();
        c.r(&[0]);
        c.depolarize1(&[0], 0.3);
        c.m(&[0]);
        c.detector(&[MeasRecord::back(1)]);
        let shots = 100_000;
        let s = FrameSim::sample(&c, shots, &mut rng());
        let rate = (0..shots).filter(|&i| s.detector(i, 0)).count() as f64 / shots as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn depolarize2_marginals() {
        // 15 Paulis each p/15; those with X or Y on the first qubit: 8 of 15.
        let mut c = Circuit::new();
        c.r(&[0, 1]);
        c.depolarize2(&[(0, 1)], 0.15);
        c.m(&[0]);
        c.detector(&[MeasRecord::back(1)]);
        let shots = 200_000;
        let s = FrameSim::sample(&c, shots, &mut rng());
        let rate = (0..shots).filter(|&i| s.detector(i, 0)).count() as f64 / shots as f64;
        let expect = 0.15 * 8.0 / 15.0;
        assert!(
            (rate - expect).abs() < 0.01,
            "rate = {rate}, expect {expect}"
        );
    }

    #[test]
    fn observables_collected() {
        let mut c = Circuit::new();
        c.r(&[0]);
        c.x_error(&[0], 1.0);
        c.m(&[0]);
        c.observable_include(0, &[MeasRecord::back(1)]);
        let s = FrameSim::sample(&c, 64, &mut rng());
        assert_eq!(s.num_observables(), 1);
        for shot in 0..64 {
            assert!(s.observable(shot, 0));
            assert_eq!(s.observable_mask(shot), 1);
        }
    }

    #[test]
    fn fired_detectors_lists_syndrome() {
        let mut c = Circuit::new();
        c.r(&[0, 1]);
        c.x_error(&[0], 1.0);
        c.m(&[0, 1]);
        c.detector(&[MeasRecord::back(2)]);
        c.detector(&[MeasRecord::back(1)]);
        let s = FrameSim::sample(&c, 1, &mut rng());
        assert_eq!(s.fired_detectors(0), vec![0]);
    }

    #[test]
    fn geometric_sampler_hits_all_at_p1() {
        let mut hits = Vec::new();
        for_each_hit(1.0, 5, &mut rng(), |i, _| hits.push(i));
        assert_eq!(hits, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn geometric_sampler_statistics() {
        let mut count = 0usize;
        let trials = 1_000_000;
        for_each_hit(0.01, trials, &mut rng(), |_, _| count += 1);
        let rate = count as f64 / trials as f64;
        assert!((rate - 0.01).abs() < 0.001, "rate = {rate}");
    }

    #[test]
    fn transpose64_is_a_transpose() {
        let mut rng = rng();
        let mut a = [0u64; 64];
        for w in a.iter_mut() {
            *w = rng.random();
        }
        let original = a;
        transpose64(&mut a);
        for (j, &col) in a.iter().enumerate() {
            for (i, &row) in original.iter().enumerate() {
                assert_eq!((col >> i) & 1, (row >> j) & 1, "({i}, {j})");
            }
        }
        // Transposing twice is the identity.
        transpose64(&mut a);
        assert_eq!(a, original);
    }

    #[test]
    fn syndrome_batch_matches_dense_reads_on_sampled_circuit() {
        // 70 detectors x 100 shots: exercises the ragged tile edges of the
        // 64x64 block transpose in both dimensions.
        let mut c = Circuit::new();
        c.r(&[0]);
        for _ in 0..70 {
            c.x_error(&[0], 0.3);
            c.m(&[0]);
            c.detector(&[MeasRecord::back(1)]);
            c.r(&[0]);
        }
        let shots = 100;
        let s = FrameSim::sample(&c, shots, &mut rng());
        let mut batch = SyndromeBatch::default();
        s.transpose_detectors_into(&mut batch);
        assert_eq!(batch.num_shots(), shots);
        assert_eq!(batch.num_detectors(), 70);
        let mut sparse = Vec::new();
        for shot in 0..shots {
            batch.fired_into(shot, &mut sparse);
            assert_eq!(sparse, s.fired_detectors(shot), "shot {shot}");
            for d in 0..70 {
                assert_eq!(batch.detector(shot, d), s.detector(shot, d));
            }
        }
    }

    mod sparse_extractor_properties {
        use super::super::{transpose64, SyndromeBatch};
        use proptest::prelude::*;

        /// Builds a shot-major batch directly from raw words.
        fn batch_from_words(
            words: &[u64],
            num_shots: usize,
            num_detectors: usize,
        ) -> SyndromeBatch {
            let wps = num_detectors.div_ceil(64);
            let mut bits = vec![0u64; num_shots * wps];
            let tail = num_detectors % 64;
            let tail_mask = if tail == 0 { !0u64 } else { (1 << tail) - 1 };
            for (i, b) in bits.iter_mut().enumerate() {
                *b = words[i % words.len()];
                if i % wps == wps - 1 {
                    *b &= tail_mask;
                }
            }
            SyndromeBatch {
                num_shots,
                num_detectors,
                words_per_shot: wps,
                bits,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The word-skipping sparse extractor agrees with dense per-bit
            /// reads on arbitrary bit patterns and ragged sizes.
            #[test]
            fn fired_into_agrees_with_dense_bits(
                words in proptest::collection::vec(any::<u64>(), 1..12),
                num_shots in 1usize..5,
                num_detectors in 1usize..200,
            ) {
                let batch = batch_from_words(&words, num_shots, num_detectors);
                let mut fired = Vec::new();
                for s in 0..num_shots {
                    batch.fired_into(s, &mut fired);
                    let dense: Vec<u32> = (0..num_detectors)
                        .filter(|&d| batch.detector(s, d))
                        .map(|d| d as u32)
                        .collect();
                    prop_assert_eq!(&fired, &dense, "shot {}", s);
                }
            }

            /// transpose64 is an involution and a true bit transpose.
            #[test]
            fn transpose64_involution(words in proptest::collection::vec(any::<u64>(), 64)) {
                let mut a = [0u64; 64];
                a.copy_from_slice(&words);
                let original = a;
                transpose64(&mut a);
                for (j, &col) in a.iter().enumerate() {
                    for (i, &row) in original.iter().enumerate() {
                        prop_assert_eq!((col >> i) & 1, (row >> j) & 1);
                    }
                }
                transpose64(&mut a);
                prop_assert_eq!(a, original);
            }
        }
    }

    /// Cross-validation: frame sampler statistics agree with the exact
    /// tableau simulation on a small noisy circuit.
    #[test]
    fn frame_agrees_with_tableau_statistics() {
        let mut c = Circuit::new();
        c.r(&[0, 1, 2]);
        c.h(&[0]);
        c.depolarize1(&[0, 1], 0.2);
        c.cx(&[(0, 1), (1, 2)]);
        c.depolarize2(&[(0, 1)], 0.1);
        c.m(&[0, 1, 2]);
        // Parity of all three measurements (deterministically 0 without noise:
        // m0 random-but-reference-forced... use m1 ^ m2 which is 0 noiselessly).
        c.detector(&[MeasRecord::back(1), MeasRecord::back(2)]);

        let shots = 200_000;
        let s = FrameSim::sample(&c, shots, &mut rng());
        let frame_rate = (0..shots).filter(|&i| s.detector(i, 0)).count() as f64 / shots as f64;

        let mut tab_rate = 0.0;
        let mut r = rng();
        let tab_shots = 20_000;
        for _ in 0..tab_shots {
            let rec = crate::tableau::TableauSim::sample(&c, &mut r);
            if rec[1] ^ rec[2] {
                tab_rate += 1.0;
            }
        }
        tab_rate /= tab_shots as f64;
        assert!(
            (frame_rate - tab_rate).abs() < 0.015,
            "frame {frame_rate} vs tableau {tab_rate}"
        );
    }
}
