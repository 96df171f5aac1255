//! Compiled detector-error-model sampler.
//!
//! The Pauli-frame simulator ([`crate::frame::FrameSim`]) re-runs the full
//! circuit op by op for every batch of shots: cost scales with circuit ops ×
//! qubits even though the noise channels have already been propagated into a
//! [`DetectorErrorModel`] for the decoder. [`DemSampler`] precompiles that
//! DEM once — each mechanism becomes a bit-packed detector footprint plus a
//! packed observable mask — and then samples batches by walking each
//! mechanism's Bernoulli stream with the same geometric-skip construction
//! the frame simulator uses for noise, XORing the footprint directly into
//! bit-packed output planes: either the decoder-ready shot-major
//! [`SyndromeBatch`] rows plus per-shot observable masks (the Monte-Carlo
//! hot path, [`DemSampler::sample_syndromes_into`]) or the detector-major
//! [`DetectorSamples`] planes (`DemSampler::sample_into`, the reference
//! layout shared with [`crate::frame::FrameSim`]).
//!
//! Per batch the cost is O(probability groups + hits × footprint size): no
//! tableau, no gate application, no per-shot branching. Below threshold
//! (hit rate `p · mechanisms` per shot ≪ detectors) this is the difference
//! between re-simulating the circuit and nearly-free sampling, the same
//! precompute trick stim/sinter use.
//!
//! Two structural optimizations keep the walk cost proportional to *hits*
//! rather than *mechanisms*, both distribution-exact:
//!
//! * **probability grouping** — circuit-level DEMs have thousands of
//!   mechanisms but only dozens of distinct probabilities (depolarizing
//!   components share `p/15`, `p/3`, and their XOR-merges). Mechanisms
//!   with bit-identical probability are concatenated into one virtual
//!   Bernoulli trial space walked by a single geometric skip chain, so the
//!   per-mechanism fixed cost (one RNG draw each, even for mechanisms that
//!   never fire in the batch) collapses to one per *group*;
//! * **ziggurat exponentials** — a geometric skip is `⌊E / −ln(1−p)⌋`
//!   with `E ~ Exp(1)`. Instead of the textbook `E = −ln(u)` (a `ln` call
//!   per hit, the dominant cost), `E` is drawn by a 256-layer ziggurat
//!   (`zexp`): one `u64` draw plus two table lookups on the ~99% fast
//!   path, identical distribution.
//!
//! The DEM treats mechanisms as independent Bernoulli sources. For X/Y/Z
//! channels this reproduces the circuit distribution *exactly* (mechanisms
//! with identical footprints were XOR-merged at extraction); for
//! depolarizing channels the mutually-exclusive Pauli components become
//! independent mechanisms, an O(p²) approximation — the standard DEM
//! semantics, validated statistically against the frame simulator in
//! `crates/sim/tests/sampler_validation.rs`.

use crate::dem::DetectorErrorModel;
use crate::frame::{DetectorSamples, SyndromeBatch};
use rand::Rng;

/// Shots per walk block: a power of two (so trial→position splits are
/// shifts, not divisions) small enough that `block × words_per_shot`
/// output rows stay L1-resident while sampling. See
/// [`DemSampler::walk_hits`].
const WALK_BLOCK: usize = 512;

/// Mechanisms sharing one firing probability, walked as a single virtual
/// Bernoulli trial space of `mechanism × shot` trials (mechanism-major).
#[derive(Debug, Clone)]
struct ProbGroup {
    /// `1 / −ln(1 − p)`: scales an Exp(1) draw into a geometric skip.
    inv_mu: f64,
    /// `p == 1`: every trial fires, no walk needed.
    certain: bool,
    /// Range into [`DemSampler::by_prob`].
    start: u32,
    end: u32,
}

/// A detector error model compiled for direct Monte-Carlo sampling.
///
/// Construction validates every mechanism once ([`DemSampler::new`] fails
/// loudly on out-of-range detector or observable ids), so sampling itself
/// is branch-free over footprints.
///
/// # Example
///
/// ```
/// use raa_stabsim::{Circuit, MeasRecord, DemSampler, DetectorErrorModel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new();
/// c.r(&[0]);
/// c.x_error(&[0], 0.25);
/// c.m(&[0]);
/// c.detector(&[MeasRecord::back(1)]);
///
/// let dem = DetectorErrorModel::from_circuit(&c);
/// let sampler = DemSampler::new(&dem);
/// let mut rng = StdRng::seed_from_u64(1);
/// let samples = sampler.sample(10_000, &mut rng);
/// let fired = (0..10_000).filter(|&s| samples.detector(s, 0)).count();
/// assert!((fired as f64 / 10_000.0 - 0.25).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct DemSampler {
    num_detectors: usize,
    num_observables: usize,
    /// Flattened detector footprints: mechanism `i` flips the detectors
    /// `det_ids[det_offsets[i]..det_offsets[i + 1]]`.
    det_offsets: Vec<u32>,
    det_ids: Vec<u32>,
    /// Per-mechanism packed observable mask (observable `o` ↔ bit `o`).
    obs_masks: Vec<u64>,
    /// Mechanism indices reordered so each probability class is contiguous
    /// (zero-probability mechanisms omitted — they can never fire).
    by_prob: Vec<u32>,
    /// The probability classes, in descending-probability order.
    groups: Vec<ProbGroup>,
    /// Per-*position* (i.e. [`DemSampler::by_prob`] order, the order the
    /// walk visits mechanisms) compiled shot-major footprints, one record
    /// per mechanism so a hit touches a single metadata cache line.
    compiled: Vec<CompiledMech>,
    /// Overflow `(word, mask)` XOR targets for the rare mechanisms whose
    /// footprint spans more than two words.
    spill: Vec<(u32, u64)>,
}

/// Shot-major footprint of one mechanism, compiled for the hot writer:
/// XOR `mask[0]`/`mask[1]` into row words `w[0]`/`w[1]` (detectors sharing
/// a word are pre-merged; single-word footprints pad with a no-op
/// `mask = 0`), then the rare `spill_len` extra words, then the packed
/// observable mask.
#[derive(Debug, Clone)]
struct CompiledMech {
    w: [u32; 2],
    mask: [u64; 2],
    obs: u64,
    spill_start: u32,
    spill_len: u32,
}

impl DemSampler {
    /// Compiles `dem` for sampling.
    ///
    /// # Panics
    ///
    /// Fails loudly on models the packed representation cannot hold —
    /// mirroring the `observable_mask` construction-time assert of the
    /// frame sampler rather than corrupting planes at sample time:
    ///
    /// * more than 64 observables (the `u64` mask limit);
    /// * a mechanism flipping an observable `≥ num_observables`;
    /// * a mechanism flipping a detector `≥ num_detectors`;
    /// * a probability outside `[0, 1]`.
    pub fn new(dem: &DetectorErrorModel) -> Self {
        assert!(
            dem.num_observables <= 64,
            "DemSampler supports at most 64 observables, got {}",
            dem.num_observables
        );
        let obs_limit = if dem.num_observables == 64 {
            !0u64
        } else {
            (1u64 << dem.num_observables) - 1
        };
        let mut probabilities = Vec::with_capacity(dem.len());
        let mut det_offsets = Vec::with_capacity(dem.len() + 1);
        let mut det_ids = Vec::new();
        let mut obs_masks = Vec::with_capacity(dem.len());
        det_offsets.push(0u32);
        for (i, e) in dem.iter().enumerate() {
            assert!(
                e.probability.is_finite() && (0.0..=1.0).contains(&e.probability),
                "mechanism {i}: probability {} outside [0, 1]",
                e.probability
            );
            assert!(
                e.observables & !obs_limit == 0,
                "mechanism {i}: observable mask {:#x} exceeds the model's {} observables",
                e.observables,
                dem.num_observables
            );
            for &d in &e.detectors {
                assert!(
                    (d as usize) < dem.num_detectors,
                    "mechanism {i}: detector id {d} out of range (model has {} detectors)",
                    dem.num_detectors
                );
            }
            probabilities.push(e.probability);
            det_ids.extend_from_slice(&e.detectors);
            det_offsets.push(det_ids.len() as u32);
            obs_masks.push(e.observables);
        }

        // Group mechanisms by bit-identical probability (descending), so
        // sampling pays one walk per probability class instead of one per
        // mechanism. Zero-probability mechanisms never fire: dropped.
        let mut order: Vec<u32> = (0..probabilities.len() as u32)
            .filter(|&i| probabilities[i as usize] > 0.0)
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(probabilities[i as usize].to_bits()));
        let mut groups: Vec<ProbGroup> = Vec::new();
        for (pos, &i) in order.iter().enumerate() {
            let p = probabilities[i as usize];
            match groups.last_mut() {
                Some(g)
                    if probabilities[order[g.start as usize] as usize].to_bits() == p.to_bits() =>
                {
                    g.end = pos as u32 + 1;
                }
                _ => groups.push(ProbGroup {
                    // ln_1p for accuracy at tiny p; p == 1 handled by the
                    // `certain` flag (−ln 0 would be ∞).
                    inv_mu: if p >= 1.0 { 0.0 } else { -1.0 / (-p).ln_1p() },
                    certain: p >= 1.0,
                    start: pos as u32,
                    end: pos as u32 + 1,
                }),
            }
        }

        // Compile shot-major footprints in *walk order* (one record per
        // `by_prob` position), so the hot writer streams its metadata
        // forward instead of chasing the DEM's original mechanism order:
        // detector `d` lives in word `d / 64`, bit `d % 64` of a shot row,
        // and detectors of one mechanism sharing a word collapse into a
        // single XOR (the ids are sorted).
        let mut compiled = Vec::with_capacity(order.len());
        let mut spill: Vec<(u32, u64)> = Vec::new();
        for &m in &order {
            let dets =
                &det_ids[det_offsets[m as usize] as usize..det_offsets[m as usize + 1] as usize];
            let mut words: Vec<(u32, u64)> = Vec::new();
            for &d in dets {
                let word = d / 64;
                let bit = 1u64 << (d % 64);
                match words.last_mut() {
                    Some(last) if last.0 == word => last.1 |= bit,
                    _ => words.push((word, bit)),
                }
            }
            let w0 = words.first().copied().unwrap_or((0, 0));
            let w1 = words.get(1).copied().unwrap_or((w0.0, 0));
            let spill_start = spill.len() as u32;
            if words.len() > 2 {
                spill.extend_from_slice(&words[2..]);
            }
            compiled.push(CompiledMech {
                w: [w0.0, w1.0],
                mask: [w0.1, w1.1],
                obs: obs_masks[m as usize],
                spill_start,
                spill_len: (words.len().saturating_sub(2)) as u32,
            });
        }

        Self {
            num_detectors: dem.num_detectors,
            num_observables: dem.num_observables,
            det_offsets,
            det_ids,
            obs_masks,
            by_prob: order,
            groups,

            compiled,
            spill,
        }
    }

    /// Samples `num_shots` shots, returning detector/observable flips with
    /// the same layout and semantics as [`crate::frame::FrameSim::sample`].
    // raa-audit: allow(orphan-pub): scenario_conformance.rs and sampler_validation.rs draw reference samples with it; the Monte-Carlo path samples into batches.
    pub fn sample<R: Rng>(&self, num_shots: usize, rng: &mut R) -> DetectorSamples {
        let mut out = DetectorSamples::default();
        self.sample_into(num_shots, rng, &mut out);
        out
    }

    /// Like [`DemSampler::sample`], but reuses `out`'s bit planes:
    /// steady-state batch loops perform no heap allocation.
    ///
    /// For a given RNG state the output is a pure function of the compiled
    /// model and `num_shots` — probability groups are walked in their
    /// deterministic compile-time order — so batch-seeded callers (the
    /// `raa_decode::mc` pipeline) keep their
    /// bit-identical-across-thread-counts guarantee.
    pub(crate) fn sample_into<R: Rng>(
        &self,
        num_shots: usize,
        rng: &mut R,
        out: &mut DetectorSamples,
    ) {
        out.reset(num_shots, self.num_detectors, self.num_observables);
        let (detectors, observables, words) = out.planes_mut();
        self.walk_hits(num_shots, rng, |pos, shot| {
            let m = self.by_prob[pos as usize] as usize;
            let word = shot / 64;
            let bit = 1u64 << (shot % 64);
            let dets =
                &self.det_ids[self.det_offsets[m] as usize..self.det_offsets[m + 1] as usize];
            for &d in dets {
                detectors[d as usize * words + word] ^= bit;
            }
            let mut mask = self.obs_masks[m];
            while mask != 0 {
                let o = mask.trailing_zeros() as usize;
                observables[o * words + word] ^= bit;
                mask &= mask - 1;
            }
        });
    }

    /// Samples `num_shots` shots directly into the decoder-ready shot-major
    /// layout: `syndromes` gets each shot's detector bits (the
    /// [`SyndromeBatch`] the decode pipeline feeds on, no transpose
    /// needed), `obs_masks` gets each shot's packed observable mask. Both
    /// buffers are reused; steady state performs no heap allocation.
    ///
    /// This is the Monte-Carlo hot path: one hit costs one or two word
    /// XORs inside a single shot row (compiled footprints pre-merge
    /// detectors sharing a word), so the cache footprint per hit is a
    /// cache line or two regardless of model size.
    ///
    /// Draws the identical hit sequence as `DemSampler::sample_into` for
    /// the same RNG state.
    pub fn sample_syndromes_into<R: Rng>(
        &self,
        num_shots: usize,
        rng: &mut R,
        syndromes: &mut SyndromeBatch,
        obs_masks: &mut Vec<u64>,
    ) {
        syndromes.reset(num_shots, self.num_detectors);
        obs_masks.clear();
        obs_masks.resize(num_shots, 0);
        self.sample_syndromes_accumulate(num_shots, rng, syndromes, obs_masks);
    }

    /// Like [`DemSampler::sample_syndromes_into`], but XOR-accumulates on
    /// top of `syndromes`/`obs_masks` instead of clearing them first. The
    /// buffers must already be sized: `syndromes` reset for exactly
    /// `num_shots` shots of this model's detector count, `obs_masks` one
    /// entry per shot.
    ///
    /// This is the building block of the streaming (time-sliced) sampler,
    /// where several slice samplers write into one rolling resident
    /// window: bits deposited by earlier slices (boundary mechanisms
    /// spilling forward in time) must survive.
    ///
    /// # Panics
    ///
    /// Panics if the buffers are not sized as described.
    pub(crate) fn sample_syndromes_accumulate<R: Rng>(
        &self,
        num_shots: usize,
        rng: &mut R,
        syndromes: &mut SyndromeBatch,
        obs_masks: &mut [u64],
    ) {
        assert_eq!(
            (syndromes.num_shots(), syndromes.num_detectors()),
            (num_shots, self.num_detectors),
            "syndrome batch not sized for this sampler"
        );
        assert_eq!(obs_masks.len(), num_shots, "one observable mask per shot");
        let (rows, wps) = syndromes.rows_mut();
        if wps == 0 {
            // Detector-free model: only observable flips to record.
            self.walk_hits(num_shots, rng, |pos, shot| {
                let obs = self.compiled[pos as usize].obs;
                if obs != 0 {
                    obs_masks[shot] ^= obs;
                }
            });
            return;
        }
        self.walk_hits(num_shots, rng, |pos, shot| {
            let cm = &self.compiled[pos as usize];
            let row = shot * wps;
            // Two unconditional XORs cover ≤ 2-word footprints branch-free
            // (single-word footprints carry a no-op second mask).
            rows[row + cm.w[0] as usize] ^= cm.mask[0];
            rows[row + cm.w[1] as usize] ^= cm.mask[1];
            if cm.spill_len != 0 {
                let range = cm.spill_start as usize..(cm.spill_start + cm.spill_len) as usize;
                for &(word, mask) in &self.spill[range] {
                    rows[row + word as usize] ^= mask;
                }
            }
            // Most mechanisms flip no observable: skip the read-modify-
            // write (and its cache line) unless needed.
            if cm.obs != 0 {
                obs_masks[shot] ^= cm.obs;
            }
        });
    }

    /// Runs the geometric-skip Bernoulli walk for one batch, calling
    /// `hit(mechanism, shot)` for every mechanism firing. Shots are
    /// processed in fixed [`WALK_BLOCK`]-shot blocks — small enough that a
    /// block's output rows stay L1-resident for the shot-major writer, and
    /// a compile-time power of two so the per-hit trial→(mechanism, shot)
    /// split compiles to shifts instead of 64-bit divisions (which
    /// otherwise dominate the walk). Within a block each probability group
    /// walks its concatenated `mechanisms × block` trial space
    /// (mechanism-major, shot-minor) with one skip chain — a skip of k
    /// trials is k Bernoulli misses, so the per-trial process is exact.
    fn walk_hits<R: Rng>(&self, num_shots: usize, rng: &mut R, mut hit: impl FnMut(u32, usize)) {
        let zt = zexp::tables();
        let mut base = 0usize;
        while base < num_shots {
            let len = WALK_BLOCK.min(num_shots - base);
            if len == WALK_BLOCK {
                // Constant-propagated instantiation: `/ len`, `% len` and
                // `* len` become shifts.
                self.walk_block(zt, rng, base, WALK_BLOCK, &mut hit);
            } else {
                self.walk_block(zt, rng, base, len, &mut hit);
            }
            base += len;
        }
    }

    /// One block of the walk; see [`DemSampler::walk_hits`]. Calls
    /// `hit(position, shot)` with the *walk position* (the `by_prob` /
    /// `compiled` index of the firing mechanism). Marked `inline(always)`
    /// so the `len == WALK_BLOCK` call site specializes on the constant.
    #[inline(always)]
    fn walk_block<R: Rng>(
        &self,
        zt: &zexp::Tables,
        rng: &mut R,
        base: usize,
        len: usize,
        hit: &mut impl FnMut(u32, usize),
    ) {
        for g in &self.groups {
            let count = (g.end - g.start) as usize;
            if g.certain {
                for pos in g.start..g.end {
                    for shot in base..base + len {
                        hit(pos, shot);
                    }
                }
                continue;
            }
            let mut mech_i = 0usize;
            let mut shot = 0usize;
            loop {
                // `as usize` saturates, so astronomically long skips (tiny
                // p) safely compare as "past the end".
                let skip = (zexp::sample_with(zt, rng) * g.inv_mu) as usize;
                // Trials left including the current position.
                let remaining = (count - mech_i) * len - shot;
                if skip >= remaining {
                    break;
                }
                shot += skip;
                if shot >= len {
                    mech_i += shot / len;
                    shot %= len;
                }
                hit(g.start + mech_i as u32, base + shot);
                shot += 1;
                if shot == len {
                    shot = 0;
                    mech_i += 1;
                    if mech_i == count {
                        break;
                    }
                }
            }
        }
    }

    /// Deterministically injects mechanism `i` into shot `shot` of `out`
    /// (XORing its footprint), for tests and debugging. `out` must already
    /// be sized by a sampling call or [`DetectorSamples::reset`].
    // raa-audit: allow(orphan-pub): sampler_validation.rs injects each compiled mechanism to check the DEM sampler's footprints.
    pub fn inject_into(&self, i: usize, shot: usize, out: &mut DetectorSamples) {
        assert!(shot < out.num_shots(), "shot {shot} out of range");
        assert_eq!(
            (out.num_detectors(), out.num_observables()),
            (self.num_detectors, self.num_observables),
            "output planes sized for a different model"
        );
        let (dets, obs) = (
            self.det_offsets[i] as usize..self.det_offsets[i + 1] as usize,
            self.obs_masks[i],
        );
        let (detectors, observables, words) = out.planes_mut();
        let word = shot / 64;
        let bit = 1u64 << (shot % 64);
        for idx in dets {
            detectors[self.det_ids[idx] as usize * words + word] ^= bit;
        }
        let mut mask = obs;
        while mask != 0 {
            let o = mask.trailing_zeros() as usize;
            observables[o * words + word] ^= bit;
            mask &= mask - 1;
        }
    }
}

/// Exact Exp(1) sampling by the 256-layer ziggurat of Marsaglia & Tsang,
/// used to turn one cheap `u64` draw into a geometric skip (a geometric
/// with success probability `p` is `⌊E · inv_mu⌋`, `E ~ Exp(1)`,
/// `inv_mu = 1 / −ln(1−p)`). The textbook `E = −ln(u)` costs a `ln` per
/// hit; the ziggurat accepts ~98.9% of draws with two table lookups and a
/// compare, falling back to the wedge/tail (one `exp`/`ln`) on the rest.
/// The returned distribution is exactly Exp(1) either way.
mod zexp {
    use rand::Rng;
    use std::sync::OnceLock;

    /// Right edge of the base layer: x₁ = R.
    const R: f64 = 7.697117470131487;
    /// Common layer area V.
    #[allow(clippy::excessive_precision)]
    const V: f64 = 0.003_949_659_822_581_557_199_3;
    /// 2⁻⁵³, to turn 53 random bits into a uniform in [0, 1).
    const U53: f64 = 1.0 / (1u64 << 53) as f64;

    pub(super) struct Tables {
        /// `x[0] = V·eᴿ` (virtual base width), `x[1] = R`, …, `x[256] = 0`;
        /// strictly decreasing.
        x: [f64; 257],
        /// `f[i] = e^(−x[i])`; strictly increasing to `f[256] = 1`.
        f: [f64; 257],
        /// `x[i] · 2⁻⁵³`: turns the raw 53-bit uniform integer into
        /// `u · x[i]` with one multiply.
        x_scaled: [f64; 256],
        /// `⌊x[i+1] / x[i] · 2⁵³⌋`: integer fast-path acceptance threshold —
        /// `u_bits < k[i]` implies `u · x[i] < x[i+1]` (boundary cases
        /// within one ulp fall through to the wedge test, which accepts
        /// any x below the curve, so the distribution is unchanged).
        k: [u64; 256],
    }

    pub(super) fn tables() -> &'static Tables {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut x = [0.0f64; 257];
            let mut f = [0.0f64; 257];
            x[0] = V * R.exp();
            x[1] = R;
            f[0] = (-x[0]).exp();
            f[1] = (-x[1]).exp();
            for i in 1..256 {
                // Layer i spans y ∈ [f[i], f[i+1]] over x ∈ [0, x[i]] with
                // area V: f[i+1] = f[i] + V / x[i].
                f[i + 1] = (f[i] + V / x[i]).min(1.0);
                x[i + 1] = -f[i + 1].ln();
            }
            // Close the top: the recurrence lands within ~1e-10 of (0, 1).
            x[256] = 0.0;
            f[256] = 1.0;
            let mut x_scaled = [0.0f64; 256];
            let mut k = [0u64; 256];
            let two53 = (1u64 << 53) as f64;
            for i in 0..256 {
                x_scaled[i] = x[i] * U53;
                // Round down so the integer fast path never accepts a
                // point the exact comparison would reject.
                k[i] = (x[i + 1] / x[i] * two53).floor() as u64;
            }
            Tables { x, f, x_scaled, k }
        })
    }

    /// Draws one Exp(1) sample.
    #[cfg(test)]
    pub(super) fn sample<G: Rng>(rng: &mut G) -> f64 {
        sample_with(tables(), rng)
    }

    /// Draws one Exp(1) sample with the table reference hoisted out (the
    /// hot loop resolves the `OnceLock` once per batch, not per draw).
    #[inline]
    pub(super) fn sample_with<G: Rng>(t: &Tables, rng: &mut G) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            let u_bits = bits >> 11;
            if u_bits < t.k[i] {
                // Strictly inside the layer below the curve: accept. This
                // is the ~98.9% fast path — one integer compare, one
                // multiply, no transcendentals.
                return u_bits as f64 * t.x_scaled[i];
            }
            let x = u_bits as f64 * t.x_scaled[i];
            if i == 0 {
                if x < t.x[1] {
                    // Conservative integer threshold rejected a boundary
                    // point still left of R: it is under the curve.
                    return x;
                }
                // Base strip beyond R: the exponential tail is memoryless,
                // so return R + Exp(1) via the (rare) logarithm.
                let u2: f64 = rng.random::<f64>().max(U53);
                return R - u2.ln();
            }
            // Wedge between x[i+1] and x[i] (plus within-ulp boundary
            // spill from the integer fast path, which the test below
            // accepts unconditionally since e^(−x) > f[i+1] there):
            // accept under the curve.
            let u2: f64 = rng.random();
            let y = t.f[i] + u2 * (t.f[i + 1] - t.f[i]);
            if y < (-x).exp() {
                return x;
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        #[test]
        fn tables_are_monotone_and_closed() {
            let t = tables();
            for i in 0..256 {
                assert!(t.x[i] > t.x[i + 1], "x not decreasing at {i}");
                assert!(t.f[i] < t.f[i + 1], "f not increasing at {i}");
            }
            assert_eq!(t.x[256], 0.0);
            assert_eq!(t.f[256], 1.0);
            // The recurrence must close onto (0, 1) before clamping.
            assert!((t.f[255] + V / t.x[255] - 1.0).abs() < 1e-9);
        }

        #[test]
        fn exponential_moments_and_tail() {
            let mut rng = StdRng::seed_from_u64(0xE1);
            let n = 1_000_000usize;
            let (mut sum, mut sum2, mut over1, mut over_r) = (0.0, 0.0, 0usize, 0usize);
            for _ in 0..n {
                let e = sample(&mut rng);
                assert!(e >= 0.0);
                sum += e;
                sum2 += e * e;
                if e > 1.0 {
                    over1 += 1;
                }
                if e > R {
                    over_r += 1;
                }
            }
            let mean = sum / n as f64;
            let var = sum2 / n as f64 - mean * mean;
            assert!((mean - 1.0).abs() < 0.005, "mean = {mean}");
            assert!((var - 1.0).abs() < 0.02, "var = {var}");
            // P(E > 1) = e⁻¹; P(E > R) ≈ 4.5e-4: the tail branch is live.
            let p1 = over1 as f64 / n as f64;
            assert!((p1 - (-1.0f64).exp()).abs() < 0.002, "P(E>1) = {p1}");
            let pr = over_r as f64 / n as f64;
            assert!((pr - (-R).exp()).abs() < 2e-4, "P(E>R) = {pr}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, MeasRecord};
    use crate::dem::DemError;
    use crate::frame::FrameSim;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD531)
    }

    /// Three-qubit bit-flip repetition code, two rounds (mirrors the DEM
    /// extraction tests).
    fn repetition_circuit(p: f64) -> Circuit {
        let mut c = Circuit::new();
        c.r(&[0, 1, 2, 3, 4]);
        for round in 0..2 {
            c.x_error(&[0, 2, 4], p);
            c.cx(&[(0, 1), (2, 1), (2, 3), (4, 3)]);
            c.mr(&[1, 3]);
            if round == 0 {
                c.detector(&[MeasRecord::back(2)]);
                c.detector(&[MeasRecord::back(1)]);
            } else {
                c.detector(&[MeasRecord::back(2), MeasRecord::back(4)]);
                c.detector(&[MeasRecord::back(1), MeasRecord::back(3)]);
            }
        }
        c.m(&[0, 2, 4]);
        c.detector(&[
            MeasRecord::back(3),
            MeasRecord::back(2),
            MeasRecord::back(5),
        ]);
        c.detector(&[
            MeasRecord::back(2),
            MeasRecord::back(1),
            MeasRecord::back(4),
        ]);
        c.observable_include(0, &[MeasRecord::back(3)]);
        c
    }

    fn one_mechanism(detectors: Vec<u32>, observables: u64, p: f64) -> DetectorErrorModel {
        DetectorErrorModel {
            num_detectors: 6,
            num_observables: 1,
            errors: vec![DemError {
                probability: p,
                detectors,
                observables,
            }],
        }
    }

    #[test]
    fn certain_mechanism_fires_in_every_shot() {
        let sampler = DemSampler::new(&one_mechanism(vec![1, 4], 1, 1.0));
        let s = sampler.sample(100, &mut rng());
        for shot in 0..100 {
            assert_eq!(s.fired_detectors(shot), vec![1, 4]);
            assert_eq!(s.observable_mask(shot), 1);
        }
    }

    #[test]
    fn every_mechanism_injection_reproduces_its_footprint() {
        // Deterministic injection of each compiled mechanism must produce
        // exactly its detector/observable footprint, and sampling the same
        // mechanism at p = 1 must agree with injection.
        let dem = DetectorErrorModel::from_circuit(&repetition_circuit(1e-2));
        assert!(dem.len() >= 6, "expected a non-trivial model");
        let sampler = DemSampler::new(&dem);
        for i in 0..dem.len() {
            let (dets, obs) = (&dem.errors[i].detectors[..], dem.errors[i].observables);

            let mut out = DetectorSamples::default();
            out.reset(3, dem.num_detectors, dem.num_observables);
            sampler.inject_into(i, 2, &mut out);
            for shot in 0..2 {
                assert!(out.fired_detectors(shot).is_empty(), "mechanism {i}");
            }
            assert_eq!(out.fired_detectors(2), dets, "mechanism {i}");
            assert_eq!(out.observable_mask(2), obs, "mechanism {i}");

            // Double injection cancels (footprints XOR).
            sampler.inject_into(i, 2, &mut out);
            assert!(out.fired_detectors(2).is_empty(), "mechanism {i}");
            assert_eq!(out.observable_mask(2), 0, "mechanism {i}");
        }
    }

    #[test]
    fn mechanism_marginal_statistics() {
        let sampler = DemSampler::new(&one_mechanism(vec![0], 0, 0.1));
        let shots = 100_000;
        let s = sampler.sample(shots, &mut rng());
        let rate = (0..shots).filter(|&i| s.detector(i, 0)).count() as f64 / shots as f64;
        assert!((rate - 0.1).abs() < 0.005, "rate = {rate}");
    }

    #[test]
    fn marginals_match_frame_sampler_on_repetition_code() {
        // X/Z channels map to DEM mechanisms exactly (no depolarizing
        // approximation here), so per-detector marginals must agree within
        // Monte-Carlo error.
        let c = repetition_circuit(0.04);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = DemSampler::new(&dem);
        let shots = 200_000;
        let frame = FrameSim::sample(&c, shots, &mut rng());
        let dems = sampler.sample(shots, &mut StdRng::seed_from_u64(0x5EED));
        for d in 0..dem.num_detectors {
            let rf = (0..shots).filter(|&s| frame.detector(s, d)).count() as f64 / shots as f64;
            let rd = (0..shots).filter(|&s| dems.detector(s, d)).count() as f64 / shots as f64;
            assert!(
                (rf - rd).abs() < 0.005,
                "detector {d}: frame {rf} vs dem {rd}"
            );
        }
        let of = (0..shots)
            .filter(|&s| frame.observable_mask(s) != 0)
            .count() as f64
            / shots as f64;
        let od = (0..shots).filter(|&s| dems.observable_mask(s) != 0).count() as f64 / shots as f64;
        assert!(
            (of - od).abs() < 0.005,
            "observable: frame {of} vs dem {od}"
        );
    }

    #[test]
    fn syndrome_output_matches_detector_samples_output() {
        // Same RNG state → identical hit sequence, so the shot-major
        // writer (compiled word footprints, no transpose) must agree bit
        // for bit with the detector-major reference writer.
        let c = repetition_circuit(0.05);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = DemSampler::new(&dem);
        let shots = 1000;
        let dense = sampler.sample(shots, &mut rng());
        let mut syndromes = crate::frame::SyndromeBatch::default();
        let mut masks = Vec::new();
        sampler.sample_syndromes_into(shots, &mut rng(), &mut syndromes, &mut masks);
        assert_eq!(syndromes.num_shots(), shots);
        assert_eq!(syndromes.num_detectors(), dem.num_detectors);
        assert_eq!(masks.len(), shots);
        let mut fired = Vec::new();
        for (s, &mask) in masks.iter().enumerate() {
            syndromes.fired_into(s, &mut fired);
            assert_eq!(fired, dense.fired_detectors(s), "shot {s}");
            assert_eq!(mask, dense.observable_mask(s), "shot {s}");
        }
    }

    #[test]
    fn sample_into_reuses_buffers_and_resets_state() {
        let sampler = DemSampler::new(&one_mechanism(vec![2], 1, 1.0));
        let mut out = DetectorSamples::default();
        let mut r = rng();
        sampler.sample_into(128, &mut r, &mut out);
        assert_eq!(out.num_shots(), 128);
        // A second, smaller batch must not inherit stale bits or size.
        sampler.sample_into(64, &mut r, &mut out);
        assert_eq!(out.num_shots(), 64);
        for shot in 0..64 {
            assert_eq!(out.fired_detectors(shot), vec![2]);
            assert_eq!(out.observable_mask(shot), 1);
        }
    }

    #[test]
    #[should_panic(expected = "detector id 6 out of range")]
    fn out_of_range_detector_rejected_at_construction() {
        DemSampler::new(&one_mechanism(vec![6], 0, 0.1));
    }

    #[test]
    #[should_panic(expected = "observable mask")]
    fn out_of_range_observable_rejected_at_construction() {
        // Mask bit 1 with num_observables = 1: out of range.
        DemSampler::new(&one_mechanism(vec![0], 0b10, 0.1));
    }

    #[test]
    #[should_panic(expected = "at most 64 observables")]
    fn too_many_observables_rejected_at_construction() {
        let dem = DetectorErrorModel {
            num_detectors: 1,
            num_observables: 65,
            errors: Vec::new(),
        };
        DemSampler::new(&dem);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_rejected_at_construction() {
        DemSampler::new(&one_mechanism(vec![0], 0, 1.5));
    }

    #[test]
    fn empty_model_samples_silence() {
        let dem = DetectorErrorModel {
            num_detectors: 4,
            num_observables: 2,
            errors: Vec::new(),
        };
        let sampler = DemSampler::new(&dem);
        let s = sampler.sample(70, &mut rng());
        assert_eq!(s.num_detectors(), 4);
        assert_eq!(s.num_observables(), 2);
        for shot in 0..70 {
            assert!(s.fired_detectors(shot).is_empty());
            assert_eq!(s.observable_mask(shot), 0);
        }
    }
}
