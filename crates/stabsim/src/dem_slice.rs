//! DEM time-slicing and the streaming (windowed) sampler.
//!
//! Transversal architectures make decoding *deep*: the circuits the paper
//! cares about run for hundreds or thousands of syndrome-extraction rounds,
//! and the whole-batch sampling path materializes every detector of every
//! shot — O(rounds) resident memory per shot, which walls off exactly the
//! deep-circuit regime windowed decoding (paper §II.4) exists for.
//!
//! This module removes that wall in two steps:
//!
//! * `slice_dem_by_layer` partitions a [`DetectorErrorModel`]'s
//!   mechanisms by detector *time layer* (uniform blocks of
//!   `detectors_per_layer` detector indices, the layering the round-by-round
//!   circuit builders produce). Each mechanism is assigned to the layer of
//!   its **earliest** detector — boundary mechanisms that straddle rounds
//!   (e.g. measurement errors flipping the same comparison in two
//!   consecutive rounds) belong to the earliest window they touch.
//!   The slices are a partition: concatenated in slice order they
//!   reproduce the original mechanism list exactly (for canonically sorted
//!   models, byte-for-byte under [`crate::text::dem_to_text`]).
//! * [`StreamingDemSampler`] compiles one [`DemSampler`] per slice, with
//!   detector ids rebased to a rolling resident window of
//!   `max_layer_span + 1` layers, and emits one finalized layer of
//!   shot-major syndrome bits at a time: after slice `k` is sampled, no
//!   later slice can touch layer `k` (their mechanisms start strictly
//!   later), so layer `k`'s bits are final and the window rolls forward.
//!   Peak resident memory is O(window) per shot, **independent of circuit
//!   depth**, while reusing the geometric-skip Bernoulli walks of
//!   [`DemSampler`] unchanged.
//!
//! The sampler is deliberately seeding-agnostic: the caller provides one
//! RNG per layer (the Monte-Carlo pipeline derives per-layer streams from
//! its per-batch seeds), so the streaming and whole-batch entry points of
//! `raa_decode::mc` consume identical randomness and produce bit-identical
//! statistics.

use crate::dem::DetectorErrorModel;
use crate::dem_sampler::DemSampler;
use crate::frame::SyndromeBatch;
use rand::Rng;

/// Checks that `num_detectors` splits into uniform layers of
/// `detectors_per_layer`: the size must be at least 1 and divide the
/// detector count. A trailing partial layer means the size does not match
/// the circuit's round structure, and every detector after the mismatch
/// would land in the wrong layer.
///
/// # Errors
///
/// A human-readable description of the mismatch.
pub fn check_uniform_layers(
    num_detectors: usize,
    detectors_per_layer: usize,
) -> Result<(), String> {
    if detectors_per_layer == 0 {
        return Err("detectors_per_layer must be at least 1".into());
    }
    if !num_detectors.is_multiple_of(detectors_per_layer) {
        return Err(format!(
            "detector count {num_detectors} is not divisible by detectors_per_layer \
             {detectors_per_layer}: the uniform layering would silently misassign detectors"
        ));
    }
    Ok(())
}

/// Partitions `dem`'s mechanisms into one slice per time layer (uniform
/// layers of `detectors_per_layer` detector indices). Mechanism → slice of
/// its earliest detector; detector-free (observable-only) mechanisms go to
/// slice 0. Every slice keeps the full model's `num_detectors` /
/// `num_observables`, so each is a valid [`DetectorErrorModel`] on its own.
///
/// The partition is stable: concatenating the slices restores the
/// original mechanism list. For canonically ordered models (sorted by detector set,
/// as [`DetectorErrorModel::from_circuit`] produces), the earliest-detector
/// layer is monotone along the list, so each slice is a contiguous run.
///
/// # Panics
///
/// Panics on a layering that [`check_uniform_layers`] rejects.
pub(crate) fn slice_dem_by_layer(
    dem: &DetectorErrorModel,
    detectors_per_layer: usize,
) -> Vec<DetectorErrorModel> {
    if let Err(e) = check_uniform_layers(dem.num_detectors, detectors_per_layer) {
        panic!("{e}");
    }
    let num_layers = dem.num_detectors / detectors_per_layer;
    let mut slices: Vec<DetectorErrorModel> = (0..num_layers)
        .map(|_| DetectorErrorModel {
            num_detectors: dem.num_detectors,
            num_observables: dem.num_observables,
            errors: Vec::new(),
        })
        .collect();
    for e in dem.iter() {
        let layer = e
            .detectors
            .first()
            .map_or(0, |&d| d as usize / detectors_per_layer);
        assert!(
            layer < num_layers,
            "mechanism detector {:?} out of range for {} detectors",
            e.detectors,
            dem.num_detectors
        );
        slices[layer].errors.push(e.clone());
    }
    slices
}

/// Concatenates slices back into one model (the inverse of
/// [`slice_dem_by_layer`]): mechanisms appear in slice order, preserving
/// each slice's internal order.
///
/// # Panics
///
/// Panics if the slices disagree on detector/observable counts.
#[cfg(test)]
pub(crate) fn concat_slices(slices: &[DetectorErrorModel]) -> DetectorErrorModel {
    let mut out = DetectorErrorModel::default();
    for (i, s) in slices.iter().enumerate() {
        if i == 0 {
            out.num_detectors = s.num_detectors;
            out.num_observables = s.num_observables;
        } else {
            assert_eq!(
                (s.num_detectors, s.num_observables),
                (out.num_detectors, out.num_observables),
                "slice {i} disagrees on model shape"
            );
        }
        out.errors.extend(s.errors.iter().cloned());
    }
    out
}

/// Reusable per-batch state of a [`StreamingDemSampler`]: the rolling
/// resident window of syndrome bits plus the finalized-layer export
/// buffer. Peak size is `shots × window_detectors` bits — bounded by the
/// window, never by the circuit depth.
#[derive(Debug, Clone, Default)]
pub struct StreamingScratch {
    /// Rolling resident window: shot-major bits for the next
    /// `window_layers` layers, bit 0 = first detector of the next
    /// unfinalized layer.
    window: SyndromeBatch,
    /// The most recently finalized layer (local detector ids `0..dpl`).
    layer: SyndromeBatch,
    shots: usize,
    next_layer: usize,
}

impl StreamingScratch {
    /// The finalized layer emitted by the last
    /// [`StreamingDemSampler::sample_next_layer`] call: shot-major bits
    /// over layer-local detector ids `0..detectors_per_layer`.
    pub fn layer(&self) -> &SyndromeBatch {
        &self.layer
    }

    /// Detectors resident in the rolling window per shot — the streaming
    /// memory bound (equals [`StreamingDemSampler::window_detectors`] after
    /// [`StreamingDemSampler::start_batch`], independent of circuit depth).
    // raa-audit: allow(orphan-pub): deep_streaming.rs pins the streaming sampler's O(window) resident state with it.
    pub fn resident_detectors(&self) -> usize {
        self.window.num_detectors()
    }
}

/// A ring of the last `capacity` finalized layer bitplanes of a streaming
/// batch, with per-layer rebasing metadata: extraction adds each layer's
/// global detector-id base back, so consumers see full-circuit detector
/// ids. This is what lets a window-major decode loop revisit the shot-major
/// bits of every layer in an open window after the sampler has already
/// rolled past them — resident memory stays `capacity × shots × dpl` bits,
/// bounded by the window, never the circuit depth.
#[derive(Debug, Clone, Default)]
pub struct LayerRing {
    /// `slots[l % capacity]` holds layer `l`'s shot-major bitplane.
    slots: Vec<SyndromeBatch>,
    capacity: usize,
    /// Layers `stored - min(stored, capacity) .. stored` are resident.
    stored: usize,
    detectors_per_layer: usize,
}

impl LayerRing {
    /// Clears the ring for a new batch retaining `capacity` layers of
    /// `detectors_per_layer` detectors each (allocations are reused).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize, detectors_per_layer: usize) {
        assert!(capacity >= 1, "ring must retain at least one layer");
        if self.slots.len() < capacity {
            self.slots.resize_with(capacity, SyndromeBatch::default);
        }
        self.capacity = capacity;
        self.stored = 0;
        self.detectors_per_layer = detectors_per_layer;
    }

    /// Stores the next finalized layer's bitplane (layers must arrive in
    /// order `0, 1, 2, …`), evicting the layer `capacity` steps back.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of order.
    pub fn store(&mut self, layer: usize, bits: &SyndromeBatch) {
        assert_eq!(layer, self.stored, "layers must be stored in order");
        self.slots[layer % self.capacity].clone_from(bits);
        self.stored = layer + 1;
    }

    /// Appends shot `s`'s fired detectors of layers `lo..hi` to `out`,
    /// rebased to full-circuit detector ids (`layer × dpl + local`),
    /// ascending. `scratch` is a reusable per-layer extraction buffer.
    ///
    /// # Panics
    ///
    /// Panics if any requested layer is not resident (not yet stored, or
    /// already evicted).
    pub fn extract_into(
        &self,
        s: usize,
        lo: usize,
        hi: usize,
        scratch: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) {
        assert!(
            hi <= self.stored && self.stored - lo <= self.capacity,
            "layers {lo}..{hi} not resident (stored {}, capacity {})",
            self.stored,
            self.capacity
        );
        for l in lo..hi {
            self.slots[l % self.capacity].fired_into(s, scratch);
            let base = (l * self.detectors_per_layer) as u32;
            out.extend(scratch.iter().map(|&d| d + base));
        }
    }
}

/// A detector error model compiled for **streaming** Monte-Carlo sampling:
/// one compiled [`DemSampler`] per time slice, emitting one finalized layer
/// of shot-major syndrome bits at a time with O(window) resident memory.
///
/// See the [module docs](self) for the slicing semantics. Layers must be
/// sampled in order ([`StreamingDemSampler::sample_next_layer`]), each from
/// a caller-provided RNG; the whole-batch reference entry point
/// ([`StreamingDemSampler::sample_all_into`]) drives the identical
/// machinery, so for the same per-layer RNGs the two produce identical
/// bits.
///
/// # Example
///
/// ```
/// use raa_stabsim::{Circuit, MeasRecord, DetectorErrorModel, StreamingDemSampler,
///                   StreamingScratch};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // Two rounds of one detector each; the X error flips only round 0.
/// let mut c = Circuit::new();
/// c.r(&[0]);
/// c.x_error(&[0], 0.25);
/// c.mr(&[0]);
/// c.detector(&[MeasRecord::back(1)]);
/// c.mr(&[0]);
/// c.detector(&[MeasRecord::back(1)]);
///
/// let dem = DetectorErrorModel::from_circuit(&c);
/// let sampler = StreamingDemSampler::new(&dem, 1);
/// assert_eq!(sampler.num_layers(), 2);
///
/// let mut scratch = StreamingScratch::default();
/// let mut obs = vec![0u64; 1000];
/// sampler.start_batch(1000, &mut scratch);
/// let (mut fired, mut dets) = (0, Vec::new());
/// for layer in 0..sampler.num_layers() {
///     let mut rng = StdRng::seed_from_u64(layer as u64);
///     sampler.sample_next_layer(&mut rng, &mut scratch, &mut obs);
///     fired += (0..1000)
///         .filter(|&s| {
///             scratch.layer().fired_into(s, &mut dets);
///             !dets.is_empty()
///         })
///         .count();
///     if layer == 0 {
///         let rate = fired as f64 / 1000.0;
///         assert!((rate - 0.25).abs() < 0.05);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDemSampler {
    detectors_per_layer: usize,
    num_layers: usize,
    num_detectors: usize,
    /// Layers resident at once: `max_layer_span + 1`.
    window_layers: usize,
    /// Per-layer compiled samplers, detector ids rebased to the rolling
    /// window (mechanism of slice `k`: id `d` becomes `d - k·dpl`).
    slices: Vec<DemSampler>,
}

impl StreamingDemSampler {
    /// Compiles `dem` for streaming over uniform layers of
    /// `detectors_per_layer` detectors.
    ///
    /// # Panics
    ///
    /// Panics if the model has no detectors, if [`check_uniform_layers`]
    /// rejects the layering, or on any
    /// model [`DemSampler::new`] rejects.
    pub fn new(dem: &DetectorErrorModel, detectors_per_layer: usize) -> Self {
        assert!(
            dem.num_detectors > 0,
            "streaming needs at least one detector layer"
        );
        let sliced = slice_dem_by_layer(dem, detectors_per_layer);
        let num_layers = sliced.len();
        // Maximum time extent of a mechanism, in layers: how far a slice's
        // footprint can spill past its own layer.
        let mut span = 0usize;
        for e in dem.iter() {
            if let (Some(&first), Some(&last)) = (e.detectors.first(), e.detectors.last()) {
                span = span.max(
                    last as usize / detectors_per_layer - first as usize / detectors_per_layer,
                );
            }
        }
        let window_layers = (span + 1).min(num_layers);
        let window_detectors = window_layers * detectors_per_layer;
        let slices = sliced
            .into_iter()
            .enumerate()
            .map(|(k, mut slice)| {
                let base = (k * detectors_per_layer) as u32;
                for e in &mut slice.errors {
                    for d in &mut e.detectors {
                        *d -= base;
                    }
                }
                slice.num_detectors = window_detectors;
                DemSampler::new(&slice)
            })
            .collect();
        Self {
            detectors_per_layer,
            num_layers,
            num_detectors: dem.num_detectors,
            window_layers,
            slices,
        }
    }

    /// Detectors per time layer.
    pub fn detectors_per_layer(&self) -> usize {
        self.detectors_per_layer
    }

    /// Number of time layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Total detectors of the underlying model.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Layers resident at once (`max mechanism layer span + 1`).
    // raa-audit: allow(orphan-pub): deep_streaming.rs pins the streaming sampler's O(window) resident state with it.
    pub fn window_layers(&self) -> usize {
        self.window_layers
    }

    /// Detectors resident per shot while streaming — the memory bound,
    /// independent of `num_layers`.
    // raa-audit: allow(orphan-pub): deep_streaming.rs pins the streaming sampler's O(window) resident state with it.
    pub fn window_detectors(&self) -> usize {
        self.window_layers * self.detectors_per_layer
    }

    /// Begins a streaming batch of `shots` shots, resetting `scratch`'s
    /// rolling window (reusing its allocations).
    pub fn start_batch(&self, shots: usize, scratch: &mut StreamingScratch) {
        scratch.shots = shots;
        scratch.next_layer = 0;
        scratch.window.reset(shots, self.window_detectors());
        scratch.layer.reset(shots, self.detectors_per_layer);
    }

    /// Samples the next time layer's slice from `rng` and finalizes that
    /// layer: its shot-major bits land in `scratch.layer()` (layer-local
    /// detector ids), per-shot observable flips XOR into `obs_masks`, and
    /// the resident window rolls forward one layer. Returns the finalized
    /// layer's index; absolute detector ids are
    /// `layer · detectors_per_layer + local`.
    ///
    /// # Panics
    ///
    /// Panics if every layer of the batch was already sampled or if
    /// `obs_masks` is not one entry per shot.
    pub fn sample_next_layer<R: Rng>(
        &self,
        rng: &mut R,
        scratch: &mut StreamingScratch,
        obs_masks: &mut [u64],
    ) -> usize {
        let k = scratch.next_layer;
        assert!(
            k < self.num_layers,
            "all {} layers of this batch already sampled",
            self.num_layers
        );
        self.slices[k].sample_syndromes_accumulate(
            scratch.shots,
            rng,
            &mut scratch.window,
            obs_masks,
        );
        // Export the finalized layer: the low `dpl` bits of each resident
        // row (no later slice can flip them — their mechanisms start in
        // strictly later layers).
        let dpl = self.detectors_per_layer;
        let layer_words = dpl.div_ceil(64);
        let top_mask = if dpl.is_multiple_of(64) {
            !0u64
        } else {
            (1u64 << (dpl % 64)) - 1
        };
        scratch.layer.reset(scratch.shots, dpl);
        {
            let (win, wps) = scratch.window.rows();
            let (out, ops) = scratch.layer.rows_mut();
            debug_assert_eq!(ops, layer_words);
            for s in 0..scratch.shots {
                let src = &win[s * wps..s * wps + layer_words];
                let dst = &mut out[s * ops..(s + 1) * ops];
                dst.copy_from_slice(src);
                dst[layer_words - 1] &= top_mask;
            }
        }
        scratch.window.shift_rows_down(dpl);
        scratch.next_layer = k + 1;
        k
    }

    /// Whole-batch reference entry point: samples every layer in order
    /// (layer `k` from `layer_rng(k)`) and materializes the full
    /// `shots × num_detectors` [`SyndromeBatch`] plus per-shot observable
    /// masks — the same layout [`DemSampler::sample_syndromes_into`]
    /// produces. Drives the identical per-layer machinery as
    /// [`StreamingDemSampler::sample_next_layer`], so for the same
    /// per-layer RNGs the bits are identical to a streamed run.
    pub fn sample_all_into<R: Rng>(
        &self,
        shots: usize,
        mut layer_rng: impl FnMut(usize) -> R,
        scratch: &mut StreamingScratch,
        syndromes: &mut SyndromeBatch,
        obs_masks: &mut Vec<u64>,
    ) {
        syndromes.reset(shots, self.num_detectors);
        obs_masks.clear();
        obs_masks.resize(shots, 0);
        self.start_batch(shots, scratch);
        let dpl = self.detectors_per_layer;
        let layer_words = dpl.div_ceil(64);
        for layer in 0..self.num_layers {
            let mut rng = layer_rng(layer);
            self.sample_next_layer(&mut rng, scratch, obs_masks);
            // OR the finalized layer into the full batch at its absolute
            // bit offset.
            let base_bit = layer * dpl;
            let (src, sps) = scratch.layer.rows();
            let (dst, dps) = syndromes.rows_mut();
            let (skip, rot) = (base_bit / 64, base_bit % 64);
            for s in 0..shots {
                let row = &src[s * sps..s * sps + layer_words];
                let out = &mut dst[s * dps..(s + 1) * dps];
                for (i, &w) in row.iter().enumerate() {
                    if w == 0 {
                        continue;
                    }
                    out[skip + i] |= w << rot;
                    if rot != 0 && skip + i + 1 < dps {
                        out[skip + i + 1] |= w >> (64 - rot);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, MeasRecord};
    use crate::dem_sampler::DemSampler;
    use crate::text::dem_to_text;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// d-bit repetition-code memory: (d-1) detectors per round, plus a
    /// final comparison layer of (d-1) — uniformly layered.
    fn repetition(d: usize, rounds: usize, p: f64) -> Circuit {
        let n_anc = d - 1;
        let data: Vec<u32> = (0..d as u32).map(|i| 2 * i).collect();
        let anc: Vec<u32> = (0..n_anc as u32).map(|i| 2 * i + 1).collect();
        let mut c = Circuit::new();
        c.r(&(0..(d + n_anc) as u32).collect::<Vec<_>>());
        for round in 0..rounds {
            c.x_error(&data, p);
            let pairs: Vec<(u32, u32)> = (0..n_anc)
                .flat_map(|i| [(data[i], anc[i]), (data[i + 1], anc[i])])
                .collect();
            c.cx(&pairs);
            c.mr(&anc);
            for i in 0..n_anc {
                if round == 0 {
                    c.detector(&[MeasRecord::back(n_anc - i)]);
                } else {
                    c.detector(&[MeasRecord::back(n_anc - i), MeasRecord::back(2 * n_anc - i)]);
                }
            }
        }
        c.m(&data);
        for i in 0..n_anc {
            c.detector(&[
                MeasRecord::back(d - i),
                MeasRecord::back(d - i - 1),
                MeasRecord::back(d + n_anc - i),
            ]);
        }
        c.observable_include(0, &[MeasRecord::back(d)]);
        c
    }

    #[test]
    fn slices_partition_and_concatenate_byte_for_byte() {
        let dem = DetectorErrorModel::from_circuit(&repetition(5, 6, 1e-2));
        let dpl = 4;
        let slices = slice_dem_by_layer(&dem, dpl);
        assert_eq!(slices.len(), dem.num_detectors / dpl);
        let total: usize = slices.iter().map(|s| s.len()).sum();
        assert_eq!(total, dem.len());
        // Earliest-detector assignment.
        for (k, s) in slices.iter().enumerate() {
            for e in s.iter() {
                let first = e.detectors.first().map_or(0, |&d| d as usize / dpl);
                assert_eq!(first, k);
            }
        }
        // from_circuit output is canonically sorted, so concatenation is
        // byte-for-byte the original model.
        assert_eq!(dem_to_text(&concat_slices(&slices)), dem_to_text(&dem));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn slicing_rejects_non_divisible_layering() {
        let dem = DetectorErrorModel::from_circuit(&repetition(5, 6, 1e-2));
        slice_dem_by_layer(&dem, 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn slicing_rejects_zero_layer_size() {
        let dem = DetectorErrorModel::from_circuit(&repetition(3, 2, 1e-2));
        slice_dem_by_layer(&dem, 0);
    }

    #[test]
    fn streamed_bits_match_unrebased_slice_reference() {
        // The rolling-window path (rebased footprints + layer export +
        // shift) must reproduce, bit for bit, a reference that samples each
        // slice at full width with the same RNGs.
        let dem = DetectorErrorModel::from_circuit(&repetition(5, 8, 3e-2));
        let dpl = 4;
        let shots = 300;
        let sampler = StreamingDemSampler::new(&dem, dpl);
        assert_eq!(sampler.num_layers(), dem.num_detectors / dpl);

        // Reference: per-slice full-width samplers, same per-layer seeds.
        let slices = slice_dem_by_layer(&dem, dpl);
        let mut ref_batch = SyndromeBatch::default();
        ref_batch.reset(shots, dem.num_detectors);
        let mut ref_obs = vec![0u64; shots];
        for (k, slice) in slices.iter().enumerate() {
            let s = DemSampler::new(slice);
            let mut rng = StdRng::seed_from_u64(1000 + k as u64);
            let mut part = SyndromeBatch::default();
            let mut part_obs = Vec::new();
            s.sample_syndromes_into(shots, &mut rng, &mut part, &mut part_obs);
            let mut fired = Vec::new();
            for shot in 0..shots {
                part.fired_into(shot, &mut fired);
                for &d in &fired {
                    ref_batch.set_detector(shot, d as usize);
                }
                ref_obs[shot] ^= part_obs[shot];
            }
        }

        let mut scratch = StreamingScratch::default();
        let mut got = SyndromeBatch::default();
        let mut got_obs = Vec::new();
        sampler.sample_all_into(
            shots,
            |k| StdRng::seed_from_u64(1000 + k as u64),
            &mut scratch,
            &mut got,
            &mut got_obs,
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for shot in 0..shots {
            got.fired_into(shot, &mut a);
            ref_batch.fired_into(shot, &mut b);
            assert_eq!(a, b, "shot {shot}");
            assert_eq!(got_obs[shot], ref_obs[shot], "shot {shot}");
        }
        // This workload fires: the comparison is not vacuous.
        assert!(
            got_obs.iter().any(|&m| m != 0) || {
                let mut any = false;
                for shot in 0..shots {
                    got.fired_into(shot, &mut a);
                    any |= !a.is_empty();
                }
                any
            }
        );
    }

    #[test]
    fn streaming_matches_layer_by_layer_drive() {
        // Driving sample_next_layer by hand must equal sample_all_into for
        // the same per-layer RNGs (the streamed-vs-batch mc guarantee).
        let dem = DetectorErrorModel::from_circuit(&repetition(3, 10, 5e-2));
        let dpl = 2;
        let shots = 200;
        let sampler = StreamingDemSampler::new(&dem, dpl);
        let mut scratch = StreamingScratch::default();
        let mut whole = SyndromeBatch::default();
        let mut whole_obs = Vec::new();
        sampler.sample_all_into(
            shots,
            |k| StdRng::seed_from_u64(7 + k as u64),
            &mut scratch,
            &mut whole,
            &mut whole_obs,
        );

        let mut obs = vec![0u64; shots];
        sampler.start_batch(shots, &mut scratch);
        let mut streamed: Vec<Vec<u32>> = vec![Vec::new(); shots];
        for layer in 0..sampler.num_layers() {
            let mut rng = StdRng::seed_from_u64(7 + layer as u64);
            sampler.sample_next_layer(&mut rng, &mut scratch, &mut obs);
            let mut fired = Vec::new();
            for (s, shot_stream) in streamed.iter_mut().enumerate() {
                scratch.layer().fired_into(s, &mut fired);
                shot_stream.extend(fired.iter().map(|&d| d + (layer * dpl) as u32));
            }
        }
        let mut whole_fired = Vec::new();
        for s in 0..shots {
            whole.fired_into(s, &mut whole_fired);
            assert_eq!(streamed[s], whole_fired, "shot {s}");
            assert_eq!(obs[s], whole_obs[s], "shot {s}");
        }
    }

    #[test]
    fn window_is_bounded_and_depth_independent() {
        let shallow = DetectorErrorModel::from_circuit(&repetition(3, 10, 1e-3));
        let deep = DetectorErrorModel::from_circuit(&repetition(3, 200, 1e-3));
        let a = StreamingDemSampler::new(&shallow, 2);
        let b = StreamingDemSampler::new(&deep, 2);
        assert_eq!(a.window_detectors(), b.window_detectors());
        assert!(b.window_detectors() < b.num_detectors() / 10);
        let mut scratch = StreamingScratch::default();
        b.start_batch(64, &mut scratch);
        assert_eq!(scratch.resident_detectors(), b.window_detectors());
    }

    mod round_trip {
        use super::super::*;
        use crate::dem::DemError;
        use crate::text::dem_to_text;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// Slicing any canonically ordered model and concatenating the
            /// slices reproduces the original mechanism list — detectors,
            /// observables and probabilities byte-for-byte under
            /// `dem_to_text`.
            #[test]
            fn slice_then_concat_is_identity(
                dpl in 1usize..5,
                num_layers in 1usize..7,
                raw in proptest::collection::vec(
                    (
                        proptest::collection::btree_set(0u32..64, 0..5),
                        0u64..16,
                        0.0f64..1.0,
                    ),
                    0..40,
                ),
            ) {
                let nd = dpl * num_layers;
                let mut errors: Vec<DemError> = raw
                    .into_iter()
                    .map(|(dets, observables, probability)| DemError {
                        probability,
                        detectors: dets
                            .into_iter()
                            .map(|d| d % nd as u32)
                            .collect::<BTreeSet<u32>>()
                            .into_iter()
                            .collect(),
                        observables,
                    })
                    .collect();
                // Canonical model order (what `from_circuit` produces).
                errors.sort_by(|a, b| {
                    a.detectors
                        .cmp(&b.detectors)
                        .then(a.observables.cmp(&b.observables))
                });
                let dem = DetectorErrorModel {
                    num_detectors: nd,
                    num_observables: 4,
                    errors,
                };
                let slices = slice_dem_by_layer(&dem, dpl);
                prop_assert_eq!(slices.len(), num_layers);
                let total: usize = slices.iter().map(|s| s.len()).sum();
                prop_assert_eq!(total, dem.len());
                for (k, s) in slices.iter().enumerate() {
                    for e in s.iter() {
                        let earliest =
                            e.detectors.first().map_or(0, |&d| d as usize / dpl);
                        prop_assert_eq!(earliest, k);
                    }
                }
                prop_assert_eq!(
                    dem_to_text(&concat_slices(&slices)),
                    dem_to_text(&dem)
                );
            }
        }
    }

    #[test]
    fn observable_only_mechanisms_land_in_slice_zero() {
        use crate::dem::DemError;
        let dem = DetectorErrorModel {
            num_detectors: 4,
            num_observables: 1,
            errors: vec![
                DemError {
                    probability: 0.5,
                    detectors: vec![],
                    observables: 1,
                },
                DemError {
                    probability: 0.1,
                    detectors: vec![2],
                    observables: 0,
                },
            ],
        };
        let slices = slice_dem_by_layer(&dem, 2);
        assert_eq!(slices[0].len(), 1);
        assert_eq!(slices[1].len(), 1);
        let sampler = StreamingDemSampler::new(&dem, 2);
        let mut scratch = StreamingScratch::default();
        let mut obs = vec![0u64; 2000];
        sampler.start_batch(2000, &mut scratch);
        let mut rng = StdRng::seed_from_u64(3);
        sampler.sample_next_layer(&mut rng, &mut scratch, &mut obs);
        let flips = obs.iter().filter(|&&m| m != 0).count();
        assert!(
            (flips as f64 / 2000.0 - 0.5).abs() < 0.05,
            "observable-only mechanism must fire in slice 0: {flips}"
        );
    }
}
