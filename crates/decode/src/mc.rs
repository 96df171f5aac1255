//! Monte-Carlo logical-error-rate estimation: sample, decode, compare.
//!
//! Two estimators share one batch runner. [`logical_error_rate_sampled`]
//! draws whole batches through any [`Sampler`] and decodes them with any
//! [`Decoder`]; [`logical_error_rate_streamed`] samples a time-sliced DEM
//! one layer at a time into per-shot windowed decode sessions, so its
//! resident syndrome memory is bounded by the window, not the circuit
//! depth. Both spend a [`ShotBudget`]: a fixed shot count (a plain `usize`
//! converts to one) or a deterministic early stop at a failure target.
//!
//! The runner shards the budget into batches of 256 shots. Batch `i`
//! samples from its own RNG stream, seeded by [`mix_seed`]`(seed, i)`;
//! batches are decoded in parallel with one worker state per thread, and
//! per-batch statistics are merged in batch order. The batch stays the
//! unit of seeding and of the early-stop prefix, but a round with fewer
//! batches than threads splits each batch into contiguous shot ranges, one
//! per part, so a small estimate still uses every thread: each part
//! re-draws its whole batch from the batch's stream and decodes only its
//! range, and the parts' statistics are summed per batch before the merge.
//! No shot's outcome depends on the part or thread that decodes it, so for
//! a given seed, sampler and budget the returned [`DecodeStats`] are
//! **bit-identical regardless of thread count** — and the thread count is
//! all that [`McConfig`] holds.
//!
//! Inside a batch the pipeline is allocation-free in steady state: shots
//! are drawn through a [`Sampler`] straight into the per-worker shot-major
//! buffers (a [`SyndromeBatch`] of detector bits plus one packed
//! observable mask per shot — [`DemSampler`] writes them natively;
//! [`CircuitSampler`] simulates into a detector-major
//! [`DetectorSamples`] scratch and transposes), and the whole batch is
//! decoded through [`Decoder::predict_batch_into`] with a per-worker
//! scratch (a part of a split batch decodes its range shot by shot through
//! [`Decoder::predict_into`]).
//!
//! Two samplers are provided: [`CircuitSampler`] re-simulates the circuit
//! through the Pauli-frame simulator (cost ∝ circuit ops × qubits per
//! batch), while [`DemSampler`] samples a precompiled detector error model
//! directly (cost ∝ mechanisms + hits) — the fast path for deep
//! below-threshold estimates, where it is typically an order of magnitude
//! faster. Both draw from the same per-batch RNG streams, so each keeps
//! the bit-identical-across-thread-counts guarantee (though the two
//! samplers' streams — and, for depolarizing channels, their exact
//! distributions — differ from each other).

use crate::windowed::{LayerAssignment, WindowScratch, WindowState, WindowedDecoder};
use crate::Decoder;
use raa_stabsim::{
    Circuit, DemSampler, DetectorSamples, FrameSim, LayerRing, StreamingDemSampler,
    StreamingScratch, SyndromeBatch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shots per batch: the unit of seeding and of the early-stop prefix, and
/// of parallel work while a round has at least as many batches as threads.
/// Large enough to amortize per-batch sampling setup. Every result depends
/// on it, so it is fixed.
const BATCH: usize = 256;

/// Why a Monte-Carlo estimate could not run.
///
/// The estimators themselves are deterministic data processing — the only
/// fallible setup step is building the worker thread pool when the caller
/// pins an explicit thread count. Surfacing that as a typed error (instead
/// of the panic it used to be) lets long-running services (`raa-sweepd`)
/// fail the one job with the bad configuration rather than losing the
/// worker process.
#[derive(Debug)]
pub enum McError {
    /// Building the per-call decode thread pool failed (bad or unsupported
    /// thread-count configuration, or thread spawn failure).
    PoolBuild {
        /// The requested worker thread count.
        requested: usize,
        /// The pool builder's error.
        detail: String,
    },
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::PoolBuild { requested, detail } => write!(
                f,
                "building the decode thread pool ({requested} threads) failed: {detail}"
            ),
        }
    }
}

impl std::error::Error for McError {}

/// A source of decoder-ready samples for the Monte-Carlo pipeline.
///
/// Implementations draw `shots` shots directly into the pipeline's native
/// shot-major form — a [`SyndromeBatch`] of detector bits plus one packed
/// observable mask per shot — reusing the caller's buffers and any
/// per-worker state in `Scratch`, so the steady-state batch loop performs
/// no heap allocation. For a fixed RNG stream the output must be
/// deterministic — the pipeline's thread-count-independence guarantee
/// samples each batch from its own derived stream.
pub trait Sampler: Sync {
    /// Per-worker reusable sampling state (e.g. frame-simulator buffers).
    type Scratch: Default + Send;

    /// Samples `shots` shots into `syndromes` + `obs_masks` (one packed
    /// mask per shot), reusing `scratch` and the output buffers.
    fn sample_into(
        &self,
        shots: usize,
        rng: &mut StdRng,
        scratch: &mut Self::Scratch,
        syndromes: &mut SyndromeBatch,
        obs_masks: &mut Vec<u64>,
    );

    /// A block size in which chunked sampling would reproduce whole-batch
    /// sampling bit for bit, or `None`.
    ///
    /// The Monte-Carlo harness does not read it: every batch is sampled in
    /// one [`Sampler::sample_into`] call and then decoded. The method stays
    /// in the trait, with this `None` default, because `Sampler` wrappers
    /// outside this crate delegate it to the sampler they wrap.
    fn fusion_block(&self) -> Option<usize> {
        None
    }
}

/// Samples by re-simulating the circuit through [`FrameSim`] — the
/// historical gate-level path, exact for all channels. The frame
/// simulator produces detector-major planes, so this path pays a 64×64
/// block transpose per batch on top of the gate sweep.
#[derive(Debug, Clone, Copy)]
pub struct CircuitSampler<'c> {
    circuit: &'c Circuit,
}

impl<'c> CircuitSampler<'c> {
    /// A sampler re-simulating `circuit` per batch.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self { circuit }
    }
}

/// Reusable gate-level sampling state: the frame simulator's qubit planes
/// plus the detector-major intermediate the transpose reads from.
#[derive(Default)]
pub struct CircuitSamplerScratch {
    sim: FrameSim,
    samples: DetectorSamples,
}

impl Sampler for CircuitSampler<'_> {
    type Scratch = CircuitSamplerScratch;

    fn sample_into(
        &self,
        shots: usize,
        rng: &mut StdRng,
        scratch: &mut CircuitSamplerScratch,
        syndromes: &mut SyndromeBatch,
        obs_masks: &mut Vec<u64>,
    ) {
        scratch
            .sim
            .sample_into(self.circuit, shots, rng, &mut scratch.samples);
        scratch.samples.transpose_detectors_into(syndromes);
        scratch.samples.observable_masks_into(obs_masks);
    }
}

impl Sampler for DemSampler {
    type Scratch = ();

    fn sample_into(
        &self,
        shots: usize,
        rng: &mut StdRng,
        _scratch: &mut (),
        syndromes: &mut SyndromeBatch,
        obs_masks: &mut Vec<u64>,
    ) {
        self.sample_syndromes_into(shots, rng, syndromes, obs_masks);
    }
}

/// The time-sliced sampler as a whole-batch [`Sampler`]: materializes every
/// layer of the batch (per-layer RNG streams derived from one draw off the
/// batch stream). This is the **batch reference entry point** for the
/// streaming pipeline — [`logical_error_rate_streamed`] derives the
/// identical per-layer streams, so the two produce bit-identical
/// [`DecodeStats`] while this path spends O(circuit) memory and the
/// streamed path O(window).
impl Sampler for StreamingDemSampler {
    type Scratch = StreamingScratch;

    fn sample_into(
        &self,
        shots: usize,
        rng: &mut StdRng,
        scratch: &mut StreamingScratch,
        syndromes: &mut SyndromeBatch,
        obs_masks: &mut Vec<u64>,
    ) {
        let base = rng.random::<u64>();
        self.sample_all_into(
            shots,
            |layer| StdRng::seed_from_u64(mix_seed(base, layer as u64)),
            scratch,
            syndromes,
            obs_masks,
        );
    }
}

/// Accumulated decoding statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Number of shots decoded.
    pub shots: usize,
    /// Shots where the predicted observable mask differed from the actual one.
    pub failures: usize,
}

impl DecodeStats {
    /// The logical error rate estimate (failures / shots).
    #[cfg(test)]
    pub(crate) fn logical_error_rate(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }

    /// Binomial standard error of the estimate.
    #[cfg(test)]
    pub(crate) fn standard_error(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let p = self.logical_error_rate();
        (p * (1.0 - p) / self.shots as f64).sqrt()
    }

    /// Merges another batch of statistics into this one.
    pub(crate) fn merge(&mut self, other: DecodeStats) {
        self.shots += other.shots;
        self.failures += other.failures;
    }
}

/// How many shots to spend on one estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShotBudget {
    /// Decode exactly this many shots.
    Fixed(usize),
    /// Decode until `target_failures` failures, capped at `max_shots`.
    ///
    /// The stop is deterministic: the result covers exactly the batch
    /// prefix `0..=B`, where `B` is the first batch at which the
    /// cumulative failure count reaches the target (or every batch if it
    /// never does), so a nonzero `max_shots` always decodes one batch.
    UntilFailures {
        /// Hard cap on shots.
        max_shots: usize,
        /// Failure count that stops the run.
        target_failures: usize,
    },
}

impl From<usize> for ShotBudget {
    /// A plain shot count is a [`ShotBudget::Fixed`] budget.
    fn from(shots: usize) -> Self {
        ShotBudget::Fixed(shots)
    }
}

/// Configuration for the Monte-Carlo estimators: only where they run.
/// No setting here can change a result.
#[derive(Debug, Clone, Default)]
pub struct McConfig {
    /// Worker threads; `0` (the default) means rayon's default (all cores).
    pub threads: usize,
}

impl McConfig {
    /// A config decoding serially on the calling thread.
    pub fn single_threaded() -> Self {
        Self { threads: 1 }
    }

    /// Sets the worker thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// SplitMix64-style mix of a base seed and a stream index into an
/// independent stream seed. Used for the per-batch RNG streams here and
/// shared with the experiment engine's spec/point seed derivation
/// (`raa-sim`), so there is exactly one seed-splitting construction in the
/// stack.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Per-worker pipeline state: sampler scratch, decoder scratch and the
/// shot-major sample buffers — everything reused batch to batch, so
/// steady state performs no heap allocation.
struct Worker<S: Sampler, D: Decoder> {
    sampler_scratch: S::Scratch,
    scratch: D::Scratch,
    syndromes: SyndromeBatch,
    obs_masks: Vec<u64>,
    predicted: Vec<u64>,
    defects: Vec<u32>,
}

impl<S: Sampler, D: Decoder> Worker<S, D> {
    fn new() -> Self {
        Self {
            sampler_scratch: S::Scratch::default(),
            scratch: D::Scratch::default(),
            syndromes: SyndromeBatch::default(),
            obs_masks: Vec::new(),
            predicted: Vec::new(),
            defects: Vec::new(),
        }
    }

    /// Samples one batch of `len` shots, then decodes the shots in `shots`:
    /// a whole batch in one [`Decoder::predict_batch_into`] call, a part of
    /// one shot by shot.
    fn decode_batch(
        &mut self,
        sampler: &S,
        decoder: &D,
        len: usize,
        shots: Range<usize>,
        rng: &mut StdRng,
    ) -> DecodeStats {
        sampler.sample_into(
            len,
            rng,
            &mut self.sampler_scratch,
            &mut self.syndromes,
            &mut self.obs_masks,
        );
        if shots.len() == len {
            decoder.predict_batch_into(&self.syndromes, &mut self.predicted, &mut self.scratch);
        } else {
            self.predicted.clear();
            for s in shots.clone() {
                self.syndromes.fired_into(s, &mut self.defects);
                let predicted = decoder.predict_into(&self.defects, &mut self.scratch);
                self.predicted.push(predicted);
            }
        }
        let failures = self.predicted[..shots.len()]
            .iter()
            .zip(&self.obs_masks[shots.clone()])
            .filter(|(predicted, actual)| predicted != actual)
            .count();
        DecodeStats {
            shots: shots.len(),
            failures,
        }
    }
}

/// Runs `f` on the ambient rayon pool (`threads == 0`) or on an explicitly
/// sized pool. Building a pool per call is only paid when the caller pins a
/// thread count — with real rayon that spawns OS threads, which would
/// otherwise dominate small estimates issued in a loop. A pool-build
/// failure is returned as [`McError::PoolBuild`] instead of panicking, so
/// a bad thread-count configuration fails one estimate, not the process.
fn run_on_pool<T>(threads: usize, f: impl FnOnce() -> T + Send) -> Result<T, McError>
where
    T: Send,
{
    if threads == 0 {
        Ok(f())
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| McError::PoolBuild {
                requested: threads,
                detail: e.to_string(),
            })?;
        Ok(pool.install(f))
    }
}

/// Estimates the logical error rate of the circuit behind `sampler` under
/// `decoder`, spending `budget` (a shot count, or a [`ShotBudget`]) with
/// base seed `seed`.
///
/// Pass a [`CircuitSampler`] for gate-level re-simulation or a
/// [`DemSampler`] (compiled from the circuit's DEM) for the fast
/// precompiled path. For a given seed, sampler and budget the result is
/// identical for any `cfg.threads`.
///
/// # Errors
///
/// Returns [`McError::PoolBuild`] if `cfg.threads > 0` and the worker pool
/// cannot be built.
///
/// # Example
///
/// ```
/// use raa_stabsim::{Circuit, MeasRecord, DetectorErrorModel};
/// use raa_decode::{graph::DecodingGraph, unionfind::UnionFindDecoder};
/// use raa_decode::mc::{self, CircuitSampler, McConfig, ShotBudget};
///
/// let mut c = Circuit::new();
/// c.r(&[0, 1, 2, 3, 4]);
/// c.x_error(&[0, 2, 4], 0.05);
/// c.cx(&[(0, 1), (2, 1), (2, 3), (4, 3)]);
/// c.mr(&[1, 3]);
/// c.detector(&[MeasRecord::back(2)]);
/// c.detector(&[MeasRecord::back(1)]);
/// c.m(&[0, 2, 4]);
/// c.observable_include(0, &[MeasRecord::back(3)]);
///
/// let dem = DetectorErrorModel::from_circuit(&c);
/// let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&dem).unwrap());
/// let sampler = CircuitSampler::new(&c);
/// let cfg = McConfig::default();
/// let stats = mc::logical_error_rate_sampled(&sampler, &decoder, 20_000, 2, &cfg)
///     .expect("the default McConfig uses the ambient pool");
/// // Distance-3 repetition code at p = 0.05: roughly 3 p^2 ≈ 0.007.
/// assert!((stats.failures as f64) < 0.03 * stats.shots as f64);
///
/// // The same estimate, stopped at the first batch that reaches 20 failures.
/// let budget = ShotBudget::UntilFailures { max_shots: 20_000, target_failures: 20 };
/// let early = mc::logical_error_rate_sampled(&sampler, &decoder, budget, 2, &cfg).unwrap();
/// assert!(early.failures >= 20 && early.shots <= stats.shots);
/// ```
pub fn logical_error_rate_sampled<S: Sampler, D: Decoder + Sync>(
    sampler: &S,
    decoder: &D,
    budget: impl Into<ShotBudget>,
    seed: u64,
    cfg: &McConfig,
) -> Result<DecodeStats, McError> {
    run_batches(
        budget.into(),
        seed,
        cfg,
        Worker::<S, D>::new,
        |worker, len, shots, rng| worker.decode_batch(sampler, decoder, len, shots, rng),
    )
}

/// The one batch runner behind both estimators: shards `budget` into
/// [`BATCH`]-shot batches, runs `decode_batch(worker, batch_len, shots,
/// batch_rng)` per batch (one reusable worker per thread via
/// `new_worker`), and merges the per-batch statistics in batch order up to
/// the deterministic early-stop prefix of [`ShotBudget::UntilFailures`].
///
/// The batch is the unit of seeding and of that prefix. A round with fewer
/// batches than the pool has threads splits each batch into
/// `threads / batches` parts of contiguous shot ranges (a 100-shot batch
/// on 3 threads decodes as 33, 33 and 34 shots). Each part re-draws its
/// whole batch from the batch's seed and decodes only its `shots` range,
/// and a batch's statistics are the sum of its parts', so a batch joins
/// the prefix only when all its parts ran.
///
/// A fixed budget is an early stop whose target is never reached: one
/// parallel round over every batch.
fn run_batches<W: Send>(
    budget: ShotBudget,
    seed: u64,
    cfg: &McConfig,
    new_worker: impl Fn() -> W + Send + Sync,
    decode_batch: impl Fn(&mut W, usize, Range<usize>, &mut StdRng) -> DecodeStats + Send + Sync,
) -> Result<DecodeStats, McError> {
    let (max_shots, target_failures) = match budget {
        ShotBudget::Fixed(shots) => (shots, usize::MAX),
        ShotBudget::UntilFailures {
            max_shots,
            target_failures,
        } => (max_shots, target_failures),
    };
    let num_batches = max_shots.div_ceil(BATCH);
    let batch_len = |b: usize| (max_shots - b * BATCH).min(BATCH);

    let mut stats = DecodeStats::default();
    let mut next = 0usize;
    while next < num_batches {
        // One parallel round over the remaining batches, each split into
        // `parts` shot ranges when there are fewer batches than threads.
        // Workers skip (yield `None` for) parts claimed after the round's
        // failure budget is spent, and a batch with a skipped part yields
        // `None`; since items are claimed in increasing order, the completed
        // batches of a round form a contiguous prefix up to the first `None`.
        let needed = target_failures.saturating_sub(stats.failures);
        let round_failures = AtomicUsize::new(0);
        let start = next;
        let results: Vec<Option<DecodeStats>> = run_on_pool(cfg.threads, || {
            let batches = num_batches - start;
            let parts = (rayon::current_num_threads() / batches).max(1);
            let part_stats: Vec<Option<DecodeStats>> = (0..batches * parts)
                .into_par_iter()
                .map_init(&new_worker, |worker, item| {
                    let (b, part) = (start + item / parts, item % parts);
                    // The round's first batch always runs, guaranteeing
                    // progress even if the scheduler claims it last (and
                    // covering the target_failures == 0 degenerate case,
                    // where every other batch skips immediately).
                    if b != start && round_failures.load(Ordering::Relaxed) >= needed {
                        return None;
                    }
                    let len = batch_len(b);
                    let shots = part * len / parts..(part + 1) * len / parts;
                    let mut rng = StdRng::seed_from_u64(mix_seed(seed, b as u64));
                    let part_stats = decode_batch(worker, len, shots, &mut rng);
                    round_failures.fetch_add(part_stats.failures, Ordering::Relaxed);
                    Some(part_stats)
                })
                .collect();
            part_stats
                .chunks(parts)
                .map(|batch| {
                    let mut sum = DecodeStats::default();
                    for part in batch {
                        sum.merge((*part)?);
                    }
                    Some(sum)
                })
                .collect()
        })?;
        for r in results {
            let Some(batch_stats) = r else { break };
            next += 1;
            stats.merge(batch_stats);
            if stats.failures >= target_failures {
                return Ok(stats);
            }
        }
        // Round ended without reaching the target inside the completed
        // prefix: loop to decode the remaining batches (the first skipped
        // batch always completes next round because the budget resets).
    }
    Ok(stats)
}

/// Per-worker state of the **streaming** pipeline: the sampler's rolling
/// window, a [`LayerRing`] of the open window's finalized bitplanes, one
/// [`WindowState`] per decoded shot, and the shared windowed decode
/// scratch — everything reused batch to batch. Peak resident syndrome
/// memory is `batch × window` bits, independent of circuit depth.
struct StreamWorker {
    scratch: StreamingScratch,
    ring: LayerRing,
    states: Vec<WindowState>,
    win: WindowScratch,
    obs_masks: Vec<u64>,
    defects: Vec<u32>,
    layer_defects: Vec<u32>,
}

impl StreamWorker {
    fn new() -> Self {
        Self {
            scratch: StreamingScratch::default(),
            ring: LayerRing::default(),
            states: Vec::new(),
            win: WindowScratch::default(),
            obs_masks: Vec::new(),
            defects: Vec::new(),
            layer_defects: Vec::new(),
        }
    }

    /// Samples one batch of `len` shots and decodes the shots in `shots`
    /// **window-major**: each layer is sampled once into the
    /// [`LayerRing`], and as soon as a window's look-ahead is complete the
    /// *whole shot block* steps through that window back to back — so the
    /// graph and decode-scratch slots of the window's layers stay in cache
    /// across all shots — before the next layer is sampled.
    ///
    /// Draws the per-layer RNG streams exactly as the [`Sampler`] impl of
    /// [`StreamingDemSampler`] does, and runs the same window steps the
    /// per-shot `stream_push`/`stream_advance` driver would (the defect
    /// merge is XOR-identical), so the decoded realizations stay
    /// bit-identical to the whole-batch path.
    fn decode_batch<L: LayerAssignment>(
        &mut self,
        sampler: &StreamingDemSampler,
        decoder: &WindowedDecoder<L>,
        len: usize,
        shots: Range<usize>,
        rng: &mut StdRng,
    ) -> DecodeStats {
        let base = rng.random::<u64>();
        sampler.start_batch(len, &mut self.scratch);
        self.obs_masks.clear();
        self.obs_masks.resize(len, 0);
        if self.states.len() < shots.len() {
            self.states.resize_with(shots.len(), WindowState::default);
        }
        for state in &mut self.states[..shots.len()] {
            decoder.stream_reset(state);
        }
        let dpl = sampler.detectors_per_layer();
        let num_layers = sampler.num_layers();
        if decoder.is_global() {
            // Whole-circuit window: no steps to interleave — feed each
            // shot's defects per layer and run the one global decode.
            for layer in 0..num_layers {
                let mut layer_rng = StdRng::seed_from_u64(mix_seed(base, layer as u64));
                sampler.sample_next_layer(&mut layer_rng, &mut self.scratch, &mut self.obs_masks);
                let base_det = (layer * dpl) as u32;
                for (state, s) in self.states.iter_mut().zip(shots.clone()) {
                    self.scratch.layer().fired_into(s, &mut self.defects);
                    for d in &mut self.defects {
                        *d += base_det;
                    }
                    decoder.stream_push(state, &self.defects);
                }
            }
            let mut stats = DecodeStats::default();
            for (state, s) in self.states.iter_mut().zip(shots) {
                let predicted = decoder.stream_finish(state, &mut self.win);
                stats.shots += 1;
                if predicted != self.obs_masks[s] {
                    stats.failures += 1;
                }
            }
            return stats;
        }
        let window = decoder.commit() + decoder.buffer();
        self.ring.reset(window.min(num_layers), dpl);
        let mut next_start = 0usize;
        for layer in 0..num_layers {
            let mut layer_rng = StdRng::seed_from_u64(mix_seed(base, layer as u64));
            sampler.sample_next_layer(&mut layer_rng, &mut self.scratch, &mut self.obs_masks);
            self.ring.store(layer, self.scratch.layer());
            while next_start < num_layers && next_start + window <= layer + 1 {
                self.step_all_shots(decoder, shots.clone(), next_start, num_layers);
                next_start += decoder.commit();
            }
        }
        // Tail windows: clipped look-ahead, all still resident in the ring.
        while next_start < num_layers {
            self.step_all_shots(decoder, shots.clone(), next_start, num_layers);
            next_start += decoder.commit();
        }
        let mut stats = DecodeStats::default();
        for (state, s) in self.states.iter().zip(shots) {
            stats.shots += 1;
            if state.committed_observables() != self.obs_masks[s] {
                stats.failures += 1;
            }
        }
        stats
    }

    /// Steps every shot in `shots` through the window starting at layer
    /// `start`, extracting each shot's window defects from the ring.
    fn step_all_shots<L: LayerAssignment>(
        &mut self,
        decoder: &WindowedDecoder<L>,
        shots: Range<usize>,
        start: usize,
        num_layers: usize,
    ) {
        let hi = (start + decoder.commit() + decoder.buffer()).min(num_layers);
        for (state, s) in self.states.iter_mut().zip(shots) {
            self.defects.clear();
            self.ring
                .extract_into(s, start, hi, &mut self.layer_defects, &mut self.defects);
            decoder.stream_step_fired(state, &self.defects, &mut self.win);
        }
    }
}

/// Asserts that the streaming sampler and the windowed decoder describe
/// the same time-layered model.
fn check_stream_compat<L: LayerAssignment>(
    sampler: &StreamingDemSampler,
    decoder: &WindowedDecoder<L>,
) {
    assert_eq!(
        decoder.num_detectors(),
        sampler.num_detectors(),
        "sampler and decoder disagree on detector count"
    );
    assert_eq!(
        decoder.num_layers(),
        sampler.num_layers(),
        "sampler and decoder disagree on layer count"
    );
    let dpl = sampler.detectors_per_layer();
    for d in 0..decoder.num_detectors() as u32 {
        assert_eq!(
            decoder.layers().layer_of(d),
            d as usize / dpl,
            "decoder layering disagrees with the sampler at detector {d}"
        );
    }
}

/// Estimates the logical error rate through the **streaming** pipeline,
/// spending `budget` (a shot count, or a [`ShotBudget`]) with base seed
/// `seed`: shots are sampled one time layer at a time from the time-sliced
/// `sampler` and fed straight into per-shot [`WindowedDecoder`] sessions,
/// so resident syndrome memory is O(batch × window) — independent of
/// circuit depth — instead of the whole-batch path's O(batch × circuit).
///
/// For a given seed and budget the result is bit-identical across thread
/// counts **and** bit-identical to the whole-batch reference
/// `logical_error_rate_sampled(sampler, decoder, ...)` with the same
/// [`StreamingDemSampler`] (both derive the same per-layer sample streams
/// and run the same window steps).
///
/// # Panics
///
/// Panics if sampler and decoder disagree on the layered model shape.
///
/// # Errors
///
/// Returns [`McError::PoolBuild`] if `cfg.threads > 0` and the worker pool
/// cannot be built.
///
/// # Example
///
/// ```
/// use raa_stabsim::{Circuit, MeasRecord, DetectorErrorModel, StreamingDemSampler};
/// use raa_decode::{graph::DecodingGraph, UniformLayers, WindowedDecoder, mc, McConfig};
///
/// // Four rounds of one repeated measurement: one detector per layer.
/// let mut c = Circuit::new();
/// c.r(&[0]);
/// for _ in 0..4 {
///     c.x_error(&[0], 0.02);
///     c.mr(&[0]);
///     c.detector(&[MeasRecord::back(1)]);
/// }
/// c.observable_include(0, &[MeasRecord::back(1)]);
///
/// let dem = DetectorErrorModel::from_circuit(&c);
/// let sampler = StreamingDemSampler::new(&dem, 1);
/// let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
/// let decoder = WindowedDecoder::new(graph, UniformLayers { detectors_per_layer: 1 }, 1, 1);
/// let stats = mc::logical_error_rate_streamed(&sampler, &decoder, 2_000, 7, &McConfig::default())
///     .expect("the default McConfig uses the ambient pool");
/// assert_eq!(stats.shots, 2_000);
/// ```
pub fn logical_error_rate_streamed<L: LayerAssignment + Sync>(
    sampler: &StreamingDemSampler,
    decoder: &WindowedDecoder<L>,
    budget: impl Into<ShotBudget>,
    seed: u64,
    cfg: &McConfig,
) -> Result<DecodeStats, McError> {
    check_stream_compat(sampler, decoder);
    run_batches(
        budget.into(),
        seed,
        cfg,
        StreamWorker::new,
        |worker, len, shots, rng| worker.decode_batch(sampler, decoder, len, shots, rng),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::DecodingGraph;
    use crate::matching::MatchingDecoder;
    use crate::unionfind::UnionFindDecoder;
    use raa_stabsim::{DetectorErrorModel, MeasRecord};

    /// d-distance bit-flip repetition code memory, `rounds` rounds, shared
    /// by the crate's unit tests. Detectors come out in per-round blocks of
    /// `d − 1`, so `UniformLayers` applies.
    pub(crate) fn repetition(d: usize, rounds: usize, p: f64) -> Circuit {
        let n_data = d;
        let n_anc = d - 1;
        let data: Vec<u32> = (0..n_data as u32).map(|i| 2 * i).collect();
        let anc: Vec<u32> = (0..n_anc as u32).map(|i| 2 * i + 1).collect();
        let mut c = Circuit::new();
        let all: Vec<u32> = (0..(n_data + n_anc) as u32).collect();
        c.r(&all);
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
                MeasRecord::back(n_data - i),
                MeasRecord::back(n_data - i - 1),
                MeasRecord::back(n_data + n_anc - i),
            ]);
        }
        c.observable_include(0, &[MeasRecord::back(n_data)]);
        c
    }

    fn uf(c: &Circuit) -> UnionFindDecoder {
        let dem = DetectorErrorModel::from_circuit(c);
        UnionFindDecoder::new(DecodingGraph::from_dem(&dem).unwrap())
    }

    fn mwpm(c: &Circuit) -> MatchingDecoder {
        let dem = DetectorErrorModel::from_circuit(c);
        MatchingDecoder::new(DecodingGraph::from_dem(&dem).unwrap())
    }

    /// The whole-batch estimate on `threads` workers (`0` = all cores).
    fn stats<S: Sampler, D: Decoder + Sync>(
        sampler: &S,
        decoder: &D,
        budget: impl Into<ShotBudget>,
        seed: u64,
        threads: usize,
    ) -> DecodeStats {
        let cfg = McConfig::default().with_threads(threads);
        logical_error_rate_sampled(sampler, decoder, budget, seed, &cfg).unwrap()
    }

    /// The gate-level estimate of `c` under `decoder`.
    fn circuit_stats<D: Decoder + Sync>(
        c: &Circuit,
        decoder: &D,
        budget: impl Into<ShotBudget>,
        seed: u64,
        threads: usize,
    ) -> DecodeStats {
        stats(&CircuitSampler::new(c), decoder, budget, seed, threads)
    }

    /// The streamed estimate on `threads` workers (`0` = all cores).
    fn streamed_stats(
        sampler: &StreamingDemSampler,
        decoder: &WindowedDecoder<crate::UniformLayers>,
        budget: impl Into<ShotBudget>,
        seed: u64,
        threads: usize,
    ) -> DecodeStats {
        let cfg = McConfig::default().with_threads(threads);
        logical_error_rate_streamed(sampler, decoder, budget, seed, &cfg).unwrap()
    }

    #[test]
    fn noiseless_circuit_never_fails() {
        let c = repetition(3, 2, 0.0);
        let stats = circuit_stats(&c, &uf(&c), 500, 1, 0);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.shots, 500);
    }

    #[test]
    fn decoding_beats_raw_error_rate() {
        let p = 0.05;
        let c = repetition(3, 3, p);
        let stats = circuit_stats(&c, &uf(&c), 20_000, 2, 0);
        // Raw single-qubit flip probability over 3 rounds ~ 3p/... just check
        // we're well below p itself.
        assert!(
            stats.logical_error_rate() < p,
            "rate = {}",
            stats.logical_error_rate()
        );
    }

    #[test]
    fn larger_distance_suppresses_errors() {
        let p = 0.03;
        let c3 = repetition(3, 3, p);
        let c7 = repetition(7, 3, p);
        let r3 = circuit_stats(&c3, &uf(&c3), 30_000, 3, 0).logical_error_rate();
        let r7 = circuit_stats(&c7, &uf(&c7), 30_000, 3, 0).logical_error_rate();
        assert!(r7 < r3, "d=3: {r3}, d=7: {r7}");
    }

    #[test]
    fn matching_at_least_as_good_as_unionfind() {
        let p = 0.08;
        let c = repetition(5, 4, p);
        let r_uf = circuit_stats(&c, &uf(&c), 20_000, 4, 0).logical_error_rate();
        let r_m = circuit_stats(&c, &mwpm(&c), 20_000, 4, 0).logical_error_rate();
        // Exact matching should not be substantially worse.
        assert!(r_m <= r_uf * 1.25 + 0.01, "uf = {r_uf}, mwpm = {r_m}");
    }

    #[test]
    fn early_stop_honours_failure_target() {
        let c = repetition(3, 2, 0.2);
        let budget = ShotBudget::UntilFailures {
            max_shots: 1_000_000,
            target_failures: 10,
        };
        let stats = circuit_stats(&c, &uf(&c), budget, 5, 0);
        assert!(stats.failures >= 10);
        assert!(stats.shots < 1_000_000);
    }

    #[test]
    fn identical_stats_across_thread_counts() {
        // The acceptance contract of the parallel pipeline: for a fixed
        // seed, DecodeStats are bit-identical for 1 vs N threads.
        let c = repetition(5, 4, 0.05);
        let d = uf(&c);
        let seed = 0xC0FFEE;
        let base = circuit_stats(&c, &d, 10_000, seed, 1);
        for threads in [2usize, 4, 8] {
            let multi = circuit_stats(&c, &d, 10_000, seed, threads);
            assert_eq!(base, multi, "threads = {threads}");
        }
        assert_eq!(base.shots, 10_000);
        assert!(base.failures > 0, "p = 5% should produce failures");
    }

    #[test]
    fn identical_early_stop_across_thread_counts() {
        let c = repetition(3, 3, 0.15);
        let d = uf(&c);
        let seed = 0xBADC0DE;
        let budget = ShotBudget::UntilFailures {
            max_shots: 200_000,
            target_failures: 25,
        };
        let base = circuit_stats(&c, &d, budget, seed, 1);
        for threads in [3usize, 7] {
            let multi = circuit_stats(&c, &d, budget, seed, threads);
            assert_eq!(base, multi, "threads = {threads}");
        }
        assert!(base.failures >= 25);
        assert!(base.shots < 200_000);
    }

    /// A [`Sampler`] that counts its `sample_into` calls.
    struct CountingSampler<'a, S> {
        inner: &'a S,
        calls: AtomicUsize,
    }

    impl<S: Sampler> Sampler for CountingSampler<'_, S> {
        type Scratch = S::Scratch;

        fn sample_into(
            &self,
            shots: usize,
            rng: &mut StdRng,
            scratch: &mut S::Scratch,
            syndromes: &mut SyndromeBatch,
            obs_masks: &mut Vec<u64>,
        ) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner
                .sample_into(shots, rng, scratch, syndromes, obs_masks);
        }
    }

    #[test]
    fn a_round_with_fewer_batches_than_threads_splits_each_batch() {
        let c = repetition(5, 4, 0.08);
        let d = uf(&c);
        let sampler = DemSampler::new(&DetectorErrorModel::from_circuit(&c));
        // The stats of a `threads`-thread run and its number of draws.
        let draws = |shots: usize, threads: usize| {
            let counting = CountingSampler {
                inner: &sampler,
                calls: AtomicUsize::new(0),
            };
            let stats = stats(&counting, &d, shots, 0x5B17, threads);
            (stats, counting.calls.into_inner())
        };
        // One batch: one draw per part, and the 1-thread stats.
        let (one_batch, calls) = draws(200, 1);
        assert_eq!(calls, 1);
        assert!(one_batch.failures > 0, "p = 8% should produce failures");
        for threads in [2usize, 3] {
            assert_eq!(
                draws(200, threads),
                (one_batch, threads),
                "threads = {threads}"
            );
        }
        // At least one batch per thread: every batch is drawn once.
        for threads in [2usize, 3] {
            for shots in [threads * BATCH, threads * BATCH + 100] {
                let (base, _) = draws(shots, 1);
                assert_eq!(
                    draws(shots, threads),
                    (base, shots.div_ceil(BATCH)),
                    "threads = {threads}, shots = {shots}"
                );
            }
        }
    }

    #[test]
    fn zero_failure_target_still_decodes_one_batch() {
        let c = repetition(3, 2, 0.1);
        let budget = ShotBudget::UntilFailures {
            max_shots: 100_000,
            target_failures: 0,
        };
        let stats = circuit_stats(&c, &uf(&c), budget, 1, 4);
        assert_eq!(stats.shots, BATCH);
    }

    #[test]
    fn dem_sampler_path_matches_circuit_path_statistically() {
        // The compiled-DEM fast path draws from a different RNG layout than
        // gate-level re-simulation, but the estimated logical error rate
        // must agree within Monte-Carlo tolerance (the repetition circuit
        // uses X errors only, so the DEM distribution is exact).
        let p = 0.05;
        let c = repetition(3, 3, p);
        let d = uf(&c);
        let dem = DetectorErrorModel::from_circuit(&c);
        let dem_sampler = DemSampler::new(&dem);
        let shots = 40_000;
        let circuit_rate = circuit_stats(&c, &d, shots, 11, 0).logical_error_rate();
        let dem_rate = stats(&dem_sampler, &d, shots, 11, 0).logical_error_rate();
        assert!(
            (circuit_rate - dem_rate).abs() < 0.004,
            "circuit {circuit_rate} vs dem {dem_rate}"
        );
    }

    #[test]
    fn dem_sampler_identical_stats_across_thread_counts() {
        let c = repetition(5, 4, 0.05);
        let d = uf(&c);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = DemSampler::new(&dem);
        let seed = 0xDE37;
        let base = stats(&sampler, &d, 10_000, seed, 1);
        for threads in [2usize, 4, 8] {
            let multi = stats(&sampler, &d, 10_000, seed, threads);
            assert_eq!(base, multi, "threads = {threads}");
        }
        assert!(base.failures > 0, "p = 5% should produce failures");
    }

    #[test]
    fn dem_sampler_early_stop_honours_failure_target() {
        let c = repetition(3, 2, 0.2);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = DemSampler::new(&dem);
        let budget = ShotBudget::UntilFailures {
            max_shots: 1_000_000,
            target_failures: 10,
        };
        let early = stats(&sampler, &uf(&c), budget, 5, 0);
        assert!(early.failures >= 10);
        assert!(early.shots < 1_000_000);
    }

    fn windowed(
        c: &Circuit,
        per_layer: usize,
        commit: usize,
        buffer: usize,
    ) -> WindowedDecoder<crate::UniformLayers> {
        let dem = DetectorErrorModel::from_circuit(c);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        WindowedDecoder::new(
            graph,
            crate::UniformLayers {
                detectors_per_layer: per_layer,
            },
            commit,
            buffer,
        )
    }

    #[test]
    fn streamed_stats_match_batch_entry_point_bit_for_bit() {
        // The streaming pipeline and the whole-batch reference (the same
        // StreamingDemSampler through the Sampler trait) must produce
        // identical DecodeStats: same per-layer streams, same window steps,
        // different memory profile only. A partial batch, whole batches
        // and a ragged tail.
        let c = repetition(5, 20, 0.06);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = StreamingDemSampler::new(&dem, 4);
        let decoder = windowed(&c, 4, 2, 3);
        let seed = 0x57AE;
        for shots in [100usize, 1_024, 3_000] {
            let batch_stats = stats(&sampler, &decoder, shots, seed, 0);
            let streamed = streamed_stats(&sampler, &decoder, shots, seed, 0);
            assert_eq!(batch_stats, streamed, "shots = {shots}");
            assert!(streamed.failures > 0, "p = 6% must fail sometimes");
        }
    }

    #[test]
    fn streamed_identical_stats_across_thread_counts() {
        let c = repetition(3, 30, 0.08);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = StreamingDemSampler::new(&dem, 2);
        let decoder = windowed(&c, 2, 2, 2);
        let seed = 0xF10A;
        let base = streamed_stats(&sampler, &decoder, 6_000, seed, 1);
        for threads in [2usize, 8] {
            let multi = streamed_stats(&sampler, &decoder, 6_000, seed, threads);
            assert_eq!(base, multi, "threads = {threads}");
        }
        assert!(base.failures > 0);
    }

    #[test]
    fn streamed_early_stop_matches_batch_early_stop() {
        let c = repetition(3, 20, 0.1);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = StreamingDemSampler::new(&dem, 2);
        let decoder = windowed(&c, 2, 2, 2);
        let budget = ShotBudget::UntilFailures {
            max_shots: 500_000,
            target_failures: 20,
        };
        let batch_stats = stats(&sampler, &decoder, budget, 3, 0);
        let streamed = streamed_stats(&sampler, &decoder, budget, 3, 0);
        assert_eq!(batch_stats, streamed);
        assert!(streamed.failures >= 20);
        assert!(streamed.shots < 500_000);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn streamed_rejects_mismatched_layering() {
        let c = repetition(3, 20, 0.1);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = StreamingDemSampler::new(&dem, 2);
        // Decoder built over a different circuit: detector counts disagree.
        let c2 = repetition(3, 10, 0.1);
        let decoder = windowed(&c2, 2, 2, 2);
        streamed_stats(&sampler, &decoder, 100, 1, 0);
    }

    #[test]
    fn pool_build_error_is_typed_and_printable() {
        let e = McError::PoolBuild {
            requested: 7,
            detail: "nope".into(),
        };
        let text = e.to_string();
        assert!(text.contains("decode thread pool"));
        assert!(text.contains('7'));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn stats_merge_and_errors() {
        let mut a = DecodeStats {
            shots: 100,
            failures: 10,
        };
        a.merge(DecodeStats {
            shots: 100,
            failures: 0,
        });
        assert_eq!(a.shots, 200);
        assert!((a.logical_error_rate() - 0.05).abs() < 1e-12);
        assert!(a.standard_error() > 0.0);
        assert_eq!(DecodeStats::default().logical_error_rate(), 0.0);
    }
}
