//! Sliding-window decoding (paper §II.4).
//!
//! Transversal algorithms make the decoding problem *deep*: logical qubits
//! within distance d in the circuit must be decoded jointly, and the paper
//! manages this with "a windowed decoding approach" over the circuit's time
//! axis. This module implements the standard two-region sliding window:
//! detectors are partitioned into time layers; each window decodes
//! `commit + buffer` layers, commits the correction of the first `commit`
//! layers, projects the residual syndrome onto the next window's boundary,
//! and slides forward. Accuracy approaches whole-circuit decoding as the
//! buffer grows, while memory and latency stay bounded — this is what keeps
//! the reaction time constant for arbitrarily long computations.
//!
//! # Commit / buffer semantics
//!
//! Each window step decodes every pending defect in layers
//! `[start, start + commit + buffer)` with the inner union–find decoder,
//! then splits the resulting correction at the commit boundary
//! (`start + commit`):
//!
//! * edges entirely inside the commit region are **committed**: their
//!   observable flips accumulate and their defects are consumed;
//! * edges *crossing* the boundary are committed too, and the buffer-side
//!   endpoint is toggled into the pending syndrome — the **syndrome
//!   projection** that hands the half-finished matching to the next window;
//! * edges entirely inside the buffer are discarded; their defects are
//!   re-decoded by the next window with one more window of look-ahead.
//!
//! # Window steps
//!
//! Every window step runs the inner union–find decode on the whole
//! circuit's compiled graph and commits the correction edge by edge. The
//! decode's scratch is epoch-tagged and its growth frontier-driven, so a
//! step costs what its clusters reach, not what the circuit holds. The
//! builders emit detectors round by round, so one window's detectors, and
//! the graph and scratch slots its clusters touch, form a narrow band of
//! ids. [`crate::mc`]'s streamed pipeline runs a whole shot block through
//! one window position before it moves on (window-major order), so that
//! band stays in cache across the block.
//!
//! # Streaming
//!
//! The batch entry point ([`Decoder::predict_into`]) pushes a shot's whole
//! defect list into a per-shot `WindowState` and runs every window step
//! over it. [`crate::mc`]'s streamed pipeline runs the same steps through
//! `WindowedDecoder::stream_step_fired`: it extracts each window's fired
//! defects straight from the streaming sampler's bitplanes as their layers
//! finalize, and the decoder merges them (XOR) with the shot's pending
//! projections, in window-major order across a whole shot block. For
//! identical defect sets the two are **bit-identical** — the property the
//! streaming Monte-Carlo pipeline pins. Pending state per shot is the
//! sparse projected syndrome of the open window only: O(window), not
//! O(circuit).

use crate::graph::{DecodingGraph, Edge};
use crate::unionfind::{UfScratch, UnionFindDecoder};
use crate::Decoder;
use std::fmt;

/// Reusable working state for [`WindowedDecoder`] (shared across shots;
/// the per-shot streaming state is `WindowState`).
#[derive(Debug, Clone, Default)]
pub struct WindowScratch {
    /// Inner union–find scratch.
    pub(crate) uf: UfScratch,
    /// Defects of the window currently being decoded.
    in_window: Vec<u32>,
    /// Per-shot state used by the batch entry point.
    state: WindowState,
}

/// Per-shot state of an incremental windowed decode: the pending (sparse,
/// sorted) defects of the open window plus the committed observable flips.
/// Reusable across shots via [`WindowedDecoder::stream_reset`].
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowState {
    /// Pending defects (original and projected), sorted ascending. Layers
    /// below `start` have been consumed.
    remaining: Vec<u32>,
    /// First layer of the next window.
    start: usize,
    /// Accumulated observable flips of committed correction edges.
    observables: u64,
}

impl WindowState {
    /// Number of pending (uncommitted) defects — bounded by the open
    /// window's hits, not by the circuit depth (except in the
    /// global-fallback regime where the window covers the whole circuit).
    #[cfg(test)]
    pub(crate) fn pending_defects(&self) -> usize {
        self.remaining.len()
    }

    /// Accumulated observable flips of every correction committed so far.
    /// After the final window step (`start` past the last layer) this is
    /// the shot's prediction — what [`WindowedDecoder::stream_finish`]
    /// returns.
    pub(crate) fn committed_observables(&self) -> u64 {
        self.observables
    }
}

/// Toggles membership of `d` in the sorted defect list (XOR semantics —
/// projecting a defect onto a detector that already fired cancels it).
fn toggle(remaining: &mut Vec<u32>, d: u32) {
    match remaining.binary_search(&d) {
        Ok(i) => {
            remaining.remove(i);
        }
        Err(i) => remaining.insert(i, d),
    }
}

/// Geometry or layering problem reported by [`WindowedDecoder::try_new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowError {
    /// `commit` was zero: the window would never advance.
    ZeroCommit,
    /// `buffer` was zero: every correction would commit with no look-ahead,
    /// silently costing accuracy on every boundary-straddling error chain.
    ZeroBuffer,
    /// `commit + buffer` does not fit in the circuit: the decoder would
    /// silently degenerate to whole-circuit (global) decoding.
    WindowExceedsCircuit {
        /// Requested window size (`commit + buffer`).
        window: usize,
        /// Layers actually present in the graph.
        num_layers: usize,
    },
    /// The layer assignment cannot cover the graph's detectors (see
    /// [`LayerAssignment::check`]).
    Layering(String),
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroCommit => write!(f, "must commit at least one layer per window"),
            Self::ZeroBuffer => write!(f, "window needs at least one buffer (look-ahead) layer"),
            Self::WindowExceedsCircuit { window, num_layers } => write!(
                f,
                "window of {window} layers exceeds the circuit's {num_layers} layers: \
                 decoding would silently fall back to whole-circuit decode"
            ),
            Self::Layering(msg) => write!(f, "layer assignment rejected the graph: {msg}"),
        }
    }
}

impl std::error::Error for WindowError {}

/// Assigns each detector to a time layer (e.g. its SE round).
pub trait LayerAssignment {
    /// The layer index of detector `d`.
    fn layer_of(&self, d: u32) -> usize;

    /// Returns the reason the layering cannot cover `num_detectors`
    /// detectors, or `Ok(())`: [`WindowedDecoder::new`] panics on the
    /// error and [`WindowedDecoder::try_new`] returns it. The default
    /// accepts anything; implementations should reject parameters that
    /// would silently misassign detectors.
    ///
    /// # Errors
    ///
    /// Implementations return a human-readable description of the
    /// mismatch (e.g. a block size that does not divide the detector
    /// count).
    fn check(&self, num_detectors: usize) -> Result<(), String> {
        let _ = num_detectors;
        Ok(())
    }
}

/// Layering by contiguous equal-size blocks of detector indices (valid for
/// circuits that emit detectors round by round, as the builders here do).
#[derive(Debug, Clone, Copy)]
pub struct UniformLayers {
    /// Detectors per layer.
    pub detectors_per_layer: usize,
}

impl LayerAssignment for UniformLayers {
    fn layer_of(&self, d: u32) -> usize {
        d as usize / self.detectors_per_layer
    }

    /// Rejects a detector count the uniform layering cannot represent
    /// ([`raa_stabsim::check_uniform_layers`]).
    fn check(&self, num_detectors: usize) -> Result<(), String> {
        raa_stabsim::check_uniform_layers(num_detectors, self.detectors_per_layer)
    }
}

/// A sliding-window wrapper around the union–find decoder.
///
/// # Example
///
/// ```
/// use raa_stabsim::{Circuit, MeasRecord, DetectorErrorModel};
/// use raa_decode::{Decoder, DecodingGraph, UniformLayers, WindowedDecoder};
///
/// // Four rounds of one repeated measurement: one detector per layer.
/// let mut c = Circuit::new();
/// c.r(&[0]);
/// for _ in 0..4 {
///     c.x_error(&[0], 0.1);
///     c.mr(&[0]);
///     c.detector(&[MeasRecord::back(1)]);
/// }
/// c.observable_include(0, &[MeasRecord::back(1)]);
/// let dem = DetectorErrorModel::from_circuit(&c);
/// let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
/// let w = WindowedDecoder::new(graph, UniformLayers { detectors_per_layer: 1 }, 1, 1);
///
/// // One X error in round 1 fires detectors 1 and 2. The window steps
/// // pair them across the round boundary, which flips no observable.
/// assert_eq!(w.predict(&[1, 2]), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedDecoder<L: LayerAssignment> {
    inner: UnionFindDecoder,
    layers: L,
    /// Layers whose corrections are committed per window step.
    commit: usize,
    /// Additional look-ahead layers decoded but not committed.
    buffer: usize,
    num_layers: usize,
}

impl<L: LayerAssignment> WindowedDecoder<L> {
    /// Builds a windowed decoder over `graph` with the given layering,
    /// committing `commit` layers per step with `buffer` look-ahead layers.
    ///
    /// This constructor is deliberately permissive about *geometry*: a
    /// zero buffer and a window covering the whole circuit (the global
    /// fallback) are accepted, because convergence studies sweep exactly
    /// those regimes. Use [`WindowedDecoder::try_new`] to reject them with
    /// a typed error instead.
    ///
    /// # Panics
    ///
    /// Panics if `commit` is zero, or if `layers` rejects the graph's
    /// detector count (see [`LayerAssignment::check`] — for
    /// [`UniformLayers`] that is a block size that does not divide it).
    pub fn new(graph: DecodingGraph, layers: L, commit: usize, buffer: usize) -> Self {
        assert!(commit >= 1, "must commit at least one layer per window");
        if let Err(e) = layers.check(graph.num_detectors()) {
            panic!("{e}");
        }
        Self::assemble(graph, layers, commit, buffer)
    }

    /// Like [`WindowedDecoder::new`], but validates the full window
    /// geometry up front instead of panicking mid-stream or silently
    /// constructing a degenerate decoder.
    ///
    /// # Errors
    ///
    /// * [`WindowError::ZeroCommit`] — the window would never advance.
    /// * [`WindowError::ZeroBuffer`] — no look-ahead: every
    ///   boundary-straddling error chain would be chopped.
    /// * [`WindowError::Layering`] — `layers` cannot cover the graph's
    ///   detectors ([`LayerAssignment::check`]).
    /// * [`WindowError::WindowExceedsCircuit`] — `commit + buffer` exceeds
    ///   the layer count, i.e. the "windowed" decoder would actually run
    ///   whole-circuit decodes.
    pub fn try_new(
        graph: DecodingGraph,
        layers: L,
        commit: usize,
        buffer: usize,
    ) -> Result<Self, WindowError> {
        if commit == 0 {
            return Err(WindowError::ZeroCommit);
        }
        if buffer == 0 {
            return Err(WindowError::ZeroBuffer);
        }
        layers
            .check(graph.num_detectors())
            .map_err(WindowError::Layering)?;
        let this = Self::assemble(graph, layers, commit, buffer);
        if this.is_global() {
            return Err(WindowError::WindowExceedsCircuit {
                window: commit + buffer,
                num_layers: this.num_layers,
            });
        }
        Ok(this)
    }

    fn assemble(graph: DecodingGraph, layers: L, commit: usize, buffer: usize) -> Self {
        let num_layers = (0..graph.num_detectors() as u32)
            .map(|d| layers.layer_of(d))
            .max()
            .map_or(0, |m| m + 1);
        Self {
            inner: UnionFindDecoder::new(graph),
            layers,
            commit,
            buffer,
            num_layers,
        }
    }

    /// Number of time layers seen in the graph.
    pub(crate) fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Detectors in the underlying decoding graph.
    pub(crate) fn num_detectors(&self) -> usize {
        self.inner.graph().num_detectors()
    }

    /// The layer assignment.
    pub(crate) fn layers(&self) -> &L {
        &self.layers
    }

    /// Layers committed per window step.
    pub(crate) fn commit(&self) -> usize {
        self.commit
    }

    /// Look-ahead layers decoded but not committed per window step.
    pub(crate) fn buffer(&self) -> usize {
        self.buffer
    }

    /// Whether the window covers the whole circuit, in which case every
    /// decode falls back to one global union–find pass (exactly
    /// whole-circuit decoding).
    pub(crate) fn is_global(&self) -> bool {
        self.num_layers <= self.commit + self.buffer
    }

    /// Decodes a full shot's defects (sorted ascending) by sliding a
    /// `commit + buffer` window over the layers; see the [module
    /// docs](self) for the commit/projection semantics. All working state
    /// lives in `scratch`.
    pub(crate) fn decode_windowed_into(&self, defects: &[u32], scratch: &mut WindowScratch) -> u64 {
        if self.is_global() {
            return self.inner.predict_into(defects, &mut scratch.uf);
        }
        // Run the incremental engine over the complete defect list: the
        // batch and streaming entry points share every step, so they are
        // bit-identical by construction.
        let mut state = std::mem::take(&mut scratch.state);
        self.stream_reset(&mut state);
        self.stream_push(&mut state, defects);
        let observables = self.stream_finish(&mut state, scratch);
        scratch.state = state; // return the allocation
        observables
    }

    /// Resets a per-shot streaming state (reusing its allocation).
    pub(crate) fn stream_reset(&self, state: &mut WindowState) {
        state.remaining.clear();
        state.start = 0;
        state.observables = 0;
    }

    /// Feeds newly finalized defects (sorted ascending, no duplicates)
    /// into the pending syndrome. Layers must arrive in order: a pushed
    /// defect's layer must not precede a window step already run.
    pub(crate) fn stream_push(&self, state: &mut WindowState, defects: &[u32]) {
        for &d in defects {
            debug_assert!(
                self.layers.layer_of(d) >= state.start,
                "defect {d} pushed after its window was committed"
            );
            match state.remaining.binary_search(&d) {
                Ok(_) => debug_assert!(false, "defect {d} pushed twice"),
                Err(i) => state.remaining.insert(i, d),
            }
        }
    }

    /// Runs every window step whose full `commit + buffer` look-ahead lies
    /// within the first `available_layers` finalized layers: the
    /// layer-by-layer session the streamed = batch tests drive. In the
    /// global-fallback regime this is a no-op (the one global decode
    /// happens in [`WindowedDecoder::stream_finish`]).
    #[cfg(test)]
    pub(crate) fn stream_advance(
        &self,
        state: &mut WindowState,
        available_layers: usize,
        scratch: &mut WindowScratch,
    ) {
        if self.is_global() {
            return;
        }
        while state.start < self.num_layers
            && state.start + self.commit + self.buffer <= available_layers
        {
            self.step(state, scratch, None);
        }
    }

    /// Runs the remaining window steps (every layer is now available) and
    /// returns the accumulated observable prediction for the shot.
    pub(crate) fn stream_finish(
        &self,
        state: &mut WindowState,
        scratch: &mut WindowScratch,
    ) -> u64 {
        if self.is_global() {
            return self.inner.predict_into(&state.remaining, &mut scratch.uf);
        }
        while state.start < self.num_layers {
            self.step(state, scratch, None);
        }
        state.observables
    }

    /// Runs exactly one window step for a shot whose window defects the
    /// caller extracted directly (window-major streaming: [`crate::mc`]
    /// pulls them from the sampler's shot-major bitplanes). `fired` must
    /// be sorted ascending, duplicate-free, and confined to the open
    /// window's layers `[state.start, state.start + commit + buffer)`;
    /// it is XOR-merged with the shot's pending projected defects — the
    /// same merge [`WindowedDecoder::stream_push`]'s insert-then-toggle
    /// order produces, so the two drivers are bit-identical. Not
    /// available in the global-fallback regime (use
    /// [`WindowedDecoder::decode_windowed_into`]).
    pub(crate) fn stream_step_fired(
        &self,
        state: &mut WindowState,
        fired: &[u32],
        scratch: &mut WindowScratch,
    ) {
        debug_assert!(
            !self.is_global(),
            "window-major stepping needs a sliding window"
        );
        debug_assert!(
            state.start < self.num_layers,
            "shot already fully committed"
        );
        self.step(state, scratch, Some(fired));
    }

    /// One window step: decode `[start, start + commit + buffer)`, commit
    /// the correction's first `commit` layers, project crossing edges.
    /// `fired` optionally carries this window's externally extracted
    /// defects (see [`WindowedDecoder::stream_step_fired`]).
    fn step(&self, state: &mut WindowState, scratch: &mut WindowScratch, fired: Option<&[u32]>) {
        let start = state.start;
        let commit_end = start + self.commit;
        let window_end = commit_end + self.buffer;
        let in_range = |d: &u32| {
            let l = self.layers.layer_of(*d);
            l >= start && l < window_end
        };
        scratch.in_window.clear();
        match fired {
            None => scratch
                .in_window
                .extend(state.remaining.iter().copied().filter(|d| in_range(d))),
            Some(f) => {
                // Sorted XOR-merge of the fresh window defects with the
                // pending projections: a projection onto a detector that
                // fired cancels it, exactly as `toggle` would have.
                let mut rem = state
                    .remaining
                    .iter()
                    .copied()
                    .filter(|d| in_range(d))
                    .peekable();
                let mut new = f.iter().copied().peekable();
                loop {
                    match (rem.peek().copied(), new.peek().copied()) {
                        (None, None) => break,
                        (Some(a), None) => {
                            scratch.in_window.push(a);
                            rem.next();
                        }
                        (None, Some(b)) => {
                            scratch.in_window.push(b);
                            new.next();
                        }
                        (Some(a), Some(b)) => {
                            if a < b {
                                scratch.in_window.push(a);
                                rem.next();
                            } else if b < a {
                                scratch.in_window.push(b);
                                new.next();
                            } else {
                                rem.next();
                                new.next();
                            }
                        }
                    }
                }
            }
        }
        if !scratch.in_window.is_empty() {
            self.inner.decode_into(&scratch.in_window, &mut scratch.uf);
            let edges = self.inner.graph().edges();
            for &ei in scratch.uf.correction() {
                self.commit_edge(state, commit_end, &edges[ei as usize]);
            }
        }
        // Defects of the committed region are consumed (matched or
        // projected forward); later layers stay pending.
        let layers = &self.layers;
        state
            .remaining
            .retain(|&d| layers.layer_of(d) >= commit_end);
        state.start = commit_end;
    }

    /// Commits one correction edge: accumulate its observables unless it
    /// lies entirely in the buffer, and project a crossing edge's
    /// buffer-side endpoint forward.
    fn commit_edge(&self, state: &mut WindowState, commit_end: usize, e: &Edge) {
        let lu = self.layers.layer_of(e.u);
        let lv = e.v.map_or(lu, |v| self.layers.layer_of(v));
        if lu.min(lv) >= commit_end {
            return; // entirely in the buffer: re-decoded later
        }
        state.observables ^= e.observables;
        // A crossing edge hands its buffer-side endpoint to the next
        // window as a projected defect.
        if lu >= commit_end {
            toggle(&mut state.remaining, e.u);
        } else if let Some(v) = e.v {
            if lv >= commit_end {
                toggle(&mut state.remaining, v);
            }
        }
    }
}

impl<L: LayerAssignment> Decoder for WindowedDecoder<L> {
    type Scratch = WindowScratch;

    fn predict_into(&self, defects: &[u32], scratch: &mut WindowScratch) -> u64 {
        self.decode_windowed_into(defects, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{self, tests::repetition};
    use raa_stabsim::{Circuit, DetectorErrorModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(
        c: &Circuit,
        commit: usize,
        buffer: usize,
        per_layer: usize,
    ) -> WindowedDecoder<UniformLayers> {
        let dem = DetectorErrorModel::from_circuit(c);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        WindowedDecoder::new(
            graph,
            UniformLayers {
                detectors_per_layer: per_layer,
            },
            commit,
            buffer,
        )
    }

    #[test]
    fn small_circuit_falls_back_to_global() {
        let c = repetition(3, 2, 0.05);
        let w = build(&c, 4, 4, 2);
        assert!(w.is_global());
        let dem = DetectorErrorModel::from_circuit(&c);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        let global = UnionFindDecoder::new(graph);
        for syndrome in [vec![0u32], vec![1, 3], vec![0, 2, 4]] {
            assert_eq!(w.predict(&syndrome), global.predict(&syndrome));
        }
    }

    #[test]
    fn layer_counting() {
        let c = repetition(5, 10, 0.01);
        let w = build(&c, 2, 2, 4);
        // 10 rounds + final layer of 4 detectors = 11 layers.
        assert_eq!(w.num_layers(), 11);
        assert_eq!(w.num_detectors(), 44);
        assert!(!w.is_global());
    }

    /// The gate-level logical error rate of `c` under `decoder`.
    fn circuit_rate<D: Decoder + Sync>(c: &Circuit, decoder: &D, shots: usize, seed: u64) -> f64 {
        let sampler = mc::CircuitSampler::new(c);
        mc::logical_error_rate_sampled(&sampler, decoder, shots, seed, &mc::McConfig::default())
            .unwrap()
            .logical_error_rate()
    }

    #[test]
    fn windowed_accuracy_close_to_global() {
        let p = 0.04;
        let c = repetition(5, 12, p);
        let dem = DetectorErrorModel::from_circuit(&c);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        let global = UnionFindDecoder::new(graph);
        let windowed = build(&c, 3, 3, 4);
        let r_g = circuit_rate(&c, &global, 12_000, 1);
        let r_w = circuit_rate(&c, &windowed, 12_000, 1);
        assert!(
            r_w <= r_g * 2.0 + 0.01,
            "windowed {r_w} vs global {r_g}: buffer should keep accuracy close"
        );
        assert!(r_w < p, "windowed decoding must still beat raw errors");
    }

    #[test]
    fn bigger_buffer_does_not_hurt() {
        let p = 0.05;
        let c = repetition(5, 12, p);
        let narrow = build(&c, 2, 1, 4);
        let wide = build(&c, 2, 5, 4);
        let r_narrow = circuit_rate(&c, &narrow, 10_000, 2);
        let r_wide = circuit_rate(&c, &wide, 10_000, 2);
        assert!(
            r_wide <= r_narrow * 1.25 + 0.01,
            "wide buffer {r_wide} vs narrow {r_narrow}"
        );
    }

    #[test]
    fn projection_resolves_boundary_straddling_pair() {
        // Two defects in adjacent rounds of the same chain position are one
        // measurement-error edge. With commit = 1 the pair straddles every
        // commit boundary; projection must still match them internally
        // (no observable flip), where a projection-free chop would match
        // each to its nearest boundary separately.
        let c = repetition(5, 10, 0.01);
        let w = build(&c, 1, 2, 4);
        let dem = DetectorErrorModel::from_circuit(&c);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        let global = UnionFindDecoder::new(graph);
        // Same chain position (detector 1 of each round block), rounds 4/5.
        let pair = vec![4 * 4 + 1, 5 * 4 + 1];
        assert_eq!(w.predict(&pair), global.predict(&pair));
    }

    #[test]
    fn streaming_session_matches_batch_decode() {
        // Feeding the same defects layer by layer through the streaming
        // session must reproduce the batch decode bit for bit, for every
        // commit/buffer geometry.
        let p = 0.06;
        let c = repetition(5, 12, p);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = raa_stabsim::DemSampler::new(&dem);
        let shots = 400;
        let mut syndromes = raa_stabsim::SyndromeBatch::default();
        let mut masks = Vec::new();
        sampler.sample_syndromes_into(
            shots,
            &mut StdRng::seed_from_u64(42),
            &mut syndromes,
            &mut masks,
        );
        for (commit, buffer) in [(1usize, 0usize), (1, 2), (2, 3), (3, 1)] {
            let w = build(&c, commit, buffer, 4);
            let mut scratch = WindowScratch::default();
            let mut state = WindowState::default();
            let mut defects = Vec::new();
            let mut layer_defects = Vec::new();
            for s in 0..shots {
                syndromes.fired_into(s, &mut defects);
                let batch = w.decode_windowed_into(&defects, &mut scratch);

                w.stream_reset(&mut state);
                for layer in 0..w.num_layers() {
                    layer_defects.clear();
                    layer_defects.extend(
                        defects
                            .iter()
                            .copied()
                            .filter(|&d| w.layers().layer_of(d) == layer),
                    );
                    w.stream_push(&mut state, &layer_defects);
                    w.stream_advance(&mut state, layer + 1, &mut scratch);
                }
                let streamed = w.stream_finish(&mut state, &mut scratch);
                assert_eq!(
                    batch, streamed,
                    "shot {s}, commit {commit}, buffer {buffer}"
                );
            }
        }
    }

    #[test]
    fn pending_state_stays_window_sized() {
        // The streaming session's per-shot memory is the projected syndrome
        // of the open window — it must not accumulate across a deep shot.
        let c = repetition(3, 200, 0.05);
        let w = build(&c, 2, 2, 2);
        let dem = DetectorErrorModel::from_circuit(&c);
        let sampler = raa_stabsim::DemSampler::new(&dem);
        let mut syndromes = raa_stabsim::SyndromeBatch::default();
        let mut masks = Vec::new();
        sampler.sample_syndromes_into(
            64,
            &mut StdRng::seed_from_u64(9),
            &mut syndromes,
            &mut masks,
        );
        let mut scratch = WindowScratch::default();
        let mut state = WindowState::default();
        let mut defects = Vec::new();
        let mut layer_defects = Vec::new();
        let window_detectors = (2 + 2 + 1) * 2; // commit+buffer+1 layers is ample
        for s in 0..64 {
            syndromes.fired_into(s, &mut defects);
            w.stream_reset(&mut state);
            for layer in 0..w.num_layers() {
                layer_defects.clear();
                layer_defects.extend(
                    defects
                        .iter()
                        .copied()
                        .filter(|&d| w.layers().layer_of(d) == layer),
                );
                w.stream_push(&mut state, &layer_defects);
                w.stream_advance(&mut state, layer + 1, &mut scratch);
                assert!(
                    state.pending_defects() <= window_detectors,
                    "pending {} defects at layer {layer} exceeds the window",
                    state.pending_defects()
                );
            }
            w.stream_finish(&mut state, &mut scratch);
        }
    }

    #[test]
    fn try_new_reports_each_geometry_error() {
        let c = repetition(5, 10, 0.01);
        let dem = DetectorErrorModel::from_circuit(&c);
        let (graph, _) = DecodingGraph::from_dem_decomposed(&dem);
        let layers = UniformLayers {
            detectors_per_layer: 4,
        };
        let g = || graph.clone();
        assert_eq!(
            WindowedDecoder::try_new(g(), layers, 0, 2).err(),
            Some(WindowError::ZeroCommit)
        );
        assert_eq!(
            WindowedDecoder::try_new(g(), layers, 2, 0).err(),
            Some(WindowError::ZeroBuffer)
        );
        // 11 layers: a 6+6 window cannot slide.
        assert_eq!(
            WindowedDecoder::try_new(g(), layers, 6, 6).err(),
            Some(WindowError::WindowExceedsCircuit {
                window: 12,
                num_layers: 11
            })
        );
        // 44 detectors don't split into layers of 3.
        let bad = UniformLayers {
            detectors_per_layer: 3,
        };
        assert!(matches!(
            WindowedDecoder::try_new(g(), bad, 2, 2),
            Err(WindowError::Layering(_))
        ));
        // And the happy path still constructs a sliding decoder.
        let w = WindowedDecoder::try_new(g(), layers, 2, 3).expect("valid geometry");
        assert!(!w.is_global());
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_zero_commit() {
        let c = repetition(3, 2, 0.01);
        let _ = build(&c, 0, 1, 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_non_divisible_layer_size() {
        // 44 detectors do not split into layers of 3: constructing the
        // decoder must fail loudly instead of silently misassigning.
        let c = repetition(5, 10, 0.01);
        let _ = build(&c, 2, 2, 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_layer_size() {
        let c = repetition(3, 2, 0.01);
        let _ = build(&c, 1, 1, 0);
    }
}
