//! Declarative experiment specifications and sweep grids.
//!
//! An [`ExperimentSpec`] pins down *everything* a circuit-level Monte-Carlo
//! experiment needs — scenario, distance, basis, noise, decoder, shot budget
//! and seed — so that running it is a pure function of the spec (see
//! [`crate::engine::run`]). A [`SweepGrid`] expands a cartesian product of
//! distances × physical error rates × (optionally) CNOTs-per-round ×
//! decoders into such specs with per-point derived seeds.

use raa_decode::McConfig;
use raa_factory::FactoryProtocol;
use raa_gadgets::GadgetKind;
use raa_surface::{Basis, NoiseModel};

/// How many syndrome-extraction rounds a memory experiment runs.
///
/// Sweeps over distance usually want the rounds to scale with `d` (the
/// paper's memory figures use a fixed multiple), so the count is resolved
/// per spec point rather than fixed at grid construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounds {
    /// Exactly this many rounds at every distance.
    Fixed(usize),
    /// `factor × d` rounds at distance `d`.
    TimesDistance(usize),
}

impl Rounds {
    /// The round count at code distance `distance`, or `None` when it is
    /// zero or overflows a `usize`. It never panics, so the cache's echo
    /// guard can call it on any spec.
    pub(crate) fn checked_resolve(&self, distance: u32) -> Option<usize> {
        match *self {
            Rounds::Fixed(n) => Some(n),
            Rounds::TimesDistance(k) => k.checked_mul(distance as usize),
        }
        .filter(|&rounds| rounds >= 1)
    }

    /// The round count at code distance `distance`.
    ///
    /// # Panics
    ///
    /// Panics if the resolved count is zero or overflows a `usize`.
    pub fn resolve(&self, distance: u32) -> usize {
        self.checked_resolve(distance).unwrap_or_else(|| {
            panic!(
                "need at least one SE round and a count that fits a usize, \
                 got {self:?} at d = {distance}"
            )
        })
    }
}

/// The family of circuit the experiment builds and decodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// One idling patch: `rounds` SE rounds, then destructive readout.
    Memory {
        /// SE rounds, possibly distance-dependent.
        rounds: Rounds,
    },
    /// A deep logical CNOT circuit between `patches` patches with
    /// `cnots_per_round` transversal gates per SE round (the paper's `x`),
    /// random gate directions drawn from the spec seed.
    TransversalCnot {
        /// Number of patches (≥ 2).
        patches: usize,
        /// Total transversal CNOTs.
        depth: usize,
        /// CNOTs per SE round (the paper's `x`).
        cnots_per_round: f64,
    },
    /// Measurement-based logical GHZ preparation over `targets` branches
    /// (the CNOT fan-out primitive of paper §III.8).
    GhzFanout {
        /// Number of GHZ branches (≥ 2).
        targets: usize,
    },
    /// Deep algorithm-style workload: `rounds` SE rounds (typically
    /// [`Rounds::TimesDistance`] with a large factor — the deep-circuit
    /// regime windowed/streaming decoding exists for) over `patches`
    /// patches with `cnots_per_round` transversal CNOTs interleaved per
    /// round. The round count is the knob; the CNOT depth is derived from
    /// it. Detectors come out in uniform layers of `patches × (d² − 1)`
    /// per round, so windowed and streaming decoding apply.
    DeepCnot {
        /// Number of patches (≥ 2).
        patches: usize,
        /// Total SE rounds, possibly distance-dependent: at least the
        /// `1 + ⌈1 / x⌉` one CNOT needs (2 for x ≥ 1). The circuit emits
        /// exactly this many when `(rounds − 1) · x` is an integer, and
        /// otherwise the most its largest fitting CNOT depth fills; the
        /// engine panics on fewer rounds than one CNOT needs.
        rounds: Rounds,
        /// Transversal CNOTs per SE round (the paper's `x`).
        cnots_per_round: f64,
    },
    /// The Clifford skeleton of a magic-state factory (paper §III.6): the
    /// protocol's deterministic transversal-CNOT network cycled one layer
    /// per SE round over [`raa_factory::FactoryProtocol::patches`] patches.
    /// Detectors come out in uniform layers of `patches × (d² − 1)` per
    /// round, so windowed and streaming decoding apply.
    ///
    /// ```
    /// use raa_sim::{FactoryProtocol, Rounds, Scenario};
    ///
    /// let s = Scenario::MagicFactory {
    ///     protocol: FactoryProtocol::Distill15,
    ///     rounds: Rounds::Fixed(4),
    /// };
    /// assert_eq!(s.label(), "factory_distill15");
    /// assert_eq!(s.detectors_per_layer(3), Some(15 * 8));
    /// ```
    MagicFactory {
        /// Which factory protocol's CNOT schedule to run.
        protocol: FactoryProtocol,
        /// Total SE rounds (≥ 1), possibly distance-dependent.
        rounds: Rounds,
    },
    /// The Clifford skeleton of an arithmetic gadget (paper §III.5–III.8):
    /// the gadget's transversal-CNOT frame at register width `width`,
    /// cycled one layer per SE round over
    /// [`raa_gadgets::GadgetKind::patches`] patches. Uniformly layered like
    /// [`Scenario::MagicFactory`], so arbitrary depths stream.
    ///
    /// ```
    /// use raa_sim::{GadgetKind, Rounds, Scenario};
    ///
    /// let s = Scenario::Gadget {
    ///     kind: GadgetKind::Adder,
    ///     width: 4,
    ///     rounds: Rounds::Fixed(8),
    /// };
    /// assert_eq!(s.label(), "gadget_adder");
    /// assert_eq!(s.detectors_per_layer(3), Some(9 * 8));
    /// ```
    Gadget {
        /// Which gadget's CNOT schedule to run.
        kind: GadgetKind,
        /// Register width (bit positions for the adder, patches for
        /// lookup/fan-out).
        width: usize,
        /// Total SE rounds (≥ 1), possibly distance-dependent.
        rounds: Rounds,
    },
    /// Circuit-level memory on the \[\[8,3,2\]\] cube code behind the 8T-to-CCZ
    /// factory ([`raa_surface::Code832MemoryExperiment`], pinned against the
    /// PR 2 golden DEM). The block is a fixed code: the spec's `distance`
    /// must be 2 (its code distance), and detectors come in uniform layers
    /// of four (one per Z stabilizer) per round.
    ///
    /// ```
    /// use raa_sim::{Rounds, Scenario};
    ///
    /// let s = Scenario::Code832Memory { rounds: Rounds::Fixed(4) };
    /// assert_eq!(s.label(), "code832_memory");
    /// assert_eq!(s.detectors_per_layer(2), Some(4));
    /// ```
    Code832Memory {
        /// Stabilizer-measurement rounds (≥ 1), possibly
        /// distance-dependent.
        rounds: Rounds,
    },
}

impl Scenario {
    /// Every label [`Scenario::label`] can return, one per variant and
    /// protocol/kind: the set a cached record's `scenario` must come from.
    pub const LABELS: [&'static str; 11] = [
        "memory",
        "transversal_cnot",
        "ghz_fanout",
        "deep_cnot",
        "factory_distill15",
        "factory_ccz",
        "factory_cultivation",
        "gadget_adder",
        "gadget_lookup",
        "gadget_fanout",
        "code832_memory",
    ];

    /// Stable label used in records (one of [`Scenario::LABELS`]).
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Memory { .. } => "memory",
            Scenario::TransversalCnot { .. } => "transversal_cnot",
            Scenario::GhzFanout { .. } => "ghz_fanout",
            Scenario::DeepCnot { .. } => "deep_cnot",
            Scenario::MagicFactory { protocol, .. } => match protocol {
                FactoryProtocol::Distill15 => "factory_distill15",
                FactoryProtocol::Ccz => "factory_ccz",
                FactoryProtocol::Cultivation => "factory_cultivation",
            },
            Scenario::Gadget { kind, .. } => match kind {
                GadgetKind::Adder => "gadget_adder",
                GadgetKind::Lookup => "gadget_lookup",
                GadgetKind::Fanout => "gadget_fanout",
            },
            Scenario::Code832Memory { .. } => "code832_memory",
        }
    }

    /// Detectors per SE-round time layer at distance `distance`, for the
    /// scenarios whose circuits emit detectors in uniform round-by-round
    /// blocks (memory, deep-CNOT, factory/gadget skeletons and the
    /// \[\[8,3,2\]\] block); `None` where the layering is non-uniform
    /// (transversal-CNOT's debt schedule, GHZ fan-out's measurement-based
    /// preparation), which is what rejects windowed/streaming decoding for
    /// those scenarios.
    pub fn detectors_per_layer(&self, distance: u32) -> Option<usize> {
        let per_patch = (distance * distance - 1) as usize;
        match self {
            Scenario::Memory { .. } => Some(per_patch),
            Scenario::DeepCnot { patches, .. } => Some(patches * per_patch),
            Scenario::MagicFactory { protocol, .. } => Some(protocol.patches() * per_patch),
            Scenario::Gadget { kind, width, .. } => Some(kind.patches(*width) * per_patch),
            // One detector per Z stabilizer per round, independent of the
            // spec's (fixed) distance.
            Scenario::Code832Memory { .. } => Some(4),
            Scenario::TransversalCnot { .. } | Scenario::GhzFanout { .. } => None,
        }
    }
}

/// How many shots to spend on one spec point: the Monte-Carlo harness's
/// own budget type, fixed or a deterministic early stop.
pub use raa_decode::mc::ShotBudget;

/// Which sampling path feeds the Monte-Carlo decode loop.
///
/// Both paths shard shots into the same deterministically seeded batches,
/// so either choice is bit-identical across thread counts — but the two
/// paths consume randomness differently, so records from one are not
/// comparable shot-for-shot with records from the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SamplerChoice {
    /// Sample the precompiled detector error model directly
    /// ([`raa_stabsim::DemSampler`]): cost per batch scales with error
    /// mechanisms × hit rate instead of circuit ops × qubits. The default —
    /// the engine has already extracted the DEM for the decoder, so
    /// sampling it is nearly free. Treats depolarizing-channel components
    /// as independent (the standard DEM semantics, an O(p²) approximation).
    #[default]
    Dem,
    /// Re-simulate the circuit through the gate-level Pauli-frame sampler
    /// per batch ([`raa_stabsim::FrameSim`]): exact for every channel,
    /// roughly an order of magnitude slower on deep circuits.
    Circuit,
}

impl SamplerChoice {
    /// Stable label used in records ("dem", "circuit").
    pub fn label(&self) -> &'static str {
        match self {
            SamplerChoice::Dem => "dem",
            SamplerChoice::Circuit => "circuit",
        }
    }
}

/// Which decoder the engine instantiates for a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderChoice {
    /// Weighted union–find (the fast workhorse).
    UnionFind,
    /// Exact small-instance matching (the MLE-like accuracy reference).
    Matching,
    /// Belief propagation on the full DEM: its hard decision when that
    /// reproduces the syndrome, plain union–find on the static decoding
    /// graph otherwise (no reweighting; see [`raa_decode::bp`]).
    BpUnionFind,
    /// Sliding-window union–find over the time axis, one SE round per
    /// layer: any uniformly layered scenario (see
    /// [`Scenario::detectors_per_layer`]).
    Windowed {
        /// Layers committed per window step.
        commit: usize,
        /// Look-ahead layers beyond the commit region.
        buffer: usize,
    },
}

impl DecoderChoice {
    /// Stable label used in records.
    pub fn label(&self) -> String {
        match self {
            DecoderChoice::UnionFind => "union_find".into(),
            DecoderChoice::Matching => "matching".into(),
            DecoderChoice::BpUnionFind => "bp_union_find".into(),
            DecoderChoice::Windowed { commit, buffer } => {
                format!("windowed_{commit}+{buffer}")
            }
        }
    }
}

/// A fully pinned-down circuit-level experiment.
///
/// Running a spec ([`crate::engine::run`]) is deterministic: the seed drives
/// both circuit construction (random CNOT directions) and the Monte-Carlo
/// decode streams, and `mc` holds only the decode thread count, which
/// cannot change the result.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Record label (grids derive one per point).
    pub name: String,
    /// Circuit family.
    pub scenario: Scenario,
    /// Code distance.
    pub distance: u32,
    /// Logical basis protected.
    pub basis: Basis,
    /// Circuit-level noise strengths.
    pub noise: NoiseModel,
    /// Decoder to instantiate.
    pub decoder: DecoderChoice,
    /// Sampling path feeding the decode loop (default: compiled DEM).
    pub sampler: SamplerChoice,
    /// Stream the Monte-Carlo decode one time layer at a time
    /// ([`raa_decode::mc::logical_error_rate_streamed`]): resident syndrome
    /// memory is bounded by the decoding window instead of the circuit
    /// depth, opening deep-round sweeps. Requires a
    /// [`DecoderChoice::Windowed`] decoder, the (default) DEM sampler and a
    /// uniformly layered scenario (memory, deep-CNOT, factory/gadget
    /// skeleton or \[\[8,3,2\]\] memory). The streaming
    /// path derives per-layer sample streams, so its records are not
    /// shot-comparable with the whole-batch path — but are themselves
    /// bit-identical across thread counts.
    pub streaming: bool,
    /// Shot budget.
    pub shots: ShotBudget,
    /// Base seed for circuit construction and decode streams.
    pub seed: u64,
    /// Decode thread count. Not part of the result: records are
    /// bit-identical for any thread count.
    pub mc: McConfig,
}

impl ExperimentSpec {
    /// A spec with the given scenario and distance and conservative
    /// defaults: Z basis, uniform 1e-3 noise, union–find decoding,
    /// compiled-DEM sampling, 10k shots, seed 0, default Monte-Carlo
    /// config.
    pub fn new(name: impl Into<String>, scenario: Scenario, distance: u32) -> Self {
        Self {
            name: name.into(),
            scenario,
            distance,
            basis: Basis::Z,
            noise: NoiseModel::uniform(1e-3),
            decoder: DecoderChoice::UnionFind,
            sampler: SamplerChoice::default(),
            streaming: false,
            shots: ShotBudget::Fixed(10_000),
            seed: 0,
            mc: McConfig::default(),
        }
    }
}

/// A cartesian sweep: distances × physical error rates × (optionally)
/// CNOTs-per-round × decoders, each point a full [`ExperimentSpec`] with a
/// seed derived from the grid seed and the point index. Every point
/// protects the Z basis; set [`ExperimentSpec::basis`] on a spec for X.
///
/// # Example
///
/// ```
/// use raa_sim::{Rounds, Scenario, ShotBudget, SweepGrid};
///
/// let grid = SweepGrid::new(
///     "memory",
///     Scenario::Memory { rounds: Rounds::TimesDistance(1) },
/// )
/// .with_distances(vec![3, 5])
/// .with_p_phys(vec![1e-3, 2e-3])
/// .with_shots(ShotBudget::Fixed(1_000));
/// let specs = grid.specs();
/// assert_eq!(specs.len(), 4);
/// assert_ne!(specs[0].seed, specs[1].seed);
/// ```
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Prefix for per-point record names.
    pub name: String,
    /// Scenario template (per-point axes override its fields).
    pub scenario: Scenario,
    /// Code distances (one axis).
    pub distances: Vec<u32>,
    /// Uniform physical error rates (one axis).
    pub p_phys: Vec<f64>,
    /// Optional CNOTs-per-round axis; empty keeps the scenario's own value.
    /// Only meaningful for [`Scenario::TransversalCnot`].
    pub cnots_per_round: Vec<f64>,
    /// Decoders (one axis).
    pub decoders: Vec<DecoderChoice>,
    /// Sampling path applied to every point.
    pub sampler: SamplerChoice,
    /// Streaming (time-sliced) decoding applied to every point (see
    /// [`ExperimentSpec::streaming`]).
    pub streaming: bool,
    /// Shot budget applied to every point.
    pub shots: ShotBudget,
    /// Grid seed; per-point seeds are derived from it and the point index.
    pub seed: u64,
    /// Decode thread count applied to every point.
    pub mc: McConfig,
}

impl SweepGrid {
    /// A grid with the given scenario template and defaults: distance 3
    /// only, p = 1e-3 only, union–find, 10k shots, seed 0.
    pub fn new(name: impl Into<String>, scenario: Scenario) -> Self {
        Self {
            name: name.into(),
            scenario,
            distances: vec![3],
            p_phys: vec![1e-3],
            cnots_per_round: Vec::new(),
            decoders: vec![DecoderChoice::UnionFind],
            sampler: SamplerChoice::default(),
            streaming: false,
            shots: ShotBudget::Fixed(10_000),
            seed: 0,
            mc: McConfig::default(),
        }
    }

    /// Sets the distance axis.
    pub fn with_distances(mut self, distances: Vec<u32>) -> Self {
        self.distances = distances;
        self
    }

    /// Sets the physical-error-rate axis.
    pub fn with_p_phys(mut self, p_phys: Vec<f64>) -> Self {
        self.p_phys = p_phys;
        self
    }

    /// Sets the CNOTs-per-round axis (transversal-CNOT scenarios only).
    pub fn with_cnots_per_round(mut self, xs: Vec<f64>) -> Self {
        self.cnots_per_round = xs;
        self
    }

    /// Sets the decoder axis.
    pub fn with_decoders(mut self, decoders: Vec<DecoderChoice>) -> Self {
        self.decoders = decoders;
        self
    }

    /// Sets the sampling path applied to every point.
    pub fn with_sampler(mut self, sampler: SamplerChoice) -> Self {
        self.sampler = sampler;
        self
    }

    /// Enables/disables streaming (time-sliced) decoding for every point
    /// (see [`ExperimentSpec::streaming`]).
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Sets the per-point shot budget.
    pub fn with_shots(mut self, shots: ShotBudget) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the grid seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the decode thread count.
    pub fn with_mc(mut self, mc: McConfig) -> Self {
        self.mc = mc;
        self
    }

    /// Expands the grid into one spec per point, in the deterministic
    /// cartesian order distance (outer) × p × cnots-per-round × decoder
    /// (inner).
    ///
    /// Seeds are derived per *physical* point (distance, p, x): every
    /// decoder at the same point shares a seed and therefore decodes
    /// identical syndrome samples, so decoder comparisons are paired and
    /// sampling noise cancels.
    ///
    /// # Panics
    ///
    /// Panics if an axis is empty, if a CNOTs-per-round axis is given for a
    /// non-CNOT scenario, or if a [`Scenario::Code832Memory`] grid sweeps a
    /// distance other than 2 (the block is a fixed code).
    pub fn specs(&self) -> Vec<ExperimentSpec> {
        assert!(!self.distances.is_empty(), "need at least one distance");
        assert!(!self.p_phys.is_empty(), "need at least one error rate");
        assert!(!self.decoders.is_empty(), "need at least one decoder");
        if matches!(self.scenario, Scenario::Code832Memory { .. }) {
            assert!(
                self.distances.iter().all(|&d| d == 2),
                "code832_memory is a fixed [[8,3,2]] block: the distance axis must be [2]"
            );
        }
        if !self.cnots_per_round.is_empty() {
            assert!(
                matches!(
                    self.scenario,
                    Scenario::TransversalCnot { .. } | Scenario::DeepCnot { .. }
                ),
                "cnots_per_round axis requires a CNOT scenario (transversal or deep)"
            );
        }
        let xs: Vec<Option<f64>> = if self.cnots_per_round.is_empty() {
            vec![None]
        } else {
            self.cnots_per_round.iter().copied().map(Some).collect()
        };
        let mut specs = Vec::new();
        let mut point_index = 0u64;
        for &d in &self.distances {
            for &p in &self.p_phys {
                for &x in &xs {
                    let seed = crate::engine::derive_seed(self.seed, point_index);
                    point_index += 1;
                    for &decoder in &self.decoders {
                        let mut scenario = self.scenario;
                        if let Some(x) = x {
                            match &mut scenario {
                                Scenario::TransversalCnot {
                                    cnots_per_round, ..
                                }
                                | Scenario::DeepCnot {
                                    cnots_per_round, ..
                                } => *cnots_per_round = x,
                                _ => unreachable!("axis validated above"),
                            }
                        }
                        let mut name = format!("{}/d{d}/p{p}", self.name);
                        if let Some(x) = x {
                            name.push_str(&format!("/x{x}"));
                        }
                        name.push_str(&format!("/{}", decoder.label()));
                        specs.push(ExperimentSpec {
                            name,
                            scenario,
                            distance: d,
                            basis: Basis::Z,
                            noise: NoiseModel::uniform(p),
                            decoder,
                            sampler: self.sampler,
                            streaming: self.streaming,
                            shots: self.shots,
                            seed,
                            mc: self.mc.clone(),
                        });
                    }
                }
            }
        }
        specs
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn rounds_resolution() {
        assert_eq!(Rounds::Fixed(7).resolve(11), 7);
        assert_eq!(Rounds::TimesDistance(3).resolve(5), 15);
    }

    #[test]
    #[should_panic(expected = "at least one SE round")]
    fn zero_rounds_rejected() {
        Rounds::Fixed(0).resolve(3);
    }

    #[test]
    fn decoder_labels_are_stable() {
        assert_eq!(DecoderChoice::UnionFind.label(), "union_find");
        assert_eq!(
            DecoderChoice::Windowed {
                commit: 2,
                buffer: 3
            }
            .label(),
            "windowed_2+3"
        );
    }

    #[test]
    fn grid_expands_cartesian_product_in_order() {
        let grid = SweepGrid::new(
            "g",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 4,
                cnots_per_round: 1.0,
            },
        )
        .with_distances(vec![3, 5])
        .with_p_phys(vec![1e-3])
        .with_cnots_per_round(vec![0.5, 2.0])
        .with_decoders(vec![DecoderChoice::UnionFind, DecoderChoice::Matching]);
        let specs = grid.specs();
        assert_eq!(specs.len(), 8, "2 distances x 1 p x 2 xs x 2 decoders");
        assert_eq!(specs[0].name, "g/d3/p0.001/x0.5/union_find");
        assert_eq!(specs[1].name, "g/d3/p0.001/x0.5/matching");
        assert_eq!(specs[7].name, "g/d5/p0.001/x2/matching");
        match specs[2].scenario {
            Scenario::TransversalCnot {
                cnots_per_round, ..
            } => assert_eq!(cnots_per_round, 2.0),
            _ => unreachable!(),
        }
        // Per-point seeds are reproducible; decoders at the same physical
        // point share a seed (paired comparison), distinct points differ.
        let again = grid.specs();
        for (a, b) in specs.iter().zip(&again) {
            assert_eq!(a.seed, b.seed);
        }
        assert_eq!(specs[0].seed, specs[1].seed, "same point, two decoders");
        assert_ne!(specs[0].seed, specs[2].seed, "different x");
        assert_ne!(specs[0].seed, specs[4].seed, "different distance");
    }

    #[test]
    fn deep_cnot_scenario_shape() {
        let s = Scenario::DeepCnot {
            patches: 2,
            rounds: Rounds::TimesDistance(20),
            cnots_per_round: 1.0,
        };
        assert_eq!(s.label(), "deep_cnot");
        assert_eq!(s.detectors_per_layer(3), Some(16));
        assert_eq!(s.detectors_per_layer(5), Some(48));
        assert_eq!(
            Scenario::Memory {
                rounds: Rounds::Fixed(2)
            }
            .detectors_per_layer(3),
            Some(8)
        );
        assert_eq!(
            Scenario::GhzFanout { targets: 2 }.detectors_per_layer(3),
            None
        );
    }

    #[test]
    fn streaming_toggle_propagates_to_specs() {
        let grid = SweepGrid::new(
            "g",
            Scenario::Memory {
                rounds: Rounds::TimesDistance(20),
            },
        )
        .with_decoders(vec![DecoderChoice::Windowed {
            commit: 2,
            buffer: 2,
        }])
        .with_streaming(true);
        let specs = grid.specs();
        assert!(specs.iter().all(|s| s.streaming));
        assert!(
            !ExperimentSpec::new(
                "m",
                Scenario::Memory {
                    rounds: Rounds::Fixed(1)
                },
                3
            )
            .streaming
        );
    }

    #[test]
    #[should_panic(expected = "CNOT scenario")]
    fn x_axis_rejected_for_memory() {
        SweepGrid::new(
            "g",
            Scenario::Memory {
                rounds: Rounds::Fixed(1),
            },
        )
        .with_cnots_per_round(vec![1.0])
        .specs();
    }

    /// One scenario of every variant, protocol and kind, in
    /// [`Scenario::LABELS`] order.
    pub(crate) fn every_scenario() -> Vec<Scenario> {
        let rounds = Rounds::Fixed(2);
        let mut all = vec![
            Scenario::Memory { rounds },
            Scenario::TransversalCnot {
                patches: 2,
                depth: 2,
                cnots_per_round: 1.0,
            },
            Scenario::GhzFanout { targets: 2 },
            Scenario::DeepCnot {
                patches: 2,
                rounds,
                cnots_per_round: 1.0,
            },
        ];
        all.extend(
            [
                FactoryProtocol::Distill15,
                FactoryProtocol::Ccz,
                FactoryProtocol::Cultivation,
            ]
            .map(|protocol| Scenario::MagicFactory { protocol, rounds }),
        );
        all.extend(
            [
                (GadgetKind::Adder, 2),
                (GadgetKind::Lookup, 4),
                (GadgetKind::Fanout, 3),
            ]
            .map(|(kind, width)| Scenario::Gadget {
                kind,
                width,
                rounds,
            }),
        );
        all.push(Scenario::Code832Memory { rounds });
        all
    }

    #[test]
    fn new_scenario_labels_are_stable() {
        let labels: Vec<&str> = every_scenario().iter().map(Scenario::label).collect();
        assert_eq!(labels, Scenario::LABELS);
        let mut distinct = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), labels.len(), "labels are distinct");
    }

    #[test]
    fn new_scenarios_layer_uniformly() {
        let rounds = Rounds::Fixed(4);
        assert_eq!(
            Scenario::MagicFactory {
                protocol: FactoryProtocol::Distill15,
                rounds
            }
            .detectors_per_layer(3),
            Some(15 * 8)
        );
        assert_eq!(
            Scenario::MagicFactory {
                protocol: FactoryProtocol::Ccz,
                rounds
            }
            .detectors_per_layer(5),
            Some(8 * 24)
        );
        assert_eq!(
            Scenario::Gadget {
                kind: GadgetKind::Adder,
                width: 4,
                rounds
            }
            .detectors_per_layer(3),
            Some(9 * 8),
            "adder holds 2w + 1 patches"
        );
        assert_eq!(
            Scenario::Gadget {
                kind: GadgetKind::Fanout,
                width: 3,
                rounds
            }
            .detectors_per_layer(3),
            Some(3 * 8)
        );
        assert_eq!(
            Scenario::Code832Memory { rounds }.detectors_per_layer(2),
            Some(4)
        );
        // The non-uniform scenarios still refuse a layer size.
        assert_eq!(
            Scenario::TransversalCnot {
                patches: 2,
                depth: 4,
                cnots_per_round: 1.0
            }
            .detectors_per_layer(3),
            None
        );
        assert_eq!(
            Scenario::GhzFanout { targets: 3 }.detectors_per_layer(3),
            None
        );
    }

    #[test]
    fn factory_grid_expands_and_seeds_like_any_other() {
        let grid = SweepGrid::new(
            "f",
            Scenario::MagicFactory {
                protocol: FactoryProtocol::Ccz,
                rounds: Rounds::TimesDistance(2),
            },
        )
        .with_distances(vec![3, 5])
        .with_p_phys(vec![1e-3, 2e-3]);
        let specs = grid.specs();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].name, "f/d3/p0.001/union_find");
        assert_ne!(specs[0].seed, specs[1].seed);
        assert!(specs.iter().all(|s| s.scenario.label() == "factory_ccz"));
    }

    #[test]
    #[should_panic(expected = "CNOT scenario")]
    fn x_axis_rejected_for_factory() {
        SweepGrid::new(
            "g",
            Scenario::MagicFactory {
                protocol: FactoryProtocol::Distill15,
                rounds: Rounds::Fixed(4),
            },
        )
        .with_cnots_per_round(vec![1.0])
        .specs();
    }

    #[test]
    #[should_panic(expected = "distance axis must be [2]")]
    fn code832_grid_rejects_other_distances() {
        SweepGrid::new(
            "g",
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(4),
            },
        )
        .with_distances(vec![3])
        .specs();
    }

    #[test]
    fn code832_grid_accepts_distance_two() {
        let specs = SweepGrid::new(
            "g",
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(4),
            },
        )
        .with_distances(vec![2])
        .specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].distance, 2);
    }
}
