//! End-to-end resource estimation on the transversal architecture
//! (paper §IV.1–IV.2).
//!
//! Assembles the subroutine gadgets into the full 2048-bit factoring layout:
//! three registers (accumulator with runways, multiplier in dense idle
//! storage, look-up output), the GHZ fan-out layer, the Bell-bridged adder
//! pipeline, and just enough 8T-to-CCZ factories to sustain the addition
//! stage's magic-state demand (capped by Table II's maximum). Time is the
//! lookup-addition count times the reaction-limited gadget duration,
//! stretched if the factories cannot keep up; errors are budgeted across
//! CCZ states, transversal gates, idling and the runway approximation.

use crate::ekera_hastad::{operation_counts, AlgorithmParams, FactoringInstance};
pub use raa_core::budget::CCZ_BUDGET;
use raa_core::{budget, idle, ArchContext, ErrorModelParams, SpaceTime};
use raa_factory::CczFactory;
use raa_gadgets::LookupAddition;
use raa_physics::PhysicalParams;
use std::fmt;

/// Default total failure budget per run (CCZ 5% + gates/idle/runways 3%).
pub const DEFAULT_TOTAL_BUDGET: f64 = 0.08;

/// Fractional space overhead for routing corridors and interface zones.
pub const ROUTING_OVERHEAD: f64 = 0.02;

/// Largest code distance the distance optimization searches.
pub const MAX_SEARCHED_DISTANCE: u32 = 61;

/// The full transversal-architecture estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransversalArchitecture {
    /// The factoring instance.
    pub instance: FactoringInstance,
    /// Algorithm parameters (Table II).
    pub params: AlgorithmParams,
    /// Platform parameters (Table I).
    pub physical: PhysicalParams,
    /// Logical error model (§III.4).
    pub error: ErrorModelParams,
    /// Dense qLDPC idle-storage compression factor (§IV.3.4), if enabled.
    pub qldpc_storage_compression: Option<f64>,
}

impl TransversalArchitecture {
    /// The paper's headline configuration: RSA-2048 with Table II parameters.
    pub fn paper() -> Self {
        Self {
            instance: FactoringInstance::rsa2048(),
            params: AlgorithmParams::paper_table2(),
            physical: PhysicalParams::default(),
            error: ErrorModelParams::paper(),
            qldpc_storage_compression: None,
        }
    }

    /// Returns a copy with a different logical-error model (e.g. one fitted
    /// to circuit-level simulations instead of the paper's assumed
    /// parameters).
    pub fn with_error_model(mut self, error: ErrorModelParams) -> Self {
        self.error = error;
        self
    }

    /// The paper's RSA-2048 instance driven by a **simulation-calibrated**
    /// error model: keeps the calibrated threshold `p_thres` and decoding
    /// factor `α` from `model` (a `FitResult::to_params` conversion at the
    /// sweep's own noise — see `raa-sim`'s `calibrate`), re-anchors
    /// `p_phys` at the paper's hardware rate, and re-optimizes the code
    /// distance for [`DEFAULT_TOTAL_BUDGET`]. Returns the architecture and
    /// its estimate — the simulation-calibrated Table II line.
    ///
    /// # Panics
    ///
    /// Panics if the calibrated threshold does not exceed the hardware
    /// physical error rate (the calibrated decoder would run the hardware
    /// at or above threshold), or if no searched distance reaches the
    /// |CCZ⟩ target (use [`TransversalArchitecture::try_calibrated`] to
    /// probe).
    pub fn calibrated(model: ErrorModelParams) -> (Self, ResourceEstimate) {
        Self::try_calibrated(model).unwrap_or_else(|| unreachable_target())
    }

    /// [`TransversalArchitecture::calibrated`], or `None` when no code
    /// distance up to 61 reaches the per-|CCZ⟩ error target: a calibrated
    /// threshold less than about 2.5 times the hardware rate, such as a
    /// sweep at the hardware rate that fits Λ ≲ 2.5 gives.
    ///
    /// # Panics
    ///
    /// Panics if the calibrated threshold does not exceed the hardware
    /// physical error rate.
    pub fn try_calibrated(model: ErrorModelParams) -> Option<(Self, ResourceEstimate)> {
        let hardware_p = ErrorModelParams::paper().p_phys;
        assert!(
            model.p_thres > hardware_p,
            "calibrated p_thres = {} must exceed the hardware p_phys = {hardware_p} \
             (fitted Lambda too small for this platform)",
            model.p_thres
        );
        Self::paper()
            .with_error_model(model.with_p_phys(hardware_p))
            .optimize_distance(DEFAULT_TOTAL_BUDGET)
    }

    /// The architecture context at these parameters.
    pub fn context(&self) -> ArchContext {
        ArchContext {
            physical: self.physical,
            error: self.error,
            distance: self.params.distance,
            cnots_per_round: 1.0,
        }
    }

    /// Runs the resource estimate.
    ///
    /// # Panics
    ///
    /// Panics if the |CCZ⟩ error target is unreachable at this distance
    /// (use [`TransversalArchitecture::try_estimate`] to probe).
    pub fn estimate(&self) -> ResourceEstimate {
        self.try_estimate()
            .expect("CCZ target unreachable at this distance")
    }

    /// Runs the resource estimate, or `None` when the code distance is too
    /// small for the factories to reach the per-|CCZ⟩ error target.
    pub fn try_estimate(&self) -> Option<ResourceEstimate> {
        self.params.validate(&self.instance);
        let ctx = self.context();
        let counts = operation_counts(&self.instance, &self.params);
        let gadget = LookupAddition::new(
            self.params.w_exp,
            self.params.w_mul,
            self.instance.n_bits(),
            self.params.r_sep,
            self.params.r_pad,
        );

        // --- Magic-state supply ---------------------------------------------
        let ccz_per_gadget = gadget.ccz_count() as f64;
        let ccz_total = counts.lookup_additions as f64 * ccz_per_gadget;
        let ccz_target = budget::per_ccz_target(ccz_total);
        let factory = CczFactory::for_target(&ctx, ccz_target)?;
        let factory_rate = factory.production_rate(&ctx);
        let peak_demand = gadget.peak_ccz_rate(&ctx);
        let factories = factory
            .count_for_demand(&ctx, peak_demand)
            .min(u64::from(self.params.max_factories))
            .max(1);
        let supply = factories as f64 * factory_rate;

        // --- Time -----------------------------------------------------------
        let adder = gadget.adder();
        let lookup = gadget.lookup();
        let t_add = adder
            .duration(&ctx)
            .max(adder.toffoli_count() as f64 / supply);
        let t_lookup = lookup
            .duration(&ctx)
            .max(lookup.ccz_count() as f64 / supply);
        let seconds = counts.lookup_additions as f64 * (t_lookup + t_add);

        // --- Space (peak over the two phases, Fig. 5c,d / Fig. 12a) ---------
        let per_patch = ctx.atoms_per_patch();
        let dense_patch = f64::from(ctx.distance).powi(2); // data-only storage
        let padded = adder.padded_bits() as f64;
        let compression = self.qldpc_storage_compression.unwrap_or(1.0);
        let accumulator = padded * per_patch;
        let multiplier = f64::from(self.instance.n_bits()) * dense_patch / compression;
        let lookup_output = padded * per_patch;
        let ghz = lookup.ghz_patches() * per_patch;
        let pipeline = adder.pipeline_patches(&ctx) * per_patch;
        let factory_qubits = factories as f64 * factory.qubits(&ctx);
        let space = SpaceBreakdown {
            accumulator,
            multiplier,
            lookup_output,
            ghz_fanout: ghz,
            adder_pipeline: pipeline,
            factories: factory_qubits,
        };
        let lookup_phase = accumulator + multiplier + lookup_output + ghz + factory_qubits;
        let addition_phase = accumulator + multiplier + lookup_output + pipeline + factory_qubits;
        let qubits = lookup_phase.max(addition_phase) * (1.0 + ROUTING_OVERHEAD);

        // --- Errors ----------------------------------------------------------
        let gate_error = counts.lookup_additions as f64
            * (lookup.logical_error(&ctx) + adder.logical_error(&ctx));
        let ccz_error = ccz_total * factory.output_error(&ctx);
        let runway_error = counts.lookup_additions as f64
            * f64::from(adder.segments())
            * 0.5f64.powi(self.params.r_pad as i32);
        // Idle error of registers not covered inside the gadgets (multiplier
        // in dense storage over the whole run).
        let t_coh = self.physical.coherence_time;
        let dt = idle::optimal_idle_period(&self.error, ctx.distance, t_coh);
        let idle_rate = idle::idle_error_per_second(&self.error, ctx.distance, dt, t_coh);
        let storage_error = f64::from(self.instance.n_bits()) * seconds * idle_rate;
        let errors = ErrorBreakdown {
            ccz: ccz_error,
            gates: gate_error,
            runways: runway_error,
            storage: storage_error,
        };
        let total_error = errors.total();

        Some(ResourceEstimate {
            qubits,
            seconds,
            total_error,
            distance: ctx.distance,
            factories,
            ccz_total,
            lookup_additions: counts.lookup_additions,
            lookup_seconds: t_lookup,
            addition_seconds: t_add,
            space,
            errors,
        })
    }

    /// Re-selects the smallest odd code distance meeting `total_budget`,
    /// returning the updated architecture and its estimate. Distances where
    /// the magic-state target is unreachable are skipped; if none up to 61
    /// meets the budget, the result is the (over-budget) d = 61 estimate.
    ///
    /// # Panics
    ///
    /// Panics if `total_budget` is not inside `(0, 1)`, or if the |CCZ⟩
    /// target is unreachable at every distance up to 61.
    pub fn with_optimized_distance(self, total_budget: f64) -> (Self, ResourceEstimate) {
        self.optimize_distance(total_budget)
            .unwrap_or_else(|| unreachable_target())
    }

    /// The distance scan of [`TransversalArchitecture::with_optimized_distance`],
    /// or `None` when no distance up to 61 reaches the |CCZ⟩ target.
    fn optimize_distance(mut self, total_budget: f64) -> Option<(Self, ResourceEstimate)> {
        assert!(
            total_budget > 0.0 && total_budget < 1.0,
            "budget must be in (0, 1)"
        );
        let mut estimate = None;
        for d in (9..=MAX_SEARCHED_DISTANCE).step_by(2) {
            self.params.distance = d;
            estimate = self.try_estimate();
            if estimate.is_some_and(|est| est.total_error <= total_budget) {
                break;
            }
        }
        estimate.map(|est| (self, est))
    }
}

fn unreachable_target() -> ! {
    panic!("no code distance <= {MAX_SEARCHED_DISTANCE} reaches the |CCZ> target")
}

/// Physical-qubit breakdown by component (Fig. 12a).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpaceBreakdown {
    /// Runway-padded accumulator register.
    pub accumulator: f64,
    /// Multiplier register in dense idle storage.
    pub multiplier: f64,
    /// Look-up output register.
    pub lookup_output: f64,
    /// GHZ fan-out layer (dominates space during lookup).
    pub ghz_fanout: f64,
    /// Bell-bridged MAJ/UMA pipeline (active during addition).
    pub adder_pipeline: f64,
    /// Magic-state factories (dominate space during addition).
    pub factories: f64,
}

impl SpaceBreakdown {
    /// Components as (name, qubits) pairs, largest first.
    pub fn ranked(&self) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("accumulator", self.accumulator),
            ("multiplier", self.multiplier),
            ("lookup-output", self.lookup_output),
            ("ghz-fanout", self.ghz_fanout),
            ("adder-pipeline", self.adder_pipeline),
            ("factories", self.factories),
        ];
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        v
    }
}

/// Logical-error breakdown by source (Fig. 12b).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorBreakdown {
    /// |CCZ⟩ magic-state errors.
    pub ccz: f64,
    /// Transversal-gate errors of the gadgets (fan-out dominated).
    pub gates: f64,
    /// Oblivious-runway approximation error.
    pub runways: f64,
    /// Dense-storage idling of the multiplier register.
    pub storage: f64,
}

impl ErrorBreakdown {
    /// Total failure probability (union bound).
    pub fn total(&self) -> f64 {
        (self.ccz + self.gates + self.runways + self.storage).min(1.0)
    }
}

/// The result of a resource estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// Peak physical qubits.
    pub qubits: f64,
    /// Wall-clock seconds for one attempt.
    pub seconds: f64,
    /// Total failure probability of one attempt.
    pub total_error: f64,
    /// Code distance used.
    pub distance: u32,
    /// Magic-state factories instantiated.
    pub factories: u64,
    /// Total |CCZ⟩ states consumed.
    pub ccz_total: f64,
    /// Total windowed lookup-additions.
    pub lookup_additions: u64,
    /// Effective per-lookup duration (possibly factory-limited).
    pub lookup_seconds: f64,
    /// Effective per-addition duration (possibly factory-limited).
    pub addition_seconds: f64,
    /// Space breakdown.
    pub space: SpaceBreakdown,
    /// Error breakdown.
    pub errors: ErrorBreakdown,
}

impl ResourceEstimate {
    /// Expected runtime including retries: `t / (1 − p_fail)`.
    pub fn expected_seconds(&self) -> f64 {
        self.seconds / (1.0 - self.total_error.min(0.99))
    }

    /// Expected runtime in days.
    pub fn expected_days(&self) -> f64 {
        self.expected_seconds() / 86_400.0
    }

    /// The space–time cost (expected).
    pub fn space_time(&self) -> SpaceTime {
        SpaceTime::new(self.qubits, self.expected_seconds())
    }
}

impl fmt::Display for ResourceEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}M qubits, {:.2} days (d = {}, {} factories, {:.2e} CCZ, p_fail {:.1}%)",
            self.qubits / 1e6,
            self.expected_days(),
            self.distance,
            self.factories,
            self.ccz_total,
            self.total_error * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_qubits_and_days() {
        // Abstract: "2048-bit RSA factoring can be executed with 19 million
        // qubits in 5.6 days".
        let est = TransversalArchitecture::paper().estimate();
        let mq = est.qubits / 1e6;
        let days = est.expected_days();
        assert!((15.0..24.0).contains(&mq), "qubits = {mq}M");
        assert!((4.5..7.0).contains(&days), "days = {days}");
    }

    #[test]
    fn paper_op_times_survive_assembly() {
        let est = TransversalArchitecture::paper().estimate();
        assert!(
            (est.lookup_seconds - 0.17).abs() < 0.03,
            "{}",
            est.lookup_seconds
        );
        assert!(
            (est.addition_seconds - 0.28).abs() < 0.03,
            "{}",
            est.addition_seconds
        );
    }

    #[test]
    fn ccz_total_about_3e9() {
        let est = TransversalArchitecture::paper().estimate();
        assert!(
            (2.5e9..3.5e9).contains(&est.ccz_total),
            "CCZ total = {:.3e}",
            est.ccz_total
        );
    }

    #[test]
    fn factories_within_table2_cap() {
        let est = TransversalArchitecture::paper().estimate();
        assert!(est.factories <= 192);
        assert!(est.factories >= 64, "factories = {}", est.factories);
    }

    #[test]
    fn error_budget_respected() {
        let est = TransversalArchitecture::paper().estimate();
        assert!(est.total_error < 0.10, "p_fail = {}", est.total_error);
        assert!(est.errors.ccz <= CCZ_BUDGET * 1.01);
    }

    #[test]
    fn breakdown_sums_to_phases() {
        let est = TransversalArchitecture::paper().estimate();
        let s = est.space;
        let lookup_phase =
            s.accumulator + s.multiplier + s.lookup_output + s.ghz_fanout + s.factories;
        assert!(
            est.qubits >= lookup_phase,
            "peak must cover the lookup phase"
        );
        let ranked = s.ranked();
        assert_eq!(ranked.len(), 6);
        assert!(ranked[0].1 >= ranked[5].1);
    }

    #[test]
    fn distance_selection_picks_27ish() {
        let (arch, est) =
            TransversalArchitecture::paper().with_optimized_distance(DEFAULT_TOTAL_BUDGET);
        assert!(
            (25..=29).contains(&arch.params.distance),
            "d = {}",
            arch.params.distance
        );
        assert!(est.total_error <= DEFAULT_TOTAL_BUDGET);
    }

    #[test]
    fn calibrated_with_paper_model_recovers_headline() {
        // Calibrating with the paper's own parameters must land on the
        // paper's optimized operating point.
        let (arch, est) = TransversalArchitecture::calibrated(ErrorModelParams::paper());
        assert_eq!(arch.error.p_phys, 1e-3);
        assert!(
            (25..=29).contains(&arch.params.distance),
            "d = {}",
            arch.params.distance
        );
        assert!(est.total_error <= DEFAULT_TOTAL_BUDGET);
        assert!(est.qubits < 25e6, "qubits = {}", est.qubits);
        assert!(est.expected_days() < 7.0, "days = {}", est.expected_days());
    }

    #[test]
    fn calibrated_reanchors_sweep_level_params_at_hardware_noise() {
        // A fit from an elevated-noise sweep: p_phys = 4e-3, Lambda = 2.4
        // there, so p_thres = 9.6e-3 — close to the paper's 1% but earned
        // from simulation. At hardware 1e-3 that is Lambda = 9.6.
        let sweep_fit = ErrorModelParams {
            c: 0.1,
            p_phys: 4e-3,
            p_thres: 9.6e-3,
            alpha: 0.4,
        };
        let (arch, est) = TransversalArchitecture::calibrated(sweep_fit);
        assert_eq!(arch.error.p_phys, 1e-3);
        assert_eq!(arch.error.p_thres, 9.6e-3);
        assert!((arch.error.lambda() - 9.6).abs() < 1e-12);
        assert!(est.total_error <= DEFAULT_TOTAL_BUDGET);
        // A slightly weaker model than the paper's (Λ 9.6 < 10, α 0.4 >
        // 1/6) costs a somewhat larger distance, not an explosion.
        let paper_d = TransversalArchitecture::paper()
            .with_optimized_distance(DEFAULT_TOTAL_BUDGET)
            .0
            .params
            .distance;
        assert!(
            arch.params.distance >= paper_d && arch.params.distance <= paper_d + 6,
            "d = {} vs paper {paper_d}",
            arch.params.distance
        );
    }

    #[test]
    #[should_panic(expected = "must exceed the hardware")]
    fn calibrated_rejects_threshold_below_hardware_noise() {
        // Lambda 2.4 fitted at p = 4e-3 but never re-anchored would put
        // p_thres = 9.6e-3... a fit claiming p_thres below the hardware
        // rate (e.g. from an above-threshold sweep) must be refused.
        let bad = ErrorModelParams {
            c: 0.1,
            p_phys: 5e-4,
            p_thres: 9e-4,
            alpha: 0.3,
        };
        let _ = TransversalArchitecture::calibrated(bad);
    }

    /// A sweep-level model whose threshold `p_thres` sits close enough to
    /// the hardware rate (10⁻³) that no distance up to 61 may reach the
    /// |CCZ⟩ target.
    fn unreachable_model(p_thres: f64, alpha: f64) -> ErrorModelParams {
        ErrorModelParams {
            c: 0.1,
            p_phys: 4e-3,
            p_thres,
            alpha,
        }
    }

    #[test]
    fn try_calibrated_reports_an_unreachable_target() {
        for p_thres in [1.05e-3, 1.5e-3, 2.0e-3, 2.5e-3] {
            for alpha in [0.0788, 0.2] {
                assert!(
                    TransversalArchitecture::try_calibrated(unreachable_model(p_thres, alpha))
                        .is_none(),
                    "p_thres = {p_thres}, alpha = {alpha}"
                );
            }
        }
        // Just past it, the scan still ends on a reachable distance.
        let (arch, est) = TransversalArchitecture::try_calibrated(unreachable_model(3e-3, 0.0788))
            .expect("reachable at d <= 61");
        assert!(
            (57..=61).contains(&arch.params.distance),
            "d = {}",
            arch.params.distance
        );
        assert_eq!(est.distance, arch.params.distance);
    }

    #[test]
    #[should_panic(expected = "no code distance <= 61 reaches the |CCZ> target")]
    fn calibrated_names_an_unreachable_target() {
        let _ = TransversalArchitecture::calibrated(unreachable_model(2e-3, 0.2));
    }

    #[test]
    fn qldpc_storage_saves_space() {
        let base = TransversalArchitecture::paper().estimate();
        let mut arch = TransversalArchitecture::paper();
        arch.qldpc_storage_compression = Some(10.0);
        let packed = arch.estimate();
        assert!(packed.qubits < base.qubits);
        // §IV.3.4: storage is a minority of the footprint, so the saving is
        // modest (the paper estimates ~20% from a larger storage share; our
        // accumulator/lookup registers stay in surface code).
        let saving = 1.0 - packed.qubits / base.qubits;
        assert!((0.005..0.35).contains(&saving), "saving = {saving}");
    }

    #[test]
    fn fewer_factories_stretch_time() {
        let mut arch = TransversalArchitecture::paper();
        arch.params.max_factories = 32;
        let constrained = arch.estimate();
        let free = TransversalArchitecture::paper().estimate();
        assert!(constrained.seconds > free.seconds);
        assert!(constrained.qubits < free.qubits);
    }

    #[test]
    fn smaller_instance_is_cheaper() {
        let mut arch = TransversalArchitecture::paper();
        arch.instance = FactoringInstance::new(1024);
        arch.params.r_sep = 96;
        let small = arch.estimate();
        let big = TransversalArchitecture::paper().estimate();
        assert!(small.qubits < big.qubits);
        assert!(small.seconds < big.seconds);
    }

    #[test]
    fn display_mentions_days() {
        let est = TransversalArchitecture::paper().estimate();
        assert!(est.to_string().contains("days"));
    }
}
