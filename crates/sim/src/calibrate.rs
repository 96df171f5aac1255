//! The simulation → model → estimate calibration loop (paper §III.4 + §IV).
//!
//! The paper's headline resource estimates plug the Eq. (4) logical-error
//! model — fitted against circuit-level simulations — into the architecture
//! optimizer. [`calibrate`] runs that chain's simulation half end to end:
//! the points of a memory sweep (the `x → 0` anchor for the suppression
//! base Λ) and of a transversal-CNOT sweep (the (α, Λ) joint fit) run as
//! one point queue through the cached, resumable [`Orchestrator`] (one job
//! in the `raa-sweepd` service), the records are fitted via
//! [`crate::analysis`], and the result is converted into
//! [`ErrorModelParams`] anchored at the **sweep's own physical error rate**
//! (`p_thres = Λ·p_phys`, Eq. 2) — not the paper's assumed 1% threshold.
//!
//! Feeding the result into a resource estimate is one call on the `shor`
//! side (`TransversalArchitecture::calibrated` re-anchors the calibrated
//! threshold at the hardware noise rate); the `raa-cal` binary and the
//! `factoring_calibrated` example wire the whole chain together.
//!
//! # Example
//!
//! ```no_run
//! use raa_sim::CalibrationConfig;
//!
//! let mut cfg = CalibrationConfig::default();
//! cfg.cache_dir = Some("target/raa-cal-cache".into());
//! let cal = raa_sim::calibrate(&cfg).unwrap();
//! println!(
//!     "alpha = {:.3}, Lambda = {:.2}, p_thres = {:.4} ({} fresh shots)",
//!     cal.fit.alpha, cal.fit.lambda, cal.params.p_thres, cal.fresh_shots
//! );
//! ```

use crate::analysis;
use crate::error::OrchestratorError;
use crate::orchestrator::Orchestrator;
use crate::record::ExperimentRecord;
use crate::spec::{ExperimentSpec, Rounds, Scenario, ShotBudget, SweepGrid};
use raa_core::fit::FitResult;
use raa_core::ErrorModelParams;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Everything a calibration run depends on. The defaults reproduce the
/// repo's pinned calibration sweep: union–find decoding at an elevated
/// `p_phys = 4×10⁻³` (the substitution rule — the paper's operating point
/// needs ≥10⁸ shots per point), d ∈ {3, 5}, and the Fig. 6a CNOTs-per-round
/// axis, so the default run is deterministic down to the failure counts.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Uniform physical error rate both sweeps run at.
    pub p_phys: f64,
    /// Code distances (both sweeps).
    pub distances: Vec<u32>,
    /// CNOTs-per-round axis of the transversal sweep (the paper's `x`).
    pub cnots_per_round: Vec<f64>,
    /// Shots per memory point.
    pub memory_shots: usize,
    /// Shots per transversal-CNOT point.
    pub cnot_shots: usize,
    /// Memory SE rounds as a multiple of the distance.
    pub memory_rounds_factor: usize,
    /// Transversal CNOTs per circuit in the gate sweep.
    pub cnot_depth: usize,
    /// Eq. (4) prefactor held fixed during the fit.
    pub c: f64,
    /// Memory-sweep grid seed.
    pub memory_seed: u64,
    /// CNOT-sweep grid seed.
    pub cnot_seed: u64,
    /// Content-addressed record cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Concurrent grid points (see [`Orchestrator::with_point_threads`]).
    /// Both grids share one point queue, so a worker that finishes early
    /// takes the next point of either grid.
    pub point_threads: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            p_phys: 4e-3,
            distances: vec![3, 5],
            cnots_per_round: vec![0.5, 1.0, 2.0, 4.0],
            memory_shots: 20_000,
            cnot_shots: 6_000,
            memory_rounds_factor: 3,
            cnot_depth: 16,
            c: 0.1,
            memory_seed: 0x6B,
            cnot_seed: 0x6A,
            cache_dir: None,
            point_threads: 0,
        }
    }
}

impl CalibrationConfig {
    /// The memory sweep this config describes (the Λ anchor).
    pub fn memory_grid(&self) -> SweepGrid {
        SweepGrid::new(
            "cal/memory",
            Scenario::Memory {
                rounds: Rounds::TimesDistance(self.memory_rounds_factor),
            },
        )
        .with_distances(self.distances.clone())
        .with_p_phys(vec![self.p_phys])
        .with_shots(ShotBudget::Fixed(self.memory_shots))
        .with_seed(self.memory_seed)
    }

    /// The transversal-CNOT sweep this config describes (the (α, Λ) fit).
    pub fn cnot_grid(&self) -> SweepGrid {
        SweepGrid::new(
            "cal/cnot",
            Scenario::TransversalCnot {
                patches: 2,
                depth: self.cnot_depth,
                cnots_per_round: 1.0,
            },
        )
        .with_distances(self.distances.clone())
        .with_p_phys(vec![self.p_phys])
        .with_cnots_per_round(self.cnots_per_round.clone())
        .with_shots(ShotBudget::Fixed(self.cnot_shots))
        .with_seed(self.cnot_seed)
    }

    /// Both grids as one point list — the memory grid's points, then the
    /// CNOT grid's, each in grid order — and the memory grid's point count,
    /// where the list's records split. [`calibrate`] and the `raa-sweepd`
    /// service run this list as one unit of work.
    ///
    /// # Errors
    ///
    /// [`CalibrationError::NoDistances`] when the config has no code
    /// distance, so neither grid has a point.
    pub fn specs(&self) -> Result<(Vec<ExperimentSpec>, usize), CalibrationError> {
        self.check()?;
        let mut specs = self.memory_grid().specs();
        let memory_points = specs.len();
        specs.extend(self.cnot_grid().specs());
        Ok((specs, memory_points))
    }

    /// Checks that the config describes a non-empty grid: the one rule
    /// shared by [`CalibrationConfig::specs`] and the wire codec.
    pub(crate) fn check(&self) -> Result<(), CalibrationError> {
        if self.distances.is_empty() {
            return Err(CalibrationError::NoDistances);
        }
        Ok(())
    }

    /// The orchestrator this config runs on.
    pub fn orchestrator(&self) -> io::Result<Orchestrator> {
        let orch = Orchestrator::new().with_point_threads(self.point_threads);
        match &self.cache_dir {
            Some(dir) => orch.with_cache_dir(dir),
            None => Ok(orch),
        }
    }
}

/// Why a calibration run could not produce model parameters.
#[derive(Debug)]
pub enum CalibrationError {
    /// The config lists no code distance, so neither grid has a point.
    NoDistances,
    /// A calibration point failed (cache I/O, a poisoned point, …) — see
    /// [`OrchestratorError`] for the failure classes.
    Sweep(OrchestratorError),
    /// The transversal-CNOT records could not support the (α, Λ) fit
    /// (too few usable points — everything saturated, zero failures, or a
    /// single `(x, d)` coordinate). Raise the shot budget or the noise.
    UnfittableCnotSweep,
    /// The fit converged but found no suppression (Λ ≤ 1): the sweep ran
    /// at or above the decoder's threshold, so Eq. (2) cannot anchor a
    /// `p_thres` from it.
    NoSuppression {
        /// The fitted (non-)suppression base.
        lambda: f64,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::NoDistances => {
                write!(f, "field \"distances\": expected at least one distance")
            }
            CalibrationError::Sweep(e) => write!(f, "calibration sweep failed: {e}"),
            CalibrationError::UnfittableCnotSweep => write!(
                f,
                "transversal-CNOT sweep has too few usable points for the Eq. (4) fit \
                 (raise the shot budget or the physical error rate)"
            ),
            CalibrationError::NoSuppression { lambda } => write!(
                f,
                "fitted Lambda = {lambda} <= 1: the sweep ran at or above threshold, \
                 no p_thres can be anchored (lower the physical error rate)"
            ),
        }
    }
}

impl std::error::Error for CalibrationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalibrationError::Sweep(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OrchestratorError> for CalibrationError {
    fn from(e: OrchestratorError) -> Self {
        CalibrationError::Sweep(e)
    }
}

impl From<io::Error> for CalibrationError {
    fn from(e: io::Error) -> Self {
        CalibrationError::Sweep(OrchestratorError::io("opening the record cache", e))
    }
}

/// The result of a calibration run: the fit, the derived model parameters,
/// the raw records and the cache accounting.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The joint (α, Λ) fit of Eq. (4) to the transversal-CNOT records.
    pub fit: FitResult,
    /// The independent memory-sweep estimate of Λ (the `x → 0` anchor),
    /// when the memory records support one.
    pub lambda_memory: Option<f64>,
    /// Model parameters anchored at the sweep's `p_phys`
    /// (`p_thres = Λ·p_phys`). Re-anchor at a hardware rate with
    /// [`Calibration::params_at`].
    pub params: ErrorModelParams,
    /// Memory-sweep records (grid order).
    pub memory_records: Vec<ExperimentRecord>,
    /// Transversal-CNOT-sweep records (grid order).
    pub cnot_records: Vec<ExperimentRecord>,
    /// Grid points actually simulated this run (both sweeps).
    pub fresh_points: usize,
    /// Grid points replayed from the cache (both sweeps).
    pub cached_points: usize,
    /// Monte-Carlo shots actually sampled this run — 0 on a fully warm
    /// cache.
    pub fresh_shots: usize,
}

impl Calibration {
    /// The calibrated parameters re-anchored at a hardware physical error
    /// rate: keeps the simulation-fitted `p_thres` and `α`, replaces
    /// `p_phys` — the form the architecture estimator consumes.
    ///
    /// # Panics
    ///
    /// Panics if `p_phys` is not inside `(0, p_thres)` (the hardware would
    /// be at or above the calibrated threshold).
    pub fn params_at(&self, p_phys: f64) -> ErrorModelParams {
        self.params.with_p_phys(p_phys)
    }
}

/// Runs the full calibration: the memory and transversal-CNOT points as one
/// point queue ([`CalibrationConfig::specs`]) through the cached
/// orchestrator, fits (α, Λ), and anchors [`ErrorModelParams`] at the
/// sweep's actual `p_phys`. No point waits for the other grid to finish.
///
/// # Errors
///
/// [`CalibrationError::NoDistances`] when the config has no code distance;
/// [`CalibrationError::Sweep`] when a point fails (cache I/O past the
/// retry budget, a poisoned point, a worker-pool misconfiguration);
/// [`CalibrationError::UnfittableCnotSweep`] /
/// [`CalibrationError::NoSuppression`] when the records cannot support the
/// fit (see [`crate::analysis::fit_eq4`]).
pub fn calibrate(cfg: &CalibrationConfig) -> Result<Calibration, CalibrationError> {
    let (specs, memory_points) = cfg.specs()?;
    let mut sweep = cfg.orchestrator()?.run_specs(&specs)?;
    let cnot_records = sweep.records.split_off(memory_points);
    fit_calibration(
        cfg,
        sweep.records,
        cnot_records,
        sweep.fresh_points,
        sweep.cached_points,
        sweep.fresh_shots,
    )
}

/// The fitting half of [`calibrate`], decoupled from how the records were
/// produced: the `raa-sweepd` service runs both grids' points as one job on
/// its shared worker pool and hands the records here, so the daemon and the
/// in-process path share one fit (and one set of error conditions).
///
/// # Errors
///
/// [`CalibrationError::UnfittableCnotSweep`] /
/// [`CalibrationError::NoSuppression`] as for [`calibrate`].
pub fn fit_calibration(
    cfg: &CalibrationConfig,
    memory_records: Vec<ExperimentRecord>,
    cnot_records: Vec<ExperimentRecord>,
    fresh_points: usize,
    cached_points: usize,
    fresh_shots: usize,
) -> Result<Calibration, CalibrationError> {
    let fit =
        analysis::fit_eq4(&cnot_records, cfg.c).ok_or(CalibrationError::UnfittableCnotSweep)?;
    if fit.lambda <= 1.0 {
        return Err(CalibrationError::NoSuppression { lambda: fit.lambda });
    }
    let params = fit.to_params(cfg.p_phys);
    let lambda_memory = analysis::memory_lambda(&memory_records);

    Ok(Calibration {
        fit,
        lambda_memory,
        params,
        memory_records,
        cnot_records,
        fresh_points,
        cached_points,
        fresh_shots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    fn tiny_config(cache_dir: Option<&Path>) -> CalibrationConfig {
        CalibrationConfig {
            memory_shots: 1_500,
            cnot_shots: 1_000,
            cache_dir: cache_dir.map(Into::into),
            ..CalibrationConfig::default()
        }
    }

    #[test]
    fn tiny_calibration_fits_and_anchors_threshold_at_sweep_noise() {
        let cal = calibrate(&tiny_config(None)).expect("fittable");
        assert!(cal.fit.lambda > 1.0, "Lambda = {}", cal.fit.lambda);
        assert!(cal.fit.alpha > 0.0, "alpha = {}", cal.fit.alpha);
        assert_eq!(cal.params.p_phys, 4e-3);
        assert!((cal.params.p_thres - cal.fit.lambda * 4e-3).abs() < 1e-15);
        let lambda_mem = cal.lambda_memory.expect("two distances");
        // Joint fit and memory anchor must agree on the suppression scale.
        assert!(
            (0.4..2.5).contains(&(cal.fit.lambda / lambda_mem)),
            "joint {} vs memory {lambda_mem}",
            cal.fit.lambda
        );
        assert_eq!(cal.cached_points, 0);
        assert_eq!(cal.fresh_points, 2 + 8);
        assert_eq!(cal.fresh_shots, 2 * 1_500 + 8 * 1_000);
        // Re-anchoring at hardware noise keeps the calibrated threshold.
        let hw = cal.params_at(1e-3);
        assert_eq!(hw.p_thres, cal.params.p_thres);
        assert!(hw.lambda() > cal.fit.lambda);
    }

    #[test]
    fn warm_calibration_is_free_and_identical() {
        let dir = std::env::temp_dir().join(format!("raa-cal-warm-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = tiny_config(Some(&dir));
        let cold = calibrate(&cfg).expect("fittable");
        assert!(cold.fresh_shots > 0);
        let warm = calibrate(&cfg).expect("fittable");
        assert_eq!(warm.fresh_shots, 0);
        assert_eq!(warm.fresh_points, 0);
        assert_eq!(warm.cached_points, cold.fresh_points);
        assert_eq!(warm.fit, cold.fit);
        for (a, b) in cold
            .memory_records
            .iter()
            .chain(&cold.cnot_records)
            .zip(warm.memory_records.iter().chain(&warm.cnot_records))
        {
            assert_eq!(a.to_json(), b.to_json());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hopeless_statistics_return_unfittable_not_nan() {
        let cfg = CalibrationConfig {
            p_phys: 1e-4,
            memory_shots: 8,
            cnot_shots: 8,
            ..CalibrationConfig::default()
        };
        match calibrate(&cfg) {
            Err(CalibrationError::UnfittableCnotSweep) => {}
            other => panic!("expected UnfittableCnotSweep, got {other:?}"),
        }
    }

    #[test]
    fn no_distances_is_a_typed_error_not_a_panic() {
        let cfg = CalibrationConfig {
            distances: vec![],
            ..tiny_config(None)
        };
        let result = std::panic::catch_unwind(|| calibrate(&cfg)).expect("calibrate never panics");
        match result {
            Err(e @ CalibrationError::NoDistances) => assert_eq!(
                e.to_string(),
                "field \"distances\": expected at least one distance"
            ),
            other => panic!("expected NoDistances, got {other:?}"),
        }
    }
}
