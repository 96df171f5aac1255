//! Fitting engine records to the paper's logical-error model (Eq. 4).
//!
//! These helpers bridge [`ExperimentRecord`]s and [`raa_core::fit`]: a
//! transversal-CNOT sweep yields per-CNOT error points for the (α, Λ) fit,
//! and a memory sweep over distances yields the suppression base Λ directly
//! from the per-round error slope.

use crate::record::ExperimentRecord;
use raa_core::fit::{fit_cnot_model, CnotErrorPoint, FitResult};

/// Per-CNOT (and per-round) error rates above which a point is dropped from
/// fits (the model only holds well below saturation; same cut as the
/// paper's figures).
pub(crate) const MAX_FITTABLE_RATE: f64 = 0.4;

/// Extracts the Eq. (4) fit points from transversal-CNOT records: one point
/// per record with a measured per-CNOT error in `(0, 0.4)`.
pub fn cnot_points(records: &[ExperimentRecord]) -> Vec<CnotErrorPoint> {
    records
        .iter()
        .filter(|r| r.scenario == "transversal_cnot")
        .filter_map(|r| {
            let x = r.cnots_per_round?;
            let e = r.error_per_cnot()?;
            (e > 0.0 && e < MAX_FITTABLE_RATE).then_some(CnotErrorPoint {
                x,
                distance: r.distance,
                error_per_cnot: e,
            })
        })
        .collect()
}

/// Fits (α, Λ) of Eq. (4) to the transversal-CNOT records with the
/// prefactor `c` held fixed. Returns `None` with fewer than two usable
/// points, or when the usable points cannot support the two-parameter fit
/// (e.g. every record saturated above `MAX_FITTABLE_RATE`, produced zero
/// failures, or collapsed onto a single `(x, d)` coordinate — see
/// [`raa_core::fit::fit_cnot_model`]).
pub fn fit_eq4(records: &[ExperimentRecord], c: f64) -> Option<FitResult> {
    let points = cnot_points(records);
    if points.len() < 2 {
        return None;
    }
    fit_cnot_model(&points, c)
}

/// Estimates the suppression base Λ from memory records across distances:
/// least-squares slope of `ln(p_round)` against `(d + 1)/2` (the Eq. 4
/// exponent), so `Λ = exp(−slope)`. Returns `None` without at least two
/// distinct distances carrying a usable rate — nonzero, finite and below
/// `MAX_FITTABLE_RATE` (saturated points carry no slope information and
/// would drag the fit toward Λ = 1).
pub fn memory_lambda(records: &[ExperimentRecord]) -> Option<f64> {
    let points: Vec<(f64, f64)> = records
        .iter()
        .filter(|r| r.scenario == "memory")
        .filter_map(|r| {
            let rate = r.error_per_qubit_round();
            (rate.is_finite() && rate > 0.0 && rate < MAX_FITTABLE_RATE)
                .then(|| (f64::from(r.distance + 1) / 2.0, rate.ln()))
        })
        .collect();
    let distinct = {
        let mut ds: Vec<u64> = points.iter().map(|&(t, _)| t.to_bits()).collect();
        ds.sort_unstable();
        ds.dedup();
        ds.len()
    };
    if distinct < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mean_t = points.iter().map(|&(t, _)| t).sum::<f64>() / n;
    let mean_y = points.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let cov: f64 = points
        .iter()
        .map(|&(t, y)| (t - mean_t) * (y - mean_y))
        .sum();
    let var: f64 = points.iter().map(|&(t, _)| (t - mean_t).powi(2)).sum();
    let lambda = (-cov / var).exp();
    lambda.is_finite().then_some(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_surface::{Basis, NoiseModel};

    fn record(
        scenario: &str,
        d: u32,
        x: Option<f64>,
        shots: usize,
        failures: usize,
    ) -> ExperimentRecord {
        ExperimentRecord {
            name: format!("{scenario}/d{d}"),
            scenario: scenario.into(),
            distance: d,
            basis: Basis::Z,
            patches: if scenario == "memory" { 1 } else { 2 },
            cnots: if scenario == "memory" { 0 } else { 8 },
            se_rounds: 3 * d as usize,
            cnots_per_round: x,
            noise: NoiseModel::uniform(4e-3),
            decoder: "union_find".into(),
            sampler: "dem".into(),
            streaming: false,
            seed: 1,
            num_detectors: 10,
            num_dem_errors: 10,
            arbitrary_decompositions: 0,
            shots,
            failures,
        }
    }

    #[test]
    fn cnot_points_filter_scenario_and_range() {
        let records = vec![
            record("transversal_cnot", 3, Some(1.0), 1000, 100),
            record("transversal_cnot", 3, Some(2.0), 1000, 0), // zero rate: dropped
            record("transversal_cnot", 3, Some(0.5), 1000, 999), // saturated: dropped
            record("memory", 3, None, 1000, 50),               // wrong scenario
        ];
        let points = cnot_points(&records);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].x, 1.0);
    }

    #[test]
    fn fit_needs_two_points() {
        let one = vec![record("transversal_cnot", 3, Some(1.0), 1000, 100)];
        assert!(fit_eq4(&one, 0.1).is_none());
        let two = vec![
            record("transversal_cnot", 3, Some(1.0), 1000, 100),
            record("transversal_cnot", 5, Some(1.0), 1000, 40),
        ];
        let fit = fit_eq4(&two, 0.1).expect("two usable points");
        assert!(fit.alpha > 0.0 && fit.lambda > 1.0);
    }

    #[test]
    fn memory_lambda_recovers_known_suppression() {
        // Synthesize per-round rates that fall by exactly 4× per unit of
        // (d+1)/2: Λ must come out as 4.
        let mut records = Vec::new();
        for (d, rate) in [(3u32, 4e-2f64), (5, 1e-2), (7, 2.5e-3)] {
            let se_rounds = 3 * d as usize;
            let p_shot = 1.0 - (1.0 - rate).powi(se_rounds as i32);
            let shots = 1_000_000usize;
            let failures = (p_shot * shots as f64).round() as usize;
            records.push(record("memory", d, None, shots, failures));
        }
        let lambda = memory_lambda(&records).expect("three distances");
        assert!((lambda - 4.0).abs() < 0.05, "lambda = {lambda}");
    }

    #[test]
    fn memory_lambda_needs_two_distances() {
        let records = vec![
            record("memory", 3, None, 1000, 10),
            record("memory", 3, None, 1000, 12),
        ];
        assert!(memory_lambda(&records).is_none());
        assert!(memory_lambda(&[]).is_none());
    }

    #[test]
    fn memory_lambda_rejects_saturated_and_zero_rate_records() {
        // Every shot failing pushes the per-round rate to saturation: no
        // usable slope, so the estimator must decline rather than report a
        // Λ ≈ 1 artifact.
        let saturated = vec![
            record("memory", 3, None, 1000, 1000),
            record("memory", 5, None, 1000, 1000),
        ];
        assert!(memory_lambda(&saturated).is_none());
        // Zero failures everywhere: likewise no information.
        let silent = vec![
            record("memory", 3, None, 1000, 0),
            record("memory", 5, None, 1000, 0),
        ];
        assert!(memory_lambda(&silent).is_none());
        // One saturated distance must not poison a fit that still has two
        // usable distances.
        let mixed = vec![
            record("memory", 3, None, 1000, 1000),
            record("memory", 5, None, 1000, 100),
            record("memory", 7, None, 1000, 25),
        ];
        let lambda = memory_lambda(&mixed).expect("two usable distances");
        assert!(lambda > 1.0, "lambda = {lambda}");
    }

    #[test]
    fn fit_eq4_declines_degenerate_sweeps() {
        // All records at one (x, d): survives the point filter but cannot
        // identify two parameters.
        let replicated = vec![
            record("transversal_cnot", 3, Some(1.0), 1000, 100),
            record("transversal_cnot", 3, Some(1.0), 1000, 110),
            record("transversal_cnot", 3, Some(1.0), 1000, 90),
        ];
        assert!(fit_eq4(&replicated, 0.1).is_none());
        // Everything saturated above MAX_FITTABLE_RATE: zero usable points.
        let saturated = vec![
            record("transversal_cnot", 3, Some(1.0), 1000, 999),
            record("transversal_cnot", 5, Some(2.0), 1000, 998),
        ];
        assert!(fit_eq4(&saturated, 0.1).is_none());
        // Zero failures everywhere: likewise.
        let silent = vec![
            record("transversal_cnot", 3, Some(1.0), 1000, 0),
            record("transversal_cnot", 5, Some(2.0), 1000, 0),
        ];
        assert!(fit_eq4(&silent, 0.1).is_none());
    }
}
