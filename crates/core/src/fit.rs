//! Fitting the logical-error model to simulation data (Fig. 6a).
//!
//! Given measured per-CNOT logical error rates at several `(x, d)` points,
//! fit the decoding factor `α` and suppression base `Λ` of Eq. (4) by
//! minimizing squared log-residuals, with the prefactor `C` fixed (the paper
//! keeps `C = 0.1` for literature consistency and takes only the relative
//! coefficients from the fit, finding `α ≈ 1/6` and `Λ` closer to 20 for the
//! MLE decoder at `p_phys = 0.1%`).

use crate::params::ErrorModelParams;

/// One measured data point for the Eq. (4) fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnotErrorPoint {
    /// Transversal CNOTs per SE round.
    pub x: f64,
    /// Code distance.
    pub distance: u32,
    /// Measured logical error per CNOT (both qubits).
    pub error_per_cnot: f64,
}

impl CnotErrorPoint {
    /// Whether the point can enter a fit: finite positive `x`, and an error
    /// rate strictly inside `(0, 1)`.
    pub fn is_fittable(&self) -> bool {
        self.x.is_finite()
            && self.x > 0.0
            && self.error_per_cnot.is_finite()
            && self.error_per_cnot > 0.0
            && self.error_per_cnot < 1.0
    }
}

/// Result of fitting Eq. (4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// Fitted decoding factor α.
    pub alpha: f64,
    /// Fitted suppression base Λ.
    pub lambda: f64,
    /// Prefactor C used (held fixed).
    pub c: f64,
    /// Mean squared log-residual at the optimum.
    pub residual: f64,
}

impl FitResult {
    /// Converts the fit into model parameters anchored at the physical
    /// error rate `p_phys` the fitted sweep actually ran at: the fitted
    /// suppression base fixes the threshold as `p_thres = Λ · p_phys`
    /// (Eq. 2), so the returned parameters reproduce the sweep's measured
    /// rates at its own noise level. Re-anchor to a different hardware rate
    /// with [`ErrorModelParams::with_p_phys`] (which keeps `p_thres`).
    ///
    /// # Panics
    ///
    /// Panics if `p_phys` is not finite and positive, or if the fitted Λ is
    /// not above 1 (no suppression — the parameters would put the model at
    /// or above threshold).
    pub fn to_params(&self, p_phys: f64) -> ErrorModelParams {
        assert!(
            p_phys.is_finite() && p_phys > 0.0,
            "sweep p_phys must be finite and positive, got {p_phys}"
        );
        assert!(
            self.lambda > 1.0,
            "fitted Lambda must exceed 1 (below-threshold), got {}",
            self.lambda
        );
        ErrorModelParams {
            c: self.c,
            p_phys,
            p_thres: self.lambda * p_phys,
            alpha: self.alpha,
        }
    }

    /// Converts the fit into model parameters at the paper's assumed
    /// `p_thres = 1%` (so `p_phys = p_thres/Λ`) — the historical behaviour,
    /// appropriate only when the fit came from data at the paper's operating
    /// point. For simulation-calibrated parameters use
    /// [`FitResult::to_params`] with the sweep's actual physical error rate.
    pub fn to_params_paper(&self) -> ErrorModelParams {
        let p_thres = 1e-2;
        ErrorModelParams {
            c: self.c,
            p_phys: p_thres / self.lambda,
            p_thres,
            alpha: self.alpha,
        }
    }
}

/// Relative margin of the coarse grid's pre-filter. The filter scores a
/// cell with `ln(αx + 1) − ln Λ` in place of `ln((αx + 1)/Λ)`. The two
/// forms differ by a few ulps (≲ 10⁻¹⁴ while |ln| ≤ 10), scaled by
/// `k = (d + 1)/2` in each point's residual, so by Cauchy–Schwarz the mean
/// squared residuals `r` and `r̃` differ by ≲ 10⁻¹²·√r for d ≤
/// [`FILTER_MAX_DISTANCE`] (and by ≲ 10⁻¹⁰·(1 + r̃) even at the extreme
/// logarithms of finite inputs). Summing up to [`FILTER_MAX_POINTS`]
/// squares adds at most ≈ 10⁻¹⁰ relative error to each. All of it is far
/// below `FILTER_MARGIN·(1 + r̃)`, so a cell with
/// `r̃ − FILTER_MARGIN·(1 + r̃) ≥ best` has `r ≥ best`, and the strict `<`
/// of the search would not have taken it.
const FILTER_MARGIN: f64 = 1e-9;

/// Largest distance and point count for which the [`FILTER_MARGIN`] bound
/// holds; a larger set evaluates every grid cell exactly.
const FILTER_MAX_DISTANCE: u32 = 99;
const FILTER_MAX_POINTS: usize = 1 << 20;

/// One data point in prepared form: its residual at `(α, Λ)` is
/// `(lc + k·ln((α·x + 1)/Λ)) − y`.
#[derive(Debug, Clone, Copy)]
struct PreparedPoint {
    /// `ln(2C/x)`.
    lc: f64,
    /// `(d + 1)/2`.
    k: f64,
    /// `ln` of the measured error per CNOT.
    y: f64,
    /// Index of the point's `x` among the distinct values.
    xi: usize,
}

/// The fit's objective, the mean squared log-residual of Eq. (4), with
/// everything that does not depend on `(α, Λ)` computed once per fit and
/// one logarithm per distinct `x` per evaluation. Each residual is the
/// sequence of operations `ln(2C/x) + (d + 1)/2 · ln((αx + 1)/Λ) − ln e`
/// on the same operands in the same order as the direct form, so every
/// residual keeps its bits.
struct Objective {
    /// The distinct `x` values (compared by bits).
    xs: Vec<f64>,
    points: Vec<PreparedPoint>,
    /// One logarithm per distinct `x`, refilled by each evaluation.
    logs: Vec<f64>,
}

impl Objective {
    fn new(points: &[CnotErrorPoint], c: f64) -> Self {
        let mut bits: Vec<u64> = points.iter().map(|p| p.x.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        let points = points
            .iter()
            .map(|p| PreparedPoint {
                lc: (2.0 * c / p.x).ln(),
                k: f64::from(p.distance + 1) / 2.0,
                y: p.error_per_cnot.ln(),
                xi: bits
                    .binary_search(&p.x.to_bits())
                    .expect("every x was collected"),
            })
            .collect();
        Self {
            xs: bits.iter().map(|&b| f64::from_bits(b)).collect(),
            points,
            logs: vec![0.0; bits.len()],
        }
    }

    /// The exact mean squared log-residual at `(alpha, lambda)`.
    fn exact(&mut self, alpha: f64, lambda: f64) -> f64 {
        for (log, &x) in self.logs.iter_mut().zip(&self.xs) {
            *log = ((alpha * x + 1.0) / lambda).ln();
        }
        self.mean_square()
    }

    /// The pre-filter's approximate residual, from `row[i] = ln(α·xᵢ + 1)`
    /// and `ln Λ`: no logarithm per cell.
    fn approx(&mut self, row: &[f64], ln_lambda: f64) -> f64 {
        for (log, &ln_ax1) in self.logs.iter_mut().zip(row) {
            *log = ln_ax1 - ln_lambda;
        }
        self.mean_square()
    }

    fn mean_square(&self) -> f64 {
        let mut sum = 0.0;
        for p in &self.points {
            let r = (p.lc + p.k * self.logs[p.xi]) - p.y;
            sum += r * r;
        }
        sum / self.points.len() as f64
    }
}

/// Fits `(α, Λ)` of Eq. (4) to the data with `C` held fixed.
///
/// Searches a coarse log grid (α from 0.01 to 3.0 and Λ from 1.5 to 60,
/// both in ×1.1 steps), then refines the best cell by coordinate steps;
/// robust for the handful-of-points fits this is used for.
///
/// The objective is prepared once per call: each point's `ln(2C/x)`,
/// `(d + 1)/2` and `ln e` are taken up front, and an evaluation takes one
/// logarithm per distinct `x` rather than one per point. Every residual is
/// still the same floating-point operations on the same operands as the
/// direct `ln(model) − ln e`, so it keeps its bits. On the coarse grid a
/// certified pre-filter scores each cell with `ln(αx + 1) − ln Λ` (no
/// logarithm per cell) and skips the exact residual only where that
/// approximation's rounding bound proves the cell cannot beat the running
/// best under the search's strict `<`. The fitted α, Λ and residual are
/// therefore bit-for-bit those of evaluating every cell exactly.
///
/// Returns `None` when the data cannot support a meaningful two-parameter
/// fit instead of producing NaN/∞ or a misleading optimum:
///
/// * `points` is empty, or `c` is not finite and positive;
/// * any point is unusable (non-finite or non-positive `x`, error rate
///   outside `(0, 1)` — saturated and zero-failure points must be filtered
///   by the caller, see `raa-sim`'s `analysis::cnot_points`);
/// * all points share one `(x, d)` coordinate (zero variance: α and Λ are
///   not separately identifiable).
///
/// # Example
///
/// ```
/// use raa_core::fit::{fit_cnot_model, CnotErrorPoint};
/// use raa_core::logical;
/// use raa_core::ErrorModelParams;
///
/// // Synthesize data from the model itself and recover the parameters.
/// let truth = ErrorModelParams::paper();
/// let points: Vec<CnotErrorPoint> = [(0.5, 11), (1.0, 11), (2.0, 15), (4.0, 15)]
///     .iter()
///     .map(|&(x, d)| CnotErrorPoint {
///         x,
///         distance: d,
///         error_per_cnot: logical::cnot_error(&truth, d, x),
///     })
///     .collect();
/// let fit = fit_cnot_model(&points, 0.1).expect("distinct, in-range points");
/// assert!((fit.alpha - 1.0 / 6.0).abs() < 0.02);
/// assert!((fit.lambda - 10.0).abs() < 0.5);
/// assert!(fit_cnot_model(&[], 0.1).is_none());
/// ```
pub fn fit_cnot_model(points: &[CnotErrorPoint], c: f64) -> Option<FitResult> {
    if points.is_empty() || !(c.is_finite() && c > 0.0) {
        return None;
    }
    if points.iter().any(|p| !p.is_fittable()) {
        return None;
    }
    // A two-parameter fit needs at least two distinct (x, d) coordinates;
    // replicated shots at one coordinate carry no slope information and the
    // grid search would hand back an arbitrary ridge point.
    let distinct = {
        let mut coords: Vec<(u64, u32)> =
            points.iter().map(|p| (p.x.to_bits(), p.distance)).collect();
        coords.sort_unstable();
        coords.dedup();
        coords.len()
    };
    if distinct < 2 {
        return None;
    }
    let mut objective = Objective::new(points, c);
    let filter = points.len() <= FILTER_MAX_POINTS
        && points.iter().all(|p| p.distance <= FILTER_MAX_DISTANCE);
    // Coarse grid. Every row walks the same Λ column, so its values and
    // their logarithms are taken once.
    let mut column = Vec::new();
    let mut lambda: f64 = 1.5;
    while lambda <= 60.0 {
        column.push((lambda, lambda.ln()));
        lambda *= 1.1;
    }
    let mut row = vec![0.0; objective.xs.len()];
    let mut best = (f64::INFINITY, 0.2, 10.0);
    let mut alpha = 0.01;
    while alpha <= 3.0 {
        for (ln_ax1, &x) in row.iter_mut().zip(&objective.xs) {
            *ln_ax1 = (alpha * x + 1.0).ln();
        }
        for &(lambda, ln_lambda) in &column {
            // Certified skip (see `FILTER_MARGIN`); it never fires while
            // the best is still infinite, nor on a NaN approximation.
            if filter {
                let approx = objective.approx(&row, ln_lambda);
                if approx - FILTER_MARGIN * (1.0 + approx) >= best.0 {
                    continue;
                }
            }
            let r = objective.exact(alpha, lambda);
            if r < best.0 {
                best = (r, alpha, lambda);
            }
        }
        alpha *= 1.1;
    }
    // Coordinate refinement.
    let (mut r_best, mut a_best, mut l_best) = best;
    let mut step = 0.3;
    for _ in 0..60 {
        let mut improved = false;
        for (da, dl) in [
            (1.0 + step, 1.0),
            (1.0 / (1.0 + step), 1.0),
            (1.0, 1.0 + step),
            (1.0, 1.0 / (1.0 + step)),
        ] {
            let (a, l) = (a_best * da, l_best * dl);
            let r = objective.exact(a, l);
            if r < r_best {
                r_best = r;
                a_best = a;
                l_best = l;
                improved = true;
            }
        }
        if !improved {
            step *= 0.5;
            if step < 1e-6 {
                break;
            }
        }
    }
    if !(a_best.is_finite() && l_best.is_finite() && r_best.is_finite()) {
        return None;
    }
    Some(FitResult {
        alpha: a_best,
        lambda: l_best,
        c,
        residual: r_best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical;
    use crate::test_rng::SplitMix;
    use proptest::prelude::*;

    fn synthetic(params: &ErrorModelParams, grid: &[(f64, u32)]) -> Vec<CnotErrorPoint> {
        grid.iter()
            .map(|&(x, d)| CnotErrorPoint {
                x,
                distance: d,
                error_per_cnot: logical::cnot_error(params, d, x),
            })
            .collect()
    }

    #[test]
    fn recovers_paper_parameters_from_clean_data() {
        let truth = ErrorModelParams::paper();
        let points = synthetic(
            &truth,
            &[(0.25, 7), (0.5, 9), (1.0, 11), (2.0, 13), (4.0, 15)],
        );
        let fit = fit_cnot_model(&points, truth.c).expect("clean data");
        assert!(
            (fit.alpha - truth.alpha).abs() < 0.01,
            "alpha {}",
            fit.alpha
        );
        assert!(
            (fit.lambda - truth.lambda()).abs() < 0.3,
            "lambda {}",
            fit.lambda
        );
        assert!(fit.residual < 1e-6);
    }

    #[test]
    fn recovers_larger_alpha() {
        let truth = ErrorModelParams::paper().with_alpha(0.5);
        let points = synthetic(&truth, &[(0.5, 7), (1.0, 9), (2.0, 11), (4.0, 13)]);
        let fit = fit_cnot_model(&points, truth.c).expect("clean data");
        assert!((fit.alpha - 0.5).abs() < 0.05, "alpha {}", fit.alpha);
    }

    #[test]
    fn tolerates_noisy_data() {
        let truth = ErrorModelParams::paper();
        let mut points = synthetic(&truth, &[(0.5, 7), (1.0, 9), (2.0, 11), (4.0, 13)]);
        for (i, p) in points.iter_mut().enumerate() {
            // ±20% multiplicative noise.
            p.error_per_cnot *= 1.0 + 0.2 * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let fit = fit_cnot_model(&points, truth.c).expect("noisy but distinct data");
        assert!(
            (fit.alpha - truth.alpha).abs() < 0.15,
            "alpha {}",
            fit.alpha
        );
        assert!((fit.lambda - 10.0).abs() < 3.0, "lambda {}", fit.lambda);
    }

    #[test]
    fn to_params_anchors_threshold_at_sweep_noise() {
        let fit = FitResult {
            alpha: 0.25,
            lambda: 20.0,
            c: 0.1,
            residual: 0.0,
        };
        // Regression for the hard-coded p_thres = 1e-2: a sweep at
        // p2 = 4e-3 (≠ 1e-3) must anchor the threshold at Λ·p_phys, not at
        // the paper's assumed 1%.
        let p_sweep = 4e-3;
        let params = fit.to_params(p_sweep);
        assert_eq!(params.p_phys, p_sweep);
        assert!((params.p_thres - 20.0 * p_sweep).abs() < 1e-15);
        assert!((params.lambda() - 20.0).abs() < 1e-9);
        assert_eq!(params.alpha, 0.25);
        // Re-anchoring to hardware noise keeps the calibrated threshold.
        let hw = params.with_p_phys(1e-3);
        assert_eq!(hw.p_thres, params.p_thres);
        assert!((hw.lambda() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn to_params_paper_keeps_one_percent_threshold() {
        let fit = FitResult {
            alpha: 0.25,
            lambda: 20.0,
            c: 0.1,
            residual: 0.0,
        };
        let params = fit.to_params_paper();
        assert_eq!(params.p_thres, 1e-2);
        assert!((params.lambda() - 20.0).abs() < 1e-9);
        assert_eq!(params.alpha, 0.25);
    }

    #[test]
    #[should_panic(expected = "below-threshold")]
    fn to_params_rejects_unsuppressed_fit() {
        let fit = FitResult {
            alpha: 0.25,
            lambda: 0.9,
            c: 0.1,
            residual: 0.0,
        };
        let _ = fit.to_params(4e-3);
    }

    #[test]
    fn rejects_empty_and_degenerate_inputs() {
        assert!(fit_cnot_model(&[], 0.1).is_none(), "empty");
        let p = |x: f64, d: u32, e: f64| CnotErrorPoint {
            x,
            distance: d,
            error_per_cnot: e,
        };
        // All points at one (x, d): zero variance, not identifiable.
        let replicated = vec![p(1.0, 3, 0.01), p(1.0, 3, 0.012), p(1.0, 3, 0.011)];
        assert!(fit_cnot_model(&replicated, 0.1).is_none(), "one coordinate");
        // Out-of-range or non-finite rates.
        assert!(fit_cnot_model(&[p(1.0, 3, 0.0), p(2.0, 3, 0.01)], 0.1).is_none());
        assert!(fit_cnot_model(&[p(1.0, 3, 1.0), p(2.0, 3, 0.01)], 0.1).is_none());
        assert!(fit_cnot_model(&[p(1.0, 3, f64::NAN), p(2.0, 3, 0.01)], 0.1).is_none());
        // Bad x.
        assert!(fit_cnot_model(&[p(0.0, 3, 0.01), p(2.0, 3, 0.02)], 0.1).is_none());
        assert!(fit_cnot_model(&[p(f64::INFINITY, 3, 0.01), p(2.0, 3, 0.02)], 0.1).is_none());
        // Bad prefactor.
        assert!(fit_cnot_model(&[p(1.0, 3, 0.01), p(2.0, 3, 0.02)], 0.0).is_none());
        assert!(fit_cnot_model(&[p(1.0, 3, 0.01), p(2.0, 3, 0.02)], f64::NAN).is_none());
        // Two distances at one x still identify the exponent: fittable.
        assert!(fit_cnot_model(&[p(1.0, 3, 0.05), p(1.0, 5, 0.01)], 0.1).is_some());
    }

    /// The fit before its objective was prepared and filtered, kept
    /// verbatim as the exactness oracle.
    mod reference {
        use super::super::{CnotErrorPoint, FitResult};

        fn model_log(c: f64, alpha: f64, lambda: f64, x: f64, d: u32) -> f64 {
            let base = (alpha * x + 1.0) / lambda;
            (2.0 * c / x).ln() + f64::from(d + 1) / 2.0 * base.ln()
        }

        fn residual(points: &[CnotErrorPoint], c: f64, alpha: f64, lambda: f64) -> f64 {
            let mut sum = 0.0;
            for p in points {
                let r = model_log(c, alpha, lambda, p.x, p.distance) - p.error_per_cnot.ln();
                sum += r * r;
            }
            sum / points.len() as f64
        }

        pub fn fit_cnot_model(points: &[CnotErrorPoint], c: f64) -> Option<FitResult> {
            if points.is_empty() || !(c.is_finite() && c > 0.0) {
                return None;
            }
            if points.iter().any(|p| !p.is_fittable()) {
                return None;
            }
            // A two-parameter fit needs at least two distinct (x, d) coordinates;
            // replicated shots at one coordinate carry no slope information and the
            // grid search would hand back an arbitrary ridge point.
            let distinct = {
                let mut coords: Vec<(u64, u32)> =
                    points.iter().map(|p| (p.x.to_bits(), p.distance)).collect();
                coords.sort_unstable();
                coords.dedup();
                coords.len()
            };
            if distinct < 2 {
                return None;
            }
            // Coarse grid.
            let mut best = (f64::INFINITY, 0.2, 10.0);
            let mut alpha = 0.01;
            while alpha <= 3.0 {
                let mut lambda = 1.5;
                while lambda <= 60.0 {
                    let r = residual(points, c, alpha, lambda);
                    if r < best.0 {
                        best = (r, alpha, lambda);
                    }
                    lambda *= 1.1;
                }
                alpha *= 1.1;
            }
            // Coordinate refinement.
            let (mut r_best, mut a_best, mut l_best) = best;
            let mut step = 0.3;
            for _ in 0..60 {
                let mut improved = false;
                for (da, dl) in [
                    (1.0 + step, 1.0),
                    (1.0 / (1.0 + step), 1.0),
                    (1.0, 1.0 + step),
                    (1.0, 1.0 / (1.0 + step)),
                ] {
                    let (a, l) = (a_best * da, l_best * dl);
                    let r = residual(points, c, a, l);
                    if r < r_best {
                        r_best = r;
                        a_best = a;
                        l_best = l;
                        improved = true;
                    }
                }
                if !improved {
                    step *= 0.5;
                    if step < 1e-6 {
                        break;
                    }
                }
            }
            if !(a_best.is_finite() && l_best.is_finite() && r_best.is_finite()) {
                return None;
            }
            Some(FitResult {
                alpha: a_best,
                lambda: l_best,
                c,
                residual: r_best,
            })
        }
    }

    /// A random fit set: `x` on the calibration axis or 1–5 random values
    /// (sometimes repeated), distances from {3, …, 11} (rarely 101, past
    /// the filter's bound), rates from the model with noise or log-uniform
    /// in 10⁻⁹–0.98, `C` = 0.1 or random, and some sets truncated.
    fn random_set(rng: &mut SplitMix) -> (Vec<CnotErrorPoint>, f64) {
        let xs: Vec<f64> = if rng.unit() < 0.5 {
            vec![0.5, 1.0, 2.0, 4.0]
        } else {
            let mut xs: Vec<f64> = (0..1 + rng.below(5))
                .map(|_| rng.log_uniform(0.05, 20.0))
                .collect();
            if rng.unit() < 0.3 {
                let repeat = xs[rng.below(xs.len())];
                xs.push(repeat);
            }
            xs
        };
        let mut distances: Vec<u32> = [3, 5, 7, 9, 11]
            .into_iter()
            .filter(|_| rng.unit() < 0.5)
            .collect();
        if distances.is_empty() {
            distances.push(3 + 2 * rng.below(5) as u32);
        }
        if rng.unit() < 0.05 {
            distances.push(101);
        }
        let c = if rng.unit() < 0.5 {
            0.1
        } else {
            rng.log_uniform(0.01, 1.0)
        };
        let truth = ErrorModelParams {
            c: rng.log_uniform(0.02, 0.5),
            p_phys: 1e-3,
            p_thres: 1e-3 * rng.log_uniform(1.2, 40.0),
            alpha: rng.log_uniform(0.01, 2.0),
        };
        let from_model = rng.unit() < 0.5;
        let mut points = Vec::new();
        for &d in &distances {
            for &x in &xs {
                let rate = if from_model {
                    logical::cnot_error(&truth, d, x) * rng.log_uniform(0.7, 1.4)
                } else {
                    rng.log_uniform(1e-9, 0.98)
                };
                points.push(CnotErrorPoint {
                    x,
                    distance: d,
                    error_per_cnot: rate.clamp(1e-9, 0.98),
                });
            }
        }
        if rng.unit() < 0.2 {
            points.truncate(1 + rng.below(points.len()));
        }
        (points, c)
    }

    /// Fits `sets` random sets both ways and asserts the same bits.
    fn assert_matches_reference(seed: u64, sets: usize) {
        let mut rng = SplitMix(seed);
        let mut fitted = 0;
        for i in 0..sets {
            let (points, c) = random_set(&mut rng);
            let got = fit_cnot_model(&points, c);
            let want = reference::fit_cnot_model(&points, c);
            match (got, want) {
                (Some(g), Some(w)) => {
                    fitted += 1;
                    assert_eq!(
                        (g.alpha.to_bits(), g.lambda.to_bits(), g.residual.to_bits()),
                        (w.alpha.to_bits(), w.lambda.to_bits(), w.residual.to_bits()),
                        "set {i}: {g:?} vs reference {w:?} on {points:?}, c = {c}"
                    );
                    assert_eq!(g.c.to_bits(), w.c.to_bits());
                }
                (None, None) => {}
                (g, w) => panic!("set {i}: {g:?} vs reference {w:?} on {points:?}"),
            }
        }
        assert!(fitted * 2 > sets, "only {fitted} of {sets} sets fitted");
    }

    #[test]
    fn prepared_fit_matches_the_literal_reference() {
        assert_matches_reference(0xF17, 300);
        // The pinned default calibration's shape: x on the axis, d = 3 and 5.
        let truth = ErrorModelParams {
            c: 0.1,
            p_phys: 4e-3,
            p_thres: 4e-3 * 2.42,
            alpha: 0.068,
        };
        let grid: Vec<(f64, u32)> = [3, 5]
            .into_iter()
            .flat_map(|d| [0.5, 1.0, 2.0, 4.0].map(|x| (x, d)))
            .collect();
        let points = synthetic(&truth, &grid);
        assert_eq!(
            fit_cnot_model(&points, 0.1),
            reference::fit_cnot_model(&points, 0.1)
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "20,000 fits; runs in release")]
    fn prepared_fit_matches_the_literal_reference_on_20k_sets() {
        assert_matches_reference(0xF17_F17, 20_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Round-trips across a range of true parameters.
        #[test]
        fn round_trip(alpha in 0.05f64..1.0, lambda in 4.0f64..30.0) {
            let truth = ErrorModelParams {
                c: 0.1,
                p_phys: 1e-2 / lambda,
                p_thres: 1e-2,
                alpha,
            };
            let grid = [(0.5, 9u32), (1.0, 11), (2.0, 13), (4.0, 15), (1.0, 17)];
            let points = synthetic(&truth, &grid);
            // Skip degenerate data (error rates too close to 1).
            prop_assume!(points.iter().all(|p| p.error_per_cnot < 0.3));
            let fit = fit_cnot_model(&points, 0.1).expect("distinct grid");
            prop_assert!((fit.alpha - alpha).abs() / alpha < 0.1,
                         "alpha {} vs {}", fit.alpha, alpha);
            prop_assert!((fit.lambda - lambda).abs() / lambda < 0.1,
                         "lambda {} vs {}", fit.lambda, lambda);
        }
    }
}
