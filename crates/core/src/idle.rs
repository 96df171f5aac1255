//! Idle-storage syndrome-extraction frequency optimization (Fig. 11c,d).
//!
//! A stored qubit decoheres at rate `1/T_coh` between SE rounds; each SE
//! round itself injects gate noise at roughly `SE_LOCATIONS_PER_QUBIT` ≈ 10
//! physical fault locations per data qubit (four two-qubit gates touching the
//! qubit plus preparation/measurement shares). In the Eq. (3) language, the
//! idle contribution `Δt/T_coh` adds to the per-round gate contribution
//! `n_loc·p_phys`, so the logical error per qubit per round is
//!
//! ```text
//! p_L(Δt) = C · ( (1 + Δt/(n_loc·p_phys·T_coh)) / Λ )^((d+1)/2)
//! ```
//!
//! and the error *per unit time* is `p_L(Δt)/Δt`. Too-frequent rounds pay
//! gate noise repeatedly; too-rare rounds let idle errors pile up — the
//! optimum `Δt* = n_loc·p_phys·T_coh/(k−1)` (k = (d+1)/2) sits where the idle
//! error is comparable to the per-round gate error, ≈ 8 ms for the paper's
//! 10 s coherence time at d = 27 — the paper's Fig. 11(c,d) and its §IV.2
//! choice of "a QEC round for storage qubits every 8 ms".

use crate::params::ErrorModelParams;

/// Effective physical fault locations per data qubit per SE round (four
/// two-qubit gates ≈ 8 shared locations plus reset/readout shares).
pub(crate) const SE_LOCATIONS_PER_QUBIT: f64 = 10.0;

/// Logical error per qubit per SE round when idling with period `dt` seconds
/// at coherence time `t_coh`.
///
/// # Panics
///
/// Panics if `dt` or `t_coh` is not strictly positive.
pub(crate) fn idle_error_per_round(
    params: &ErrorModelParams,
    distance: u32,
    dt: f64,
    t_coh: f64,
) -> f64 {
    assert!(dt.is_finite() && dt > 0.0, "SE period must be positive");
    assert!(
        t_coh.is_finite() && t_coh > 0.0,
        "coherence time must be positive"
    );
    let idle_relative = dt / t_coh / (SE_LOCATIONS_PER_QUBIT * params.p_phys);
    let base = (1.0 + idle_relative) / params.lambda();
    params.c * base.powf(f64::from(distance + 1) / 2.0)
}

/// Logical error per qubit per second of storage at SE period `dt`.
pub fn idle_error_per_second(params: &ErrorModelParams, distance: u32, dt: f64, t_coh: f64) -> f64 {
    idle_error_per_round(params, distance, dt, t_coh) / dt
}

/// Relative margin of [`optimal_idle_period`]'s window. The computed idle
/// error per second carries a relative rounding error of at most about
/// `(5k + 3)` ulp (≈ 6·10⁻¹⁴ for d ≤ [`WINDOW_MAX_DISTANCE`]), so two
/// computed values that differ by more than this margin order the exact
/// model values the same way.
const WINDOW_MARGIN: f64 = 1e-9;

/// Largest distance for which the [`WINDOW_MARGIN`] bound holds; larger
/// distances search the full grid.
const WINDOW_MAX_DISTANCE: u32 = 199;

/// The SE period minimizing the idle error per second at fixed distance:
/// the first minimum, under a strict `<`, of the log grid `1 µs·1.05ⁱ` over
/// `[1 µs, t_coh]` (1 ms if the grid is empty).
///
/// The model error per second is strictly decreasing below the analytic
/// optimum `analytic_optimal_idle_period` and strictly increasing above
/// it (for `k = (d + 1)/2 > 1`), so only a window around it is evaluated:
/// the grid is walked by multiplication alone to two points before the
/// first one at or above the optimum, and scanned from there until a value
/// exceeds the best by `WINDOW_MARGIN`. The window's start is certified
/// — unless it is the grid's first point, its value must exceed the next
/// one's by the margin, which puts it below the optimum — so every skipped
/// point's computed value is strictly above the minimum and the result is
/// bit-for-bit the full grid's. Where the certificate fails, or `k ≤ 1`,
/// the optimum or `t_coh` is not finite, the window starts past `t_coh`,
/// or a value is not finite and positive, the full grid is searched
/// instead (about 330 evaluations at a 10 s coherence time, against about
/// 5 in the window).
pub fn optimal_idle_period(params: &ErrorModelParams, distance: u32, t_coh: f64) -> f64 {
    windowed_idle_period(params, distance, t_coh)
        .unwrap_or_else(|| full_grid_idle_period(params, distance, t_coh))
}

/// The certified window of [`optimal_idle_period`], or `None` where it
/// cannot vouch for its result.
fn windowed_idle_period(params: &ErrorModelParams, distance: u32, t_coh: f64) -> Option<f64> {
    if distance > WINDOW_MAX_DISTANCE || !t_coh.is_finite() {
        return None;
    }
    let k = f64::from(distance + 1) / 2.0;
    let optimum = analytic_optimal_idle_period(params, distance, t_coh);
    if k <= 1.0 || !(optimum.is_finite() && optimum > 0.0) {
        return None;
    }
    // Walk the full grid's points to the first at or above the optimum,
    // keeping the point two steps before it (or the first point).
    let (mut start, mut prev, mut dt) = (1e-6, 1e-6, 1e-6);
    while dt < optimum {
        (start, prev, dt) = (prev, dt, dt * 1.05);
    }
    if start > t_coh {
        return None;
    }
    let error = |dt: f64| {
        let e = idle_error_per_second(params, distance, dt, t_coh);
        (e.is_finite() && e > 0.0).then_some(e)
    };
    let e_start = error(start)?;
    let mut best = (e_start, start);
    let mut certified = start == 1e-6;
    let mut dt = start * 1.05;
    while dt <= t_coh {
        let e = error(dt)?;
        if !certified {
            // A clear fall from the start to its successor puts the start
            // below the optimum, and so every skipped point above the
            // minimum.
            if e_start <= e * (1.0 + WINDOW_MARGIN) {
                return None;
            }
            certified = true;
        }
        if e < best.0 {
            best = (e, dt);
        } else if e > best.0 * (1.0 + WINDOW_MARGIN) {
            // Past the optimum: every later point is higher still.
            break;
        }
        dt *= 1.05;
    }
    certified.then_some(best.1)
}

/// [`optimal_idle_period`] by evaluating every grid point.
fn full_grid_idle_period(params: &ErrorModelParams, distance: u32, t_coh: f64) -> f64 {
    let mut best = (f64::INFINITY, 1e-3);
    let mut dt = 1e-6;
    while dt <= t_coh {
        let e = idle_error_per_second(params, distance, dt, t_coh);
        if e < best.0 {
            best = (e, dt);
        }
        dt *= 1.05;
    }
    best.1
}

/// The closed-form optimum of the smooth model:
/// `Δt* = n_loc·p_phys·T_coh/(k−1)` with `k = (d+1)/2`; the analytic
/// counterpart of [`optimal_idle_period`].
pub(crate) fn analytic_optimal_idle_period(
    params: &ErrorModelParams,
    distance: u32,
    t_coh: f64,
) -> f64 {
    let k = f64::from(distance + 1) / 2.0;
    SE_LOCATIONS_PER_QUBIT * params.p_phys * t_coh / (k - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::SplitMix;
    use proptest::prelude::*;

    fn p() -> ErrorModelParams {
        ErrorModelParams::paper()
    }

    #[test]
    fn optimum_is_order_10_ms_at_10s_coherence() {
        // Paper §IV.2: "a QEC round for storage qubits every 8 ms" at 10 s.
        let dt = optimal_idle_period(&p(), 27, 10.0);
        assert!(
            (1e-3..30e-3).contains(&dt),
            "optimal period {dt} should be of order 10 ms"
        );
    }

    #[test]
    fn optimum_roughly_independent_of_distance() {
        // Fig. 11(c): the optimal frequency barely moves with d.
        let d15 = optimal_idle_period(&p(), 15, 10.0);
        let d35 = optimal_idle_period(&p(), 35, 10.0);
        assert!(d15 / d35 < 5.0 && d35 / d15 < 5.0, "{d15} vs {d35}");
    }

    #[test]
    fn error_per_second_is_u_shaped() {
        let params = p();
        let fast = idle_error_per_second(&params, 27, 1e-5, 10.0);
        let opt = idle_error_per_second(&params, 27, 8e-3, 10.0);
        let slow = idle_error_per_second(&params, 27, 1.0, 10.0);
        assert!(opt < fast, "opt {opt} vs fast {fast}");
        assert!(opt < slow, "opt {opt} vs slow {slow}");
    }

    #[test]
    fn shorter_coherence_needs_faster_rounds() {
        let long = optimal_idle_period(&p(), 27, 100.0);
        let short = optimal_idle_period(&p(), 27, 1.0);
        assert!(short < long);
    }

    #[test]
    fn analytic_and_grid_optimum_agree() {
        let grid = optimal_idle_period(&p(), 27, 10.0);
        let analytic = analytic_optimal_idle_period(&p(), 27, 10.0);
        assert!(
            (grid / analytic - 1.0).abs() < 0.2,
            "grid {grid} vs analytic {analytic}"
        );
    }

    /// The period search before its window, kept verbatim as the
    /// exactness oracle.
    fn reference_optimal_idle_period(params: &ErrorModelParams, distance: u32, t_coh: f64) -> f64 {
        let mut best = (f64::INFINITY, 1e-3);
        let mut dt = 1e-6;
        while dt <= t_coh {
            let e = idle_error_per_second(params, distance, dt, t_coh);
            if e < best.0 {
                best = (e, dt);
            }
            dt *= 1.05;
        }
        best.1
    }

    /// Searches `inputs` random inputs both ways and asserts the same bits:
    /// Λ 1.1–100, p 10⁻⁵–10⁻², odd d 1–79, T 0.3 µs–100 s (all but d
    /// log-uniform), so the draws include empty grids (T < 1 µs), the
    /// `k = 1` fallback (d = 1) and optima past `t_coh`.
    fn assert_matches_reference(seed: u64, inputs: usize) {
        let mut rng = SplitMix(seed);
        let mut windowed = 0;
        for i in 0..inputs {
            let p_phys = rng.log_uniform(1e-5, 1e-2);
            let params = ErrorModelParams {
                c: if rng.unit() < 0.5 {
                    0.1
                } else {
                    rng.log_uniform(0.01, 1.0)
                },
                p_phys,
                p_thres: p_phys * rng.log_uniform(1.1, 100.0),
                alpha: 1.0 / 6.0,
            };
            let d = 1 + 2 * rng.below(40) as u32;
            let t_coh = rng.log_uniform(3e-7, 100.0);
            let got = optimal_idle_period(&params, d, t_coh);
            let want = reference_optimal_idle_period(&params, d, t_coh);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "input {i}: {got} vs reference {want} at {params:?}, d = {d}, T = {t_coh}"
            );
            windowed += usize::from(windowed_idle_period(&params, d, t_coh).is_some());
        }
        // Most draws must exercise the window, not only the fallback.
        assert!(windowed * 2 > inputs, "{windowed} of {inputs} windowed");
    }

    #[test]
    fn windowed_period_matches_the_literal_reference() {
        assert_matches_reference(0x1D1E, 3_000);
        let params = p();
        // The paper's operating point, d = 1, empty and one-point grids, a
        // short coherence time, and a distance past `WINDOW_MAX_DISTANCE`.
        for (d, t_coh) in [
            (27, 10.0),
            (1, 10.0),
            (3, 5e-7),
            (9, 1e-6),
            (61, 1e-4),
            (201, 10.0),
        ] {
            assert_eq!(
                optimal_idle_period(&params, d, t_coh).to_bits(),
                reference_optimal_idle_period(&params, d, t_coh).to_bits(),
                "d = {d}, T = {t_coh}"
            );
        }
        // An empty grid keeps the 1 ms default; d = 1 (k = 1) has no
        // interior optimum and searches the full grid.
        assert_eq!(optimal_idle_period(&params, 27, 5e-7), 1e-3);
        assert_eq!(windowed_idle_period(&params, 1, 10.0), None);
        assert!(windowed_idle_period(&params, 27, 10.0).is_some());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "200,000 searches; runs in release")]
    fn windowed_period_matches_the_literal_reference_on_200k_inputs() {
        assert_matches_reference(0x1D1E_1D1E, 200_000);
    }

    proptest! {
        /// Idle error per round grows with the period.
        #[test]
        fn idle_error_monotone_in_dt(k in 1u32..20, dt_ms in 1.0f64..100.0) {
            let d = 2 * k + 1;
            let dt = dt_ms * 1e-3;
            prop_assert!(
                idle_error_per_round(&p(), d, dt * 2.0, 10.0)
                    > idle_error_per_round(&p(), d, dt, 10.0)
            );
        }

        /// At very short periods the model reduces to the memory limit.
        #[test]
        fn short_period_recovers_memory(k in 1u32..20) {
            let d = 2 * k + 1;
            let per_round = idle_error_per_round(&p(), d, 1e-9, 10.0);
            let memory = crate::logical::memory_error_per_round(&p(), d);
            prop_assert!((per_round / memory - 1.0).abs() < 1e-3);
        }
    }
}
