//! Algorithm-parameter optimization (paper §IV.2, Table II).
//!
//! Sweeps the windowed-arithmetic parameters in pairs — exponent and
//! multiplication windows, runway separation — re-optimizing the code
//! distance and the factory count for every candidate, and keeps the choice
//! minimizing expected space–time volume under the failure budget. The
//! transversal cost structure (fast Cliffords, reaction-limited arithmetic)
//! pushes the optimum towards *smaller* windows and *much shorter* runway
//! separations than the lattice-surgery compilation of Ref. \[8\], which is
//! exactly the Table II contrast (3/4/96 versus their 5/5/1024).

use crate::architecture::{ResourceEstimate, TransversalArchitecture, DEFAULT_TOTAL_BUDGET};

/// The search space of the parameter optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Exponent window candidates.
    pub w_exp: Vec<u32>,
    /// Multiplication window candidates.
    pub w_mul: Vec<u32>,
    /// Runway separation candidates.
    pub r_sep: Vec<u32>,
    /// Factory-cap candidates.
    pub max_factories: Vec<u32>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            w_exp: vec![2, 3, 4, 5, 6],
            w_mul: vec![2, 3, 4, 5, 6],
            r_sep: vec![48, 64, 96, 128, 192, 256, 512, 1024],
            max_factories: vec![96, 128, 192, 256],
        }
    }
}

/// Result of the optimization: the winning configuration and its estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizationResult {
    /// The optimized architecture.
    pub architecture: TransversalArchitecture,
    /// Its resource estimate.
    pub estimate: ResourceEstimate,
}

/// Searches `space` for the parameter choice minimizing expected space–time
/// volume under `budget`, starting from `base` (its instance, physics and
/// error model are kept fixed).
///
/// # Panics
///
/// Panics if the search space is empty or no candidate meets the budget.
pub fn optimize(
    base: &TransversalArchitecture,
    space: &SearchSpace,
    budget: f64,
) -> OptimizationResult {
    assert!(
        !space.w_exp.is_empty()
            && !space.w_mul.is_empty()
            && !space.r_sep.is_empty()
            && !space.max_factories.is_empty(),
        "search space must be non-empty"
    );
    let mut best: Option<OptimizationResult> = None;
    for &w_exp in &space.w_exp {
        for &w_mul in &space.w_mul {
            for &r_sep in &space.r_sep {
                if r_sep > base.instance.n_bits() {
                    continue;
                }
                for &max_factories in &space.max_factories {
                    let mut arch = *base;
                    arch.params.w_exp = w_exp;
                    arch.params.w_mul = w_mul;
                    arch.params.r_sep = r_sep;
                    arch.params.max_factories = max_factories;
                    let (arch, est) = arch.with_optimized_distance(budget);
                    if est.total_error > budget {
                        continue;
                    }
                    let vol = est.space_time().volume();
                    if best
                        .as_ref()
                        .is_none_or(|b| vol < b.estimate.space_time().volume())
                    {
                        best = Some(OptimizationResult {
                            architecture: arch,
                            estimate: est,
                        });
                    }
                }
            }
        }
    }
    best.expect("no parameter choice met the error budget")
}

/// Convenience: optimize the paper's RSA-2048 instance over the default
/// search space and budget.
pub fn optimize_paper_instance() -> OptimizationResult {
    optimize(
        &TransversalArchitecture::paper(),
        &SearchSpace::default(),
        DEFAULT_TOTAL_BUDGET,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_lands_near_table2() {
        let result = optimize_paper_instance();
        let p = result.architecture.params;
        // Table II: w_exp 3, w_mul 4, r_sep 96, d 27, ≤192 factories. The
        // exact cell can tie with neighbours; require the same region.
        assert!(
            (6..=8).contains(&(p.w_exp + p.w_mul)),
            "windows = {}/{}",
            p.w_exp,
            p.w_mul
        );
        assert!((48..=192).contains(&p.r_sep), "r_sep = {}", p.r_sep);
        assert!((25..=29).contains(&p.distance), "distance = {}", p.distance);
        assert!(result.estimate.factories <= 256);
    }

    #[test]
    fn optimized_volume_not_worse_than_paper_choice() {
        let paper = TransversalArchitecture::paper()
            .with_optimized_distance(DEFAULT_TOTAL_BUDGET)
            .1;
        let opt = optimize_paper_instance();
        assert!(
            opt.estimate.space_time().volume() <= paper.space_time().volume() * 1.001,
            "optimizer must not lose to the fixed Table II choice"
        );
    }

    #[test]
    fn optimum_beats_lattice_surgery_style_parameters() {
        // Evaluating the GE19-style windows/runways on the *transversal*
        // architecture must not beat the transversal-optimized choice.
        let mut ge_style = TransversalArchitecture::paper();
        ge_style.params.w_exp = 5;
        ge_style.params.w_mul = 5;
        ge_style.params.r_sep = 1024;
        let (_, ge_est) = ge_style.with_optimized_distance(DEFAULT_TOTAL_BUDGET);
        let opt = optimize_paper_instance();
        assert!(
            opt.estimate.space_time().volume() < ge_est.space_time().volume(),
            "transversal optimum {:.3e} vs GE-style parameters {:.3e}",
            opt.estimate.space_time().volume(),
            ge_est.space_time().volume()
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_space() {
        let space = SearchSpace {
            w_exp: vec![],
            ..SearchSpace::default()
        };
        let _ = optimize(&TransversalArchitecture::paper(), &space, 0.1);
    }
}
