//! Regenerates Fig. 6(a): the transversal logical-error model, by *actual
//! circuit-level simulation* — two-patch transversal-CNOT circuits are
//! sampled from their detector error model, decoded jointly (correlated
//! decoding) with the union–find decoder on the circuit's detector error
//! model, and Eq. (4) is fitted to the measured per-CNOT error rates.
//!
//! Both sweeps are declared as `raa::sim` grids (distances × CNOTs-per-round
//! for the gate sweep, distances for the memory baseline) and run through
//! the experiment engine, which owns sampling, decoding, parallel sharding
//! and seeding; set `RAA_JSON=1` to dump the raw records as JSON lines.
//!
//! The paper fits the MLE-decoder data of Ref. \[17\] at p = 0.1%, extracting
//! α ≈ 1/6 and Λ ≈ 20. Those error rates need ≥10⁸ shots at d ≥ 7; per the
//! substitution rule we run the same experiment at an elevated physical
//! error rate (default p = 4×10⁻³, Λ ≈ 2.5 for union–find) where Monte
//! Carlo converges in seconds, and report the fitted (α, Λ). Use
//! `RAA_SHOTS` to deepen the statistics.

use raa::core::logical;
use raa::sim::{analysis, run_sweep, Rounds, Scenario, ShotBudget, SweepGrid};
use raa_bench::{env_shots, fmt, header, maybe_dump_json, row};

fn main() {
    let shots = env_shots(20_000);
    let p_phys = 4e-3;

    let cnot_grid = SweepGrid::new(
        "fig06a/cnot",
        Scenario::TransversalCnot {
            patches: 2,
            depth: 16,
            cnots_per_round: 1.0,
        },
    )
    .with_distances(vec![3, 5])
    .with_p_phys(vec![p_phys])
    .with_cnots_per_round(vec![0.5, 1.0, 2.0, 4.0])
    .with_shots(ShotBudget::Fixed(shots))
    .with_seed(0x6A);
    let cnot_records = run_sweep(&cnot_grid);

    header(&format!(
        "Fig. 6(a): per-CNOT logical error vs x (CNOTs per SE round), p = {p_phys}, {shots} shots/point"
    ));
    row(&[
        "x".into(),
        "d".into(),
        "measured p_CNOT".into(),
        "shots".into(),
        "failures".into(),
    ]);
    for r in &cnot_records {
        row(&[
            fmt(r.cnots_per_round.expect("transversal record")),
            r.distance.to_string(),
            fmt(r.error_per_cnot().expect("cnots > 0")),
            r.shots.to_string(),
            r.failures.to_string(),
        ]);
    }

    // Memory baseline at the same p pins the x → 0 limit of Eq. (4): the
    // per-round memory error slope across distances gives Λ directly,
    // isolating α in the fit.
    let memory_grid = SweepGrid::new(
        "fig06a/memory",
        Scenario::Memory {
            rounds: Rounds::TimesDistance(3),
        },
    )
    .with_distances(vec![3, 5])
    .with_p_phys(vec![p_phys])
    .with_shots(ShotBudget::Fixed(shots))
    .with_seed(0x6B);
    let memory_records = run_sweep(&memory_grid);

    header("memory baseline (x -> 0 limit)");
    row(&["d".into(), "per-round memory error".into()]);
    for r in &memory_records {
        row(&[r.distance.to_string(), fmt(r.error_per_qubit_round())]);
    }
    if let Some(lambda_mem) = analysis::memory_lambda(&memory_records) {
        header(&format!(
            "memory-anchored Lambda = {lambda_mem:.2} \
             (union-find at p = {p_phys}; the paper's MLE at 1e-3 gives ~20)"
        ));
    }

    match analysis::fit_eq4(&cnot_records, 0.1) {
        Some(fit) => {
            header(&format!(
                "Eq. (4) joint fit: alpha = {:.3}, Lambda = {:.2}, mean sq. log-residual = {:.3} \
                 (paper at p = 1e-3 with MLE decoding: alpha ~ 1/6, Lambda ~ 20)",
                fit.alpha, fit.lambda, fit.residual
            ));
            if fit.lambda > 1.0 {
                header("model vs measurement at the fitted parameters");
                row(&["x".into(), "d".into(), "measured".into(), "fitted".into()]);
                // Anchor the model at the sweep's own p_phys so the fitted
                // curve is compared against the data that produced it.
                let params = fit.to_params(p_phys);
                for pt in analysis::cnot_points(&cnot_records) {
                    row(&[
                        fmt(pt.x),
                        pt.distance.to_string(),
                        fmt(pt.error_per_cnot),
                        fmt(logical::cnot_error(&params, pt.distance, pt.x)),
                    ]);
                }
            } else {
                header(
                    "fitted Lambda <= 1 (no suppression at this statistics depth); raise RAA_SHOTS",
                );
            }
        }
        None => header("too few usable points for the Eq. (4) fit; raise RAA_SHOTS"),
    }

    let mut all = cnot_records;
    all.extend(memory_records);
    maybe_dump_json(&all);
}
