//! Simulation-calibrated RSA-2048 resource estimate: the full
//! sim → fit → model → optimizer chain behind the paper's Table II, in one
//! run.
//!
//! ```sh
//! cargo run --release --example factoring_calibrated
//! RAA_SHOTS=60000 cargo run --release --example factoring_calibrated  # deeper
//! ```
//!
//! Runs the calibration sweeps (memory + transversal-CNOT at an elevated
//! physical error rate, per the substitution rule) through the cached sweep
//! orchestrator — a second run replays every point from
//! `target/factoring-calibrated-cache` without sampling a single shot —
//! fits (α, Λ) of Eq. (4), anchors the threshold at the sweep's own noise
//! (`p_thres = Λ·p_phys`), and feeds the calibrated model into the
//! transversal-architecture optimizer next to the paper's assumed
//! parameters.

use raa::core::ErrorModelParams;
use raa::shor::{TransversalArchitecture, MAX_SEARCHED_DISTANCE};
use raa::sim::{calibrate, CalibrationConfig};

fn main() {
    let mut cfg = CalibrationConfig {
        cache_dir: Some("target/factoring-calibrated-cache".into()),
        ..CalibrationConfig::default()
    };
    if let Some(shots) = std::env::var("RAA_SHOTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        cfg.memory_shots = shots;
        cfg.cnot_shots = shots;
    }

    println!(
        "calibrating: memory + transversal-CNOT sweeps at p = {}, d in {:?}",
        cfg.p_phys, cfg.distances
    );
    let cal = calibrate(&cfg).expect("calibration sweeps must be fittable");
    println!(
        "  {} points ({} fresh, {} cached), {} freshly sampled shots",
        cal.fresh_points + cal.cached_points,
        cal.fresh_points,
        cal.cached_points,
        cal.fresh_shots
    );
    println!(
        "  fit: alpha = {:.3}, Lambda = {:.2} (memory anchor {}), residual = {:.3}",
        cal.fit.alpha,
        cal.fit.lambda,
        cal.lambda_memory
            .map_or("n/a".into(), |l| format!("{l:.2}")),
        cal.fit.residual
    );
    println!(
        "  calibrated model at sweep noise: {} (p_thres = Lambda * p_phys)",
        cal.params
    );

    println!();
    println!("simulation-calibrated estimate (p_phys re-anchored at 1e-3):");
    match TransversalArchitecture::try_calibrated(cal.params) {
        Some((arch, est)) => {
            println!("  model: {}", arch.error);
            println!("  d = {}, {}", arch.params.distance, est);
        }
        None => println!("  no code distance <= {MAX_SEARCHED_DISTANCE} reaches the |CCZ> target"),
    }

    let (paper_arch, paper_est) = TransversalArchitecture::calibrated(ErrorModelParams::paper());
    println!();
    println!("paper-assumed model at the same optimizer settings:");
    println!("  model: {}", paper_arch.error);
    println!("  d = {}, {}", paper_arch.params.distance, paper_est);
    println!();
    println!(
        "note: the calibration decoder is union-find at elevated p (the paper fits MLE \
         correlated decoding at p = 1e-3), so the fitted (alpha, Lambda) differ from the \
         paper's assumed pair while the re-anchored threshold lands near the same ~1% — \
         the sensitivity Fig. 13a explores."
    );
}
