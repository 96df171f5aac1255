//! `raa-cal` — the closed calibration loop as a command-line tool: runs the
//! memory + transversal-CNOT calibration sweeps through the content-addressed
//! record cache, fits (α, Λ) of Eq. (4), anchors `p_thres = Λ·p_phys` at the
//! sweep's own noise, and prints the simulation-calibrated RSA-2048 estimate
//! next to the paper-assumed one.
//!
//! ```sh
//! cargo run --release --bin raa-cal                 # cold: samples + caches
//! cargo run --release --bin raa-cal                 # warm: 0 fresh shots
//! RAA_SHOTS=60000 cargo run --release --bin raa-cal # deeper statistics
//! RAA_SWEEPD=127.0.0.1:7411 cargo run --release --bin raa-cal # via daemon
//! ```
//!
//! Environment knobs: `RAA_CACHE_DIR` (default `target/raa-cal-cache`; set
//! empty to disable caching), `RAA_SHOTS` (per-point budget for both
//! sweeps), `RAA_P` (sweep physical error rate), `RAA_POINT_THREADS`
//! (concurrent grid points, 0 = all cores), `RAA_JSON` (dump raw records),
//! `RAA_SWEEPD` (address of a running `raa-sweepd`; the sweeps then run in
//! the daemon against its cache and `RAA_CACHE_DIR`/`RAA_POINT_THREADS`
//! are ignored). A malformed knob value is a hard error (exit 2), never a
//! silent fallback to the default.
//! The `freshly sampled shots` line is the cache contract CI pins: a second
//! run over the same cache must report 0.

use raa::core::ErrorModelParams;
use raa::shor::{TransversalArchitecture, MAX_SEARCHED_DISTANCE};
use raa::sim::jobs::Response;
use raa::sim::{calibrate, Calibration, CalibrationConfig, ServiceClient};
use raa_bench::{env_parse_strict, env_string, fmt, header, maybe_dump_json, row};

fn main() {
    let mut cfg = CalibrationConfig::default();
    match env_string("RAA_CACHE_DIR") {
        Some(dir) if dir.is_empty() => cfg.cache_dir = None,
        Some(dir) => cfg.cache_dir = Some(dir.into()),
        None => cfg.cache_dir = Some("target/raa-cal-cache".into()),
    }
    if let Some(shots) = env_parse_strict::<usize>("RAA_SHOTS") {
        cfg.memory_shots = shots;
        cfg.cnot_shots = shots;
    }
    if let Some(p) = env_parse_strict::<f64>("RAA_P") {
        cfg.p_phys = p;
    }
    if let Some(threads) = env_parse_strict::<usize>("RAA_POINT_THREADS") {
        cfg.point_threads = threads;
    }

    let daemon = env_string("RAA_SWEEPD").filter(|a| !a.is_empty());
    header(&format!(
        "raa-cal: calibration sweeps at p = {}, d in {:?}, x in {:?} ({})",
        cfg.p_phys,
        cfg.distances,
        cfg.cnots_per_round,
        match &daemon {
            Some(addr) => format!("daemon: {addr}"),
            None => format!(
                "cache: {}",
                cfg.cache_dir
                    .as_deref()
                    .map_or("disabled".into(), |d| d.display().to_string())
            ),
        },
    ));
    let cal = match &daemon {
        Some(addr) => calibrate_via_daemon(addr, &cfg),
        None => calibrate(&cfg).unwrap_or_else(|e| {
            eprintln!("calibration failed: {e}");
            std::process::exit(1);
        }),
    };
    print_calibration(&cal);
}

/// Runs the calibration job in a `raa-sweepd` daemon: same sweeps, same
/// fit, but sampled by (and cached in) the shared service.
fn calibrate_via_daemon(addr: &str, cfg: &CalibrationConfig) -> Calibration {
    let mut client = ServiceClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot reach raa-sweepd at {addr}: {e}");
        std::process::exit(1);
    });
    match client.calibrate(cfg) {
        Ok(Response::Calibrate { calibration, .. }) => calibration,
        Ok(Response::Error { message, .. }) => {
            eprintln!("calibration failed in daemon: {message}");
            std::process::exit(1);
        }
        Ok(Response::Shed { message, .. }) => {
            eprintln!("daemon is draining and shed the job: {message}");
            std::process::exit(1);
        }
        Ok(other) => {
            eprintln!("unexpected daemon response: {other:?}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: daemon request failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints the calibration report — identical output whether the sweeps ran
/// locally or in the daemon, so CI can pin the same lines either way.
fn print_calibration(cal: &Calibration) {
    header("sweep execution");
    row(&[
        "points".into(),
        (cal.fresh_points + cal.cached_points).to_string(),
    ]);
    row(&["fresh points".into(), cal.fresh_points.to_string()]);
    row(&["cached points".into(), cal.cached_points.to_string()]);
    row(&["freshly sampled shots".into(), cal.fresh_shots.to_string()]);

    header("per-point records");
    row(&[
        "name".into(),
        "shots".into(),
        "failures".into(),
        "rate".into(),
    ]);
    for r in cal.memory_records.iter().chain(&cal.cnot_records) {
        row(&[
            r.name.clone(),
            r.shots.to_string(),
            r.failures.to_string(),
            fmt(r.logical_error_rate()),
        ]);
    }

    header(&format!(
        "Eq. (4) fit: alpha = {:.4}, Lambda = {:.3} (memory anchor: {}), residual = {:.4}",
        cal.fit.alpha,
        cal.fit.lambda,
        cal.lambda_memory
            .map_or("n/a".into(), |l| format!("{l:.3}")),
        cal.fit.residual
    ));
    header(&format!(
        "calibrated model at sweep noise: {} (p_thres = Lambda * p_phys, not the paper's assumed 1%)",
        cal.params
    ));

    header("simulation-calibrated RSA-2048 estimate (p_phys re-anchored at 1e-3)");
    match TransversalArchitecture::try_calibrated(cal.params) {
        Some((arch, est)) => {
            row(&["model".into(), arch.error.to_string()]);
            row(&["estimate".into(), est.to_string()]);
        }
        None => row(&[
            "estimate".into(),
            format!("no code distance <= {MAX_SEARCHED_DISTANCE} reaches the |CCZ> target"),
        ]),
    }

    let (paper_arch, paper_est) = TransversalArchitecture::calibrated(ErrorModelParams::paper());
    header("paper-assumed model, same optimizer");
    row(&["model".into(), paper_arch.error.to_string()]);
    row(&["estimate".into(), paper_est.to_string()]);

    let mut all = cal.memory_records.clone();
    all.extend(cal.cnot_records.iter().cloned());
    maybe_dump_json(&all);
}
