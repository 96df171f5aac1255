//! Pinned integration test of the Eq. (4) calibration loop: a spec-driven
//! memory sweep at d = 3 and d = 5 plus a transversal-CNOT sweep, run
//! through the engine at an elevated physical error rate (the substitution
//! rule — the paper's p = 0.1% needs ≥10⁸ shots per point), must reproduce
//! the model's suppression-exponent structure within tolerance — and,
//! because the engine is deterministic, the raw failure counts themselves
//! are pinned as regression anchors.

use raa_sim::{
    analysis, run, run_sweep, DecoderChoice, ExperimentSpec, NoiseModel, Rounds, Scenario,
    ShotBudget, SweepGrid,
};

const P_PHYS: f64 = 4e-3;

fn memory_records() -> Vec<raa_sim::ExperimentRecord> {
    run_sweep(
        &SweepGrid::new(
            "pinned/memory",
            Scenario::Memory {
                rounds: Rounds::TimesDistance(3),
            },
        )
        .with_distances(vec![3, 5])
        .with_p_phys(vec![P_PHYS])
        .with_shots(ShotBudget::Fixed(20_000))
        .with_seed(0x6B),
    )
}

#[test]
fn memory_sweep_reproduces_suppression_exponent() {
    let records = memory_records();
    assert_eq!(records.len(), 2);

    // Pinned counts: the engine is bit-deterministic, so these are exact.
    // A change here means the sampling/decoding pipeline changed behaviour.
    assert_eq!(records[0].shots, 20_000);
    assert_eq!(records[1].shots, 20_000);
    let failures: Vec<usize> = records.iter().map(|r| r.failures).collect();
    assert_eq!(
        failures,
        vec![887, 582],
        "pinned d=3/d=5 failure counts drifted (note: counts depend on the \
         vendored StdRng stream in vendor/rand and on the engine's default \
         compiled-DEM sampling path — re-pin if the shims are swapped for \
         registry crates or the default sampler changes, but investigate \
         the pipeline if not)"
    );

    // Eq. (4) structure: the per-round error falls by Λ per unit of
    // (d+1)/2. Union–find at p = 4e-3 sits at Λ ≈ 2.3 (the paper's MLE at
    // p = 0.1% gives ≈ 20); what must hold is genuine suppression within
    // the below-threshold band.
    let lambda = analysis::memory_lambda(&records).expect("two distances");
    assert!(
        (1.5..6.0).contains(&lambda),
        "suppression base out of band: {lambda}"
    );
}

#[test]
fn transversal_sweep_fit_matches_memory_anchor() {
    let cnot_records = run_sweep(
        &SweepGrid::new(
            "pinned/cnot",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 16,
                cnots_per_round: 1.0,
            },
        )
        .with_distances(vec![3, 5])
        .with_p_phys(vec![P_PHYS])
        .with_cnots_per_round(vec![0.5, 1.0, 2.0, 4.0])
        .with_shots(ShotBudget::Fixed(6_000))
        .with_seed(0x6A),
    );
    assert_eq!(cnot_records.len(), 8);
    for r in &cnot_records {
        assert!(
            r.failures > 0,
            "elevated p must produce failures: {}",
            r.name
        );
        assert!(
            r.error_per_cnot().expect("cnots > 0") < 0.4,
            "saturated point: {}",
            r.name
        );
    }
    // Two pinned regression anchors out of the eight deterministic points
    // (RNG-stream-dependent like the memory pins: re-pin on a vendor swap).
    assert_eq!(cnot_records[1].failures, 2375, "d=3, x=1 drifted");
    assert_eq!(cnot_records[7].failures, 723, "d=5, x=4 drifted");

    let fit = analysis::fit_eq4(&cnot_records, 0.1).expect("eight usable points");
    // The fitted decoding factor must be a sane Eq. (4) exponent...
    assert!(
        (0.01..1.5).contains(&fit.alpha),
        "alpha out of band: {}",
        fit.alpha
    );
    // ...and the fitted suppression base must agree with the independent
    // memory-sweep anchor (Λ ≈ 2.30 from `memory_sweep_reproduces_
    // suppression_exponent`, not re-run here) within Monte-Carlo tolerance.
    let lambda_mem = 2.30;
    let ratio = fit.lambda / lambda_mem;
    assert!(
        (0.5..2.0).contains(&ratio),
        "fitted Lambda {} vs memory anchor {}",
        fit.lambda,
        lambda_mem
    );
}

#[test]
fn surface_memory_matching_anchor() {
    // The exact-matching decoder on a surface code: d = 5 memory over 5
    // rounds (120 detectors, so the decoder pairs from its all-pairs
    // tables). At p = 6e-3 the shots form thousands of components of 3–20
    // defects (exact subset DP) and dozens past the cap (greedy fallback),
    // so these counts pin the tables, the DP and the greedy path together.
    for (p, expected) in [(3e-3, 28usize), (6e-3, 114)] {
        let mut spec = ExperimentSpec::new(
            "pinned/memory_mwpm",
            Scenario::Memory {
                rounds: Rounds::TimesDistance(1),
            },
            5,
        );
        spec.noise = NoiseModel::uniform(p);
        spec.decoder = DecoderChoice::Matching;
        spec.shots = ShotBudget::Fixed(4_000);
        spec.seed = 7;
        let record = run(&spec);
        assert_eq!(record.shots, 4_000);
        assert_eq!(
            record.failures, expected,
            "pinned d=5 matching failure count drifted at p={p}"
        );
    }
}
