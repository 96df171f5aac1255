//! Integration tests pinning the reproduction to the paper's quantitative
//! claims (the EXPERIMENTS.md checklist). Each test names the paper location
//! it checks.

use raa::core::{logical, ErrorModelParams};
use raa::factory::CczFactory;
use raa::physics::{move_time, CycleModel, PhysicalParams};
use raa::shor::{
    AlgorithmParams, BeverlandModel, FactoringInstance, GidneyEkeraModel, TransversalArchitecture,
};
use raa::surface::code832;

/// Abstract / §IV.2: 19 million qubits, 5.6 days for 2048-bit factoring.
#[test]
fn headline_19m_qubits_5p6_days() {
    let est = TransversalArchitecture::paper().estimate();
    let mq = est.qubits / 1e6;
    let days = est.expected_days();
    assert!((14.0..24.0).contains(&mq), "qubits = {mq}M (paper: 19M)");
    assert!((4.5..7.0).contains(&days), "days = {days} (paper: 5.6)");
}

/// Abstract / Fig. 2: close to 50x run-time speed-up over existing estimates
/// with similar assumptions, with no increase in space footprint.
#[test]
fn fifty_x_speedup_at_same_footprint() {
    let ours = TransversalArchitecture::paper().estimate();
    let ge = GidneyEkeraModel::atom_array(1e-3);
    let speedup = ge.runtime_seconds() / ours.expected_seconds();
    assert!(
        (20.0..100.0).contains(&speedup),
        "speed-up = {speedup} (paper: ~50x)"
    );
    assert!(
        ours.qubits <= ge.qubits() * 1.1,
        "space footprint must not increase: {:.1}M vs {:.1}M",
        ours.qubits / 1e6,
        ge.qubits() / 1e6
    );
}

/// §IV.2: ~1.07e6 lookup-additions, 0.17 s lookups, 0.28 s additions.
#[test]
fn operation_counts_and_times() {
    let est = TransversalArchitecture::paper().estimate();
    let la = est.lookup_additions as f64;
    assert!((1.0e6..1.15e6).contains(&la), "lookup-additions = {la}");
    assert!(
        (est.lookup_seconds - 0.17).abs() < 0.03,
        "lookup = {} s",
        est.lookup_seconds
    );
    assert!(
        (est.addition_seconds - 0.28).abs() < 0.03,
        "addition = {} s",
        est.addition_seconds
    );
}

/// §III.6: ~3e9 CCZ states; 5% CCZ budget → 1.6e-11 per CCZ → 7.7e-7 per T.
#[test]
fn magic_state_chain() {
    let est = TransversalArchitecture::paper().estimate();
    assert!(
        (2.5e9..3.6e9).contains(&est.ccz_total),
        "CCZ total = {:.2e}",
        est.ccz_total
    );
    let target = raa::shor::architecture::CCZ_BUDGET / est.ccz_total;
    assert!(
        (target / 1.6e-11 - 1.0).abs() < 0.1,
        "per-CCZ target = {target:.3e} (paper: 1.6e-11)"
    );
    let ctx = TransversalArchitecture::paper().context();
    let factory = CczFactory::for_target(&ctx, target).unwrap();
    let p_t = factory.t_input_error();
    assert!(
        (5e-7..9.5e-7).contains(&p_t),
        "per-T error = {p_t:.2e} (paper: 7.7e-7)"
    );
}

/// Eq. (8): p_out = 28 p_in², verified by exact enumeration.
#[test]
fn factory_suppression_coefficient() {
    let (w2, _, _, _) = code832::harmful_pattern_counts();
    assert_eq!(w2, 28);
    let p = 1e-5;
    assert!((code832::output_error_exact(p) / (28.0 * p * p) - 1.0).abs() < 0.01);
}

/// Eq. (5) / §III.4: effective thresholds 0.86% (α = 1/6) and 0.67% (α = 1/2)
/// at one CNOT per SE round.
#[test]
fn effective_thresholds() {
    let p = ErrorModelParams::paper();
    assert!((logical::effective_threshold(&p, 1.0) * 100.0 - 0.857).abs() < 0.01);
    let p2 = ErrorModelParams::paper().with_alpha(0.5);
    assert!((logical::effective_threshold(&p2, 1.0) * 100.0 - 0.667).abs() < 0.01);
}

/// Fig. 6(b) / Fig. 11(a): the optimal schedule is ≲ 1 SE round per CNOT.
#[test]
fn optimal_se_rounds_per_cnot() {
    let p = ErrorModelParams::paper();
    let x_opt = logical::optimal_cnots_per_round(&p, 1e-12);
    assert!(x_opt >= 0.5, "x_opt = {x_opt} (rounds per CNOT ≤ ~2)");
}

/// Table I + §IV.2 derived timing: gates ≈ 400 µs, patch move ≈ 500 µs ≈
/// measurement, QEC cycle ≈ 1 ms, reaction 1 ms, Eq. (1) calibration point.
#[test]
fn table1_derived_timing() {
    let p = PhysicalParams::default();
    assert!((move_time(&p, 55e-6) - 200e-6).abs() < 3e-6);
    let cycle = CycleModel::new(&p, 27);
    assert!((cycle.gate_segment() - 0.4e-3).abs() < 0.05e-3);
    assert!((cycle.patch_move_time() - 0.5e-3).abs() < 0.03e-3);
    assert!(cycle.cycle_time() < 1.05e-3);
    assert!((p.reaction_time() - 1e-3).abs() < 1e-12);
}

/// Table II: the optimizer's region and the paper's fixed choice agree.
#[test]
fn table2_parameters() {
    let paper = AlgorithmParams::paper_table2();
    assert_eq!(
        (
            paper.w_exp,
            paper.w_mul,
            paper.r_sep,
            paper.r_pad,
            paper.distance
        ),
        (3, 4, 96, 43, 27)
    );
    // The paper choice stays within the failure budget at its distance.
    let est = TransversalArchitecture::paper().estimate();
    assert!(est.total_error < 0.10, "p_fail = {}", est.total_error);
}

/// §V / Fig. 2: the Beverland-style estimate is year-scale at atomic
/// timescales and exceeds the GE19 rescaling.
#[test]
fn baseline_ordering() {
    let bev = BeverlandModel::atomic_reference();
    assert!(bev.runtime_seconds() > 365.0 * 86_400.0);
    let ge = GidneyEkeraModel::atom_array(1e-3);
    assert!(bev.space_time().volume() > ge.space_time().volume());
}

/// §IV.2: GE19 at their superconducting reference reproduces ~20M/8h.
#[test]
fn ge19_reference_point() {
    let m = GidneyEkeraModel::superconducting_reference();
    assert!((m.qubits() - 20e6).abs() < 1e3);
    let hours = m.runtime_seconds() / 3600.0;
    assert!((5.0..11.0).contains(&hours), "hours = {hours}");
}

/// Fig. 14(d): a 15 M-qubit cap is feasible; far tighter caps degrade volume.
#[test]
fn qubit_constrained_knee() {
    use raa::shor::sensitivity::sweep_qubit_cap;
    let base = TransversalArchitecture::paper();
    let pts = sweep_qubit_cap(&base, &[15e6, 30e6]);
    assert!(pts[0].estimate.qubits <= 15e6);
    // The generous-cap configuration is at least as fast.
    assert!(pts[1].estimate.expected_seconds() <= pts[0].estimate.expected_seconds() * 1.01);
}

/// Instance sanity: larger moduli cost strictly more.
#[test]
fn scaling_with_modulus() {
    let mut a = TransversalArchitecture::paper();
    a.instance = FactoringInstance::new(1024);
    let small = a.estimate();
    let big = TransversalArchitecture::paper().estimate();
    assert!(small.space_time().volume() < big.space_time().volume());
}
