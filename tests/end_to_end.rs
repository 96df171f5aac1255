//! End-to-end integration: the whole stack from physics through gadgets to
//! the algorithm-level estimator behaves coherently when parameters move
//! together (the cross-crate seams the unit tests cannot see).

use raa::core::{ArchContext, ErrorModelParams, Gadget};
use raa::factory::CczFactory;
use raa::gadgets::{CuccaroAdder, LookupAddition, LookupTable};
use raa::physics::PhysicalParams;
use raa::shor::{optimize, SearchSpace, TransversalArchitecture};

/// Gadget costs respond consistently to a context change: larger distance
/// means more qubits, longer blocks and smaller logical error — and the
/// architecture-level estimate inherits all three.
#[test]
fn distance_coherence_across_stack() {
    // d = 25 is the smallest distance where the factory can reach the
    // paper's CCZ target (its own Clifford errors dominate below that).
    let small = ArchContext::paper().with_distance(25);
    let large = ArchContext::paper().with_distance(33);
    let adder = CuccaroAdder::new(2048, 96, 43);
    let lookup = LookupTable::new(7, 2994);

    assert!(adder.qubits(&large) > adder.qubits(&small));
    assert!(adder.logical_error(&large) < adder.logical_error(&small));
    assert!(lookup.qubits(&large) > lookup.qubits(&small));
    assert!(lookup.logical_error(&large) < lookup.logical_error(&small));

    let mut arch_small = TransversalArchitecture::paper();
    arch_small.params.distance = 25;
    let mut arch_large = TransversalArchitecture::paper();
    arch_large.params.distance = 33;
    let e_small = arch_small.estimate();
    let e_large = arch_large.estimate();
    assert!(e_large.qubits > e_small.qubits);
    assert!(e_large.total_error < e_small.total_error);
}

/// Slower hardware stretches every time scale coherently: a 10× slower
/// acceleration increases gadget durations, factory intervals and the final
/// runtime, but never the CCZ count.
#[test]
fn acceleration_coherence() {
    let base = ArchContext::paper();
    let mut slow = base;
    slow.physical = PhysicalParams::default().with_acceleration_scaled(0.1);

    let gadget = LookupAddition::new(3, 4, 2048, 96, 43);
    assert!(gadget.cost(&slow).seconds > gadget.cost(&base).seconds);
    assert_eq!(gadget.ccz_count(), gadget.ccz_count());

    let f_base = CczFactory::for_target(&base, 1.6e-11).unwrap();
    assert!(f_base.production_interval(&slow) > f_base.production_interval(&base));

    let mut arch = TransversalArchitecture::paper();
    arch.physical = slow.physical;
    let est_slow = arch.estimate();
    let est_base = TransversalArchitecture::paper().estimate();
    assert!(est_slow.seconds > est_base.seconds);
    assert!((est_slow.ccz_total - est_base.ccz_total).abs() < 1.0);
}

/// A noisier physical layer (within threshold) propagates to a larger
/// optimized distance and more physical qubits at the architecture level.
#[test]
fn physical_error_rate_coherence() {
    let mut noisy = TransversalArchitecture::paper();
    noisy.error = ErrorModelParams::paper().with_p_phys(2e-3); // Λ = 5
    let (noisy_arch, noisy_est) = noisy.with_optimized_distance(0.08);
    let (clean_arch, clean_est) = TransversalArchitecture::paper().with_optimized_distance(0.08);
    assert!(
        noisy_arch.params.distance > clean_arch.params.distance,
        "noisier hardware needs a larger distance: {} vs {}",
        noisy_arch.params.distance,
        clean_arch.params.distance
    );
    assert!(noisy_est.qubits > clean_est.qubits);
    assert!(noisy_est.total_error <= 0.08);
}

/// The optimizer's result is reproducible and internally consistent: the
/// reported estimate matches re-running the winning architecture.
#[test]
fn optimizer_reproducibility() {
    let space = SearchSpace {
        w_exp: vec![3, 4],
        w_mul: vec![3, 4],
        r_sep: vec![96, 192],
        max_factories: vec![192],
    };
    let base = TransversalArchitecture::paper();
    let a = optimize(&base, &space, 0.08);
    let b = optimize(&base, &space, 0.08);
    assert_eq!(a.architecture.params, b.architecture.params);
    let re = a.architecture.estimate();
    assert!((re.qubits - a.estimate.qubits).abs() < 1.0);
    assert!((re.seconds - a.estimate.seconds).abs() < 1e-9);
}

/// Factory supply and demand meet: the chosen factory count sustains the
/// addition stage's consumption without stretching it (at paper parameters).
#[test]
fn factory_supply_meets_demand() {
    let est = TransversalArchitecture::paper().estimate();
    let ctx = TransversalArchitecture::paper().context();
    let adder = CuccaroAdder::new(2048, 96, 43);
    // Reaction-limited duration == effective duration ⇒ no stretch.
    assert!(
        (est.addition_seconds - adder.duration(&ctx)).abs() < 1e-9,
        "addition must not be factory-limited at paper parameters"
    );
}

/// The gadget trait view agrees with the concrete accessors.
#[test]
fn gadget_trait_consistency() {
    let ctx = ArchContext::paper();
    let adder = CuccaroAdder::new(512, 64, 16);
    let cost = adder.cost(&ctx);
    assert_eq!(cost.ccz_states, adder.toffoli_count() as f64);
    assert!((cost.seconds - adder.duration(&ctx)).abs() < 1e-12);
    assert!((cost.qubits - adder.qubits(&ctx)).abs() < 1e-9);
    assert_eq!(adder.name(), "cuccaro-adder");
}
