//! Quantum-chemistry resource estimation on the transversal architecture
//! (paper §III.3, Fig. 5e).
//!
//! State-of-the-art ground-state-energy algorithms use qubitized quantum
//! phase estimation over a tensor-hypercontraction (THC) Hamiltonian
//! representation [77, 80]. Each qubitization step is a PREPARE /
//! PREPARE† / SELECT block, and the paper observes these decompose onto the
//! *same* transversal building blocks as factoring:
//!
//! * PREPARE and PREPARE† are dominated by **table look-up** (90–95% of their
//!   T-count, per Ref. \[77\]);
//! * SELECT splits into a look-up (≈30%) and controlled rotations (≈70%),
//!   with rotations implemented as **phase-gradient additions** \[21\].
//!
//! This crate maps a THC instance onto [`raa_gadgets`] look-ups and adders
//! and reuses the factoring architecture's factory/error machinery to
//! produce a full estimate, transferring the paper's reduced space–time
//! volume to chemistry workloads.

#![forbid(unsafe_code)]

use raa_core::{budget, ArchContext, SpaceTime};
use raa_factory::CczFactory;
use raa_gadgets::{CuccaroAdder, LookupTable};
use std::fmt;

/// A tensor-hypercontraction chemistry instance.
///
/// # Example
///
/// ```
/// use raa_chem::ThcInstance;
///
/// let femoco = ThcInstance::femoco_like();
/// assert!(femoco.qubitization_steps() > 1e5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThcInstance {
    /// Hamiltonian 1-norm λ in Hartree.
    pub lambda: f64,
    /// THC rank (number of auxiliary factors M).
    pub thc_rank: u32,
    /// Spin orbitals N.
    pub spin_orbitals: u32,
    /// Target phase-estimation accuracy ε in Hartree (chemical accuracy:
    /// 1.6 mHa).
    pub epsilon: f64,
    /// Coefficient register precision in bits.
    pub coeff_bits: u32,
}

impl ThcInstance {
    /// A FeMoco-scale benchmark instance (λ ≈ 306 Ha, M ≈ 350, N = 108, the
    /// scale of Ref. \[77\]'s headline molecule).
    pub fn femoco_like() -> Self {
        Self {
            lambda: 306.0,
            thc_rank: 350,
            spin_orbitals: 108,
            epsilon: 1.6e-3,
            coeff_bits: 20,
        }
    }

    /// A small active-space test instance.
    pub fn small_molecule() -> Self {
        Self {
            lambda: 10.0,
            thc_rank: 50,
            spin_orbitals: 20,
            epsilon: 1.6e-3,
            coeff_bits: 15,
        }
    }

    /// Number of qubitization steps for phase estimation: `⌈π λ / (2 ε)⌉`.
    pub fn qubitization_steps(&self) -> f64 {
        (std::f64::consts::PI * self.lambda / (2.0 * self.epsilon)).ceil()
    }

    /// Address bits of the PREPARE coefficient table: the THC auxiliary
    /// register indexes `M(M+1)/2 + N/2` coefficients.
    pub fn prepare_address_bits(&self) -> u32 {
        let entries = u64::from(self.thc_rank) * u64::from(self.thc_rank + 1) / 2
            + u64::from(self.spin_orbitals / 2);
        (64 - entries.leading_zeros()).max(1)
    }
}

impl fmt::Display for ThcInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "THC instance: lambda = {} Ha, M = {}, N = {}, eps = {} Ha",
            self.lambda, self.thc_rank, self.spin_orbitals, self.epsilon
        )
    }
}

/// Resource estimate for a chemistry instance on the transversal architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChemistryEstimate {
    /// Peak physical qubits.
    pub qubits: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Total |CCZ⟩ states consumed.
    pub ccz_total: f64,
    /// Total failure probability.
    pub total_error: f64,
    /// Magic-state factories instantiated.
    pub factories: u64,
}

impl ChemistryEstimate {
    /// Runtime in days.
    pub fn days(&self) -> f64 {
        self.seconds / 86_400.0
    }

    /// The space–time cost.
    pub fn space_time(&self) -> SpaceTime {
        SpaceTime::new(self.qubits, self.seconds)
    }
}

impl fmt::Display for ChemistryEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}M qubits, {:.2} days, {:.2e} CCZ (p_fail {:.1}%)",
            self.qubits / 1e6,
            self.days(),
            self.ccz_total,
            self.total_error * 100.0
        )
    }
}

/// Builds a SELECT-SWAP-batched QROM over `entries` rows of `m` bits: a
/// batch of `k = √(entries/m)` rows is loaded per scanned address and routed
/// by a swap network (the advanced-QROM construction Ref. [77] relies on),
/// shrinking the scan depth by `k` at the cost of a `k`-fold wider output.
fn select_swap_lookup(entries: u64, m: u32) -> LookupTable {
    let batch = ((entries as f64 / f64::from(m.max(1))).sqrt().floor() as u64).max(1);
    let scanned = entries.div_ceil(batch).max(2);
    let w_eff = (64 - (scanned - 1).leading_zeros()).max(1);
    LookupTable::new(w_eff, (m as u64 * batch).min(1 << 22) as u32)
}

/// Estimates the cost of `instance` in `ctx`, using a 5% CCZ error budget
/// as in the factoring analysis.
///
/// Each qubitization step costs: PREPARE + PREPARE† (two coefficient
/// look-ups, SELECT-SWAP batched) plus SELECT (one smaller look-up and two
/// phase-gradient rotations realized as `coeff_bits`-bit additions).
pub fn estimate(instance: &ThcInstance, ctx: &ArchContext) -> ChemistryEstimate {
    let steps = instance.qubitization_steps();
    let prepare_entries = u64::from(instance.thc_rank) * u64::from(instance.thc_rank + 1) / 2
        + u64::from(instance.spin_orbitals / 2);
    let prepare = select_swap_lookup(
        prepare_entries,
        instance.coeff_bits + instance.spin_orbitals,
    );
    let select_lookup = select_swap_lookup(prepare_entries / 4 + 1, instance.spin_orbitals.max(8));
    let rotation_adder = CuccaroAdder::without_runways(instance.coeff_bits);

    let per_step_ccz = 2.0 * prepare.ccz_count() as f64
        + select_lookup.ccz_count() as f64
        + 2.0 * rotation_adder.toffoli_count() as f64;
    let per_step_seconds = 2.0 * prepare.duration(ctx)
        + select_lookup.duration(ctx)
        + 2.0 * rotation_adder.duration(ctx);
    let per_step_error = 2.0 * prepare.logical_error(ctx)
        + select_lookup.logical_error(ctx)
        + 2.0 * rotation_adder.logical_error(ctx);

    let ccz_total = steps * per_step_ccz;
    let ccz_target = budget::per_ccz_target(ccz_total);
    let factory = CczFactory::for_target(ctx, ccz_target)
        .expect("chemistry CCZ target unreachable at this distance");
    let demand = per_step_ccz / per_step_seconds;
    let factories = factory.count_for_demand(ctx, demand).max(1);

    let qubits = prepare.qubits(ctx)
        + select_lookup.qubits(ctx)
        + rotation_adder.qubits(ctx)
        + factories as f64 * factory.qubits(ctx);
    let seconds = steps * per_step_seconds;
    let total_error = (steps * per_step_error + ccz_total * factory.output_error(ctx)).min(1.0);

    ChemistryEstimate {
        qubits,
        seconds,
        ccz_total,
        total_error,
        factories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn femoco_scale_is_plausible() {
        // Ref. [77]-scale THC FeMoco runs cost ~3e5 steps... λπ/2ε ≈ 3e5;
        // at ~0.5 s per step that is days-scale on the transversal machine.
        let inst = ThcInstance::femoco_like();
        let est = estimate(&inst, &ArchContext::paper());
        assert!(
            est.days() > 0.5 && est.days() < 200.0,
            "days = {}",
            est.days()
        );
        assert!(
            est.qubits > 1e5 && est.qubits < 1e8,
            "qubits = {}",
            est.qubits
        );
        assert!(est.total_error < 0.5, "p = {}", est.total_error);
    }

    #[test]
    fn qubitization_step_count() {
        let inst = ThcInstance::femoco_like();
        let steps = inst.qubitization_steps();
        let expect = std::f64::consts::PI * 306.0 / (2.0 * 1.6e-3);
        assert!((steps - expect).abs() < 1.0);
    }

    #[test]
    fn prepare_table_size_covers_rank() {
        let inst = ThcInstance::femoco_like();
        let w = inst.prepare_address_bits();
        let entries = 350u64 * 351 / 2 + 54;
        assert!(1u64 << w >= entries, "w = {w}");
        assert!(1u64 << (w - 1) < entries, "w = {w} too large");
    }

    #[test]
    fn small_molecule_cheaper_than_femoco() {
        let ctx = ArchContext::paper();
        let small = estimate(&ThcInstance::small_molecule(), &ctx);
        let big = estimate(&ThcInstance::femoco_like(), &ctx);
        assert!(small.space_time().volume() < big.space_time().volume());
    }

    #[test]
    fn display_formats() {
        let inst = ThcInstance::small_molecule();
        assert!(inst.to_string().contains("lambda"));
        let est = estimate(&inst, &ArchContext::paper());
        assert!(est.to_string().contains("days"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Tighter accuracy targets cost more steps and more volume.
        #[test]
        fn accuracy_monotone(eps_exp in 2.0f64..4.0) {
            let ctx = ArchContext::paper();
            let mut a = ThcInstance::small_molecule();
            a.epsilon = 10f64.powf(-eps_exp);
            let mut b = a;
            b.epsilon = a.epsilon / 2.0;
            let ea = estimate(&a, &ctx);
            let eb = estimate(&b, &ctx);
            prop_assert!(eb.seconds > ea.seconds);
        }
    }
}
