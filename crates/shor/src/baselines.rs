//! Lattice-surgery baselines for Fig. 2: the Gidney–Ekerå cost model \[8\]
//! rescaled to neutral-atom timescales, and the Beverland et al. estimate \[9\].
//!
//! Per the substitution rule, we reimplement the *published cost model* of
//! Gidney–Ekerå ("How to factor 2048 bit RSA integers in 8 hours using 20
//! million noisy qubits") rather than running their Python attachment: the
//! same windowed-arithmetic Toffoli counts as our compilation (their windows
//! w_exp = w_mul = 5, r_sep = 1024 give ≈1.6×10⁹ temporary-AND Toffolis here;
//! their published ≈2.7×10⁹ additionally counts modular-reduction work), a
//! lattice-surgery execution model where each Toffoli layer costs one
//! code-distance worth of QEC cycles (or the reaction time, whichever is
//! longer), and a qubit count calibrated to their 20 M at d = 27. The model
//! reproduces their 2048-bit headline (≈8 h at a 1 µs cycle) and is then
//! evaluated at the paper's 900 µs lattice-surgery cycle for the blue points
//! of Fig. 2.

use crate::ekera_hastad::{operation_counts, AlgorithmParams, FactoringInstance};
use raa_core::SpaceTime;

/// Calibration constant: overlap/pipelining factor of the Gidney–Ekerå
/// schedule, set so the model reproduces their 7.4 h at a 1 µs cycle.
const GE_TIME_CALIBRATION: f64 = 0.60;

/// Gidney–Ekerå 2019 reference qubit count for RSA-2048 at d = 27.
const GE_QUBITS_2048: f64 = 20e6;

/// The Gidney–Ekerå lattice-surgery cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GidneyEkeraModel {
    /// Instance being factored.
    pub(crate) instance: FactoringInstance,
    /// Surface-code QEC cycle time in seconds (1 µs superconducting;
    /// 900 µs for atom-array lattice surgery, §IV.2).
    pub(crate) cycle_time: f64,
    /// Control-system reaction time in seconds.
    pub(crate) reaction_time: f64,
    /// Code distance (theirs: 27).
    pub(crate) distance: u32,
}

impl GidneyEkeraModel {
    /// Their headline configuration: RSA-2048, 1 µs cycles, 10 µs reaction.
    pub fn superconducting_reference() -> Self {
        Self {
            instance: FactoringInstance::rsa2048(),
            cycle_time: 1e-6,
            reaction_time: 10e-6,
            distance: 27,
        }
    }

    /// The paper's rescaling to atom-array lattice surgery: 900 µs cycles
    /// (ancilla readout cannot be pipelined without extra qubits, §IV.2).
    pub fn atom_array(reaction_time: f64) -> Self {
        Self {
            instance: FactoringInstance::rsa2048(),
            cycle_time: 900e-6,
            reaction_time,
            distance: 27,
        }
    }

    /// Their algorithm parameters (Table II right column).
    pub(crate) fn algorithm_params(&self) -> AlgorithmParams {
        AlgorithmParams {
            distance: self.distance,
            ..AlgorithmParams::gidney_ekera_table2()
        }
    }

    /// Sequential depth in Toffoli layers: each lookup-addition contributes
    /// its table scan plus its (runway-segmented) carry chain.
    pub(crate) fn toffoli_depth(&self) -> f64 {
        let params = self.algorithm_params();
        let counts = operation_counts(&self.instance, &params);
        let per_gadget = f64::from(2 * (params.r_sep + params.r_pad))
            + (1u64 << (params.w_exp + params.w_mul)) as f64;
        counts.lookup_additions as f64 * per_gadget
    }

    /// Time per sequential Toffoli layer: a lattice-surgery logical operation
    /// takes `d` QEC cycles, and cannot beat the reaction time.
    pub(crate) fn layer_time(&self) -> f64 {
        (f64::from(self.distance) * self.cycle_time).max(self.reaction_time)
    }

    /// Estimated runtime in seconds.
    pub fn runtime_seconds(&self) -> f64 {
        GE_TIME_CALIBRATION * self.toffoli_depth() * self.layer_time()
    }

    /// Estimated physical qubits (their 20 M at RSA-2048/d = 27, scaled with
    /// register width and d²).
    pub fn qubits(&self) -> f64 {
        let n_scale = f64::from(self.instance.n_bits()) / 2048.0;
        let d_scale = (f64::from(self.distance) / 27.0).powi(2);
        GE_QUBITS_2048 * n_scale * d_scale
    }

    /// The space–time point for Fig. 2.
    pub fn space_time(&self) -> SpaceTime {
        SpaceTime::new(self.qubits(), self.runtime_seconds())
    }
}

/// The Beverland et al. \[9\] style estimate: formula-based lattice-surgery
/// accounting at 100 µs gate/measurement times with the reaction time
/// neglected, which the paper cites as yielding a *larger* resource estimate
/// (year-scale runtimes on atomic platforms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeverlandModel {
    /// Instance being factored.
    pub(crate) instance: FactoringInstance,
    /// Physical gate/measurement time (theirs: 100 µs).
    pub(crate) op_time: f64,
    /// Code distance.
    pub(crate) distance: u32,
}

impl BeverlandModel {
    /// Their atomic-platform reference point.
    pub fn atomic_reference() -> Self {
        Self {
            instance: FactoringInstance::rsa2048(),
            op_time: 100e-6,
            distance: 27,
        }
    }

    /// Logical cycle: a syndrome-extraction round is ~6 physical operation
    /// steps; a lattice-surgery logical operation is d rounds.
    pub(crate) fn logical_op_time(&self) -> f64 {
        6.0 * self.op_time * f64::from(self.distance)
    }

    /// Runtime: the same sequential Toffoli depth as the windowed
    /// compilation, one lattice-surgery logical operation per layer, with a
    /// ~3× smaller degree of parallelism than the aggressively-overlapped
    /// Gidney–Ekerå schedule.
    // raa-audit: allow(orphan-pub): paper_numbers.rs checks the GE19 baseline's runtime against the paper.
    pub fn runtime_seconds(&self) -> f64 {
        let ge = GidneyEkeraModel {
            instance: self.instance,
            cycle_time: 6.0 * self.op_time,
            reaction_time: 0.0,
            distance: self.distance,
        };
        3.0 * GE_TIME_CALIBRATION * ge.toffoli_depth() * self.logical_op_time()
    }

    /// Physical qubits (their published estimates land near 25 M).
    pub(crate) fn qubits(&self) -> f64 {
        25e6 * f64::from(self.instance.n_bits()) / 2048.0
            * (f64::from(self.distance) / 27.0).powi(2)
    }

    /// The space–time point for Fig. 2.
    pub fn space_time(&self) -> SpaceTime {
        SpaceTime::new(self.qubits(), self.runtime_seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ge19_headline_8_hours_20m_qubits() {
        let m = GidneyEkeraModel::superconducting_reference();
        let hours = m.runtime_seconds() / 3600.0;
        assert!((5.0..11.0).contains(&hours), "hours = {hours}");
        assert!((m.qubits() - 20e6).abs() < 1e3);
    }

    #[test]
    fn atom_array_rescale_is_hundreds_of_days() {
        // §IV.2: at 900 µs cycles the GE19 architecture extrapolates to
        // ~50× slower than the transversal 5.6 days, i.e. ~280 days.
        let m = GidneyEkeraModel::atom_array(1e-3);
        let days = m.runtime_seconds() / 86_400.0;
        assert!((150.0..500.0).contains(&days), "days = {days}");
    }

    #[test]
    fn reaction_time_only_matters_when_longer_than_surgery() {
        let fast = GidneyEkeraModel::atom_array(1e-3);
        let slow = GidneyEkeraModel::atom_array(100e-3);
        // d·cycle = 24.3 ms: a 1 ms reaction is hidden, a 100 ms one is not.
        assert_eq!(fast.layer_time(), 27.0 * 900e-6);
        assert_eq!(slow.layer_time(), 100e-3);
        assert!(slow.runtime_seconds() > fast.runtime_seconds() * 3.0);
    }

    #[test]
    fn beverland_point_is_years_scale() {
        let m = BeverlandModel::atomic_reference();
        let days = m.runtime_seconds() / 86_400.0;
        assert!(days > 365.0, "days = {days}");
        assert!((m.qubits() - 25e6).abs() < 1e3);
    }

    #[test]
    fn volume_ordering_matches_fig2() {
        // Transversal < GE19@900us < Beverland in space-time volume.
        let ours = crate::architecture::TransversalArchitecture::paper()
            .estimate()
            .space_time()
            .volume();
        let ge = GidneyEkeraModel::atom_array(1e-3).space_time().volume();
        let bev = BeverlandModel::atomic_reference().space_time().volume();
        assert!(ours < ge, "ours {ours:.3e} vs GE {ge:.3e}");
        assert!(ge < bev, "GE {ge:.3e} vs Beverland {bev:.3e}");
        // Close to the paper's ~50x run-time gap at comparable qubits.
        let speedup = ge / ours;
        assert!((10.0..120.0).contains(&speedup), "speed-up = {speedup}");
    }
}
