//! End-to-end resource estimation of Shor's algorithm on the transversal
//! atom-array architecture (paper §III.2, §IV), with lattice-surgery
//! baselines for comparison.
//!
//! * [`ekera_hastad`] — the Ekerå–Håstad factoring variant and windowed
//!   arithmetic operation counts (≈1.05×10⁶ lookup-additions at Table II
//!   windows for RSA-2048);
//! * [`architecture`] — the full assembly: registers + runways + GHZ layer +
//!   adder pipeline + just-enough 8T-to-CCZ factories, with space and error
//!   breakdowns (Fig. 12) and the headline estimate (**≈19 M qubits,
//!   ≈5.6 days**);
//! * [`optimizer`] — the Table II parameter search;
//! * [`sensitivity`] — the Fig. 13/14 sweeps (α, coherence, acceleration,
//!   reaction time, qubit caps, dense qLDPC storage);
//! * [`baselines`] — the Gidney–Ekerå [8] cost model (calibrated to their
//!   20 M qubits / ≈8 h at 1 µs cycles, rescaled to 900 µs lattice surgery)
//!   and a Beverland-et-al.-style [9] point, regenerating Fig. 2.
//!
//! # Example
//!
//! ```
//! use raa_shor::architecture::TransversalArchitecture;
//! use raa_shor::baselines::GidneyEkeraModel;
//!
//! let ours = TransversalArchitecture::paper().estimate();
//! let ge = GidneyEkeraModel::atom_array(1e-3);
//! // The paper's ≈50× run-time advantage at no space increase (Fig. 2).
//! let speedup = ge.runtime_seconds() / ours.expected_seconds();
//! assert!(speedup > 10.0);
//! assert!(ours.qubits <= ge.qubits() * 1.25);
//! ```

#![forbid(unsafe_code)]

pub mod architecture;
pub mod baselines;
pub mod ekera_hastad;
pub mod optimizer;
pub mod sensitivity;

pub use architecture::{
    ErrorBreakdown, ResourceEstimate, SpaceBreakdown, TransversalArchitecture, CCZ_BUDGET,
    DEFAULT_TOTAL_BUDGET, MAX_SEARCHED_DISTANCE,
};
pub use baselines::{BeverlandModel, GidneyEkeraModel};
pub use ekera_hastad::{operation_counts, AlgorithmParams, FactoringInstance, OperationCounts};
pub use optimizer::{optimize, optimize_paper_instance, OptimizationResult, SearchSpace};
pub use sensitivity::SweepPoint;
