//! The paper's primary contribution, as a library: the logical-error model
//! and space–time cost machinery of *Resource Analysis of Low-Overhead
//! Transversal Architectures for Reconfigurable Atom Arrays* (Zhou et al.,
//! ISCA 2025).
//!
//! * [`params`] — the calibrated model constants (`C`, `Λ`, `α`, §III.4);
//! * [`budget`] — the 5% |CCZ⟩ share of the failure budget (§III.6);
//! * [`logical`] — Eqs. (2)–(6): memory suppression, per-CNOT error with the
//!   decoding factor `α`, effective threshold, volume-per-CNOT optimization;
//! * [`fit`] — extracting `(α, Λ)` from transversal-circuit simulations
//!   (Fig. 6a);
//! * [`idle`] — idle-storage SE-frequency optimization (Fig. 11c,d);
//! * [`volume`] — qubits × seconds bookkeeping, the optimization objective;
//! * [`gadget`] — the common cost interface implemented by every subroutine
//!   generator (factories, adders, look-up tables).
//!
//! # Example: the headline speed-up mechanism
//!
//! ```
//! use raa_core::{logical, ErrorModelParams};
//!
//! let p = ErrorModelParams::paper();
//! // Lattice surgery needs O(d) SE rounds per logical operation; a
//! // transversal gate needs O(1). At d = 27 that is the paper's ~order of
//! // magnitude clock speed-up, while Eq. (4) keeps the logical error low:
//! let per_cnot = logical::cnot_error(&p, 27, 1.0);
//! assert!(per_cnot < 1e-13);
//! // and the effective threshold only drops to ~0.86%:
//! assert!(logical::effective_threshold(&p, 1.0) > 0.85e-2);
//! ```

#![forbid(unsafe_code)]

pub mod budget;
pub mod fit;
pub mod gadget;
pub mod idle;
pub mod logical;
pub mod params;
#[cfg(test)]
mod test_rng;
pub mod volume;

pub use fit::{fit_cnot_model, CnotErrorPoint, FitResult};
pub use gadget::{ArchContext, Gadget, GadgetCost};
pub use params::ErrorModelParams;
pub use volume::SpaceTime;
