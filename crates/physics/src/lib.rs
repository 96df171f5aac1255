//! Physical substrate model for dynamically-reconfigurable neutral atom arrays.
//!
//! This crate models the hardware layer of the transversal architecture of
//! Zhou et al., *Resource Analysis of Low-Overhead Transversal Architectures for
//! Reconfigurable Atom Arrays* (ISCA 2025):
//!
//! * [`params::PhysicalParams`] — the platform parameters of Table I (site spacing,
//!   effective acceleration, gate/measure/decode times, coherence time),
//! * [`motion`] — the atom-movement time law *t = 2·sqrt(L/a)* (Eq. 1),
//! * [`geometry`] — rectangular footprints and per-patch atom counts,
//! * [`timing`] — derived QEC-cycle timing: pipelined syndrome extraction,
//!   transversal-gate steps and the reaction time of the control system.
//!
//! # Example
//!
//! ```
//! use raa_physics::params::PhysicalParams;
//! use raa_physics::timing::CycleModel;
//!
//! let params = PhysicalParams::default(); // Table I
//! let cycle = CycleModel::new(&params, 27);
//! // A QEC cycle at d = 27 is of order 1 ms (the paper's headline assumption).
//! assert!(cycle.cycle_time() > 0.5e-3 && cycle.cycle_time() < 1.5e-3);
//! ```

#![forbid(unsafe_code)]

pub mod geometry;
pub mod motion;
pub mod params;
pub mod timing;

pub use geometry::Footprint;
pub use motion::move_time;
pub use params::PhysicalParams;
pub use timing::CycleModel;
