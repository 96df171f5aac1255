//! `raa` — low-overhead transversal architectures for reconfigurable atom
//! arrays.
//!
//! A from-scratch Rust reproduction of Zhou, Duckering, Zhao, Bluvstein,
//! Cain, Kubica, Wang & Lukin, *Resource Analysis of Low-Overhead
//! Transversal Architectures for Reconfigurable Atom Arrays* (ISCA 2025,
//! arXiv:2505.15907). This facade crate re-exports the full stack:
//!
//! | Module | Contents | Paper |
//! |---|---|---|
//! | [`physics`] | Table I parameters, Eq. (1) movement law, QEC cycle timing | §II.1 |
//! | [`stabsim`] | stabilizer circuit IR, tableau + Pauli-frame simulators, DEM extraction | §III.4 substrate |
//! | [`decode`] | decoding graphs, union–find and exact matching decoders | §II.4 |
//! | [`surface`] | rotated surface code, transversal-CNOT experiments, \[\[8,3,2\]\] code | §II.3, §III.6 |
//! | [`sim`] | declarative experiment engine: specs, sweep grids, JSON records, Eq. (4) fits | §III.4 evaluation |
//! | [`core`] | the logical-error model Eqs. (2)–(6), fits, idle/SE optimization | §III.4, §III.5 |
//! | [`factory`] | cultivation + 8T-to-CCZ factory (28 p² verified exactly) | §III.6 |
//! | [`gadgets`] | Cuccaro adders with runways, GHZ-fan-out look-up tables, Bell bridges | §III.5–III.8 |
//! | [`shor`] | RSA-2048 end-to-end estimate, Table II optimizer, Fig. 2 baselines | §IV |
//! | [`chem`] | THC qubitization on the same building blocks | §III.3 |
//!
//! # Quickstart
//!
//! ```
//! use raa::shor::TransversalArchitecture;
//!
//! let estimate = TransversalArchitecture::paper().estimate();
//! // The paper's headline: ~19 M qubits, ~5.6 days for 2048-bit factoring.
//! assert!(estimate.qubits < 25e6);
//! assert!(estimate.expected_days() < 7.0);
//! ```

#![forbid(unsafe_code)]

pub use raa_chem as chem;
pub use raa_core as core;
pub use raa_decode as decode;
pub use raa_factory as factory;
pub use raa_gadgets as gadgets;
pub use raa_physics as physics;
pub use raa_shor as shor;
pub use raa_sim as sim;
pub use raa_stabsim as stabsim;
pub use raa_surface as surface;
