//! Stabilizer circuit simulation substrate for the transversal-architecture
//! reproduction of Zhou et al. (ISCA 2025).
//!
//! The paper's logical-error model (its Eq. 4) is calibrated against
//! circuit-level simulations of transversal logical circuits. This crate
//! provides everything needed to run such simulations from scratch:
//!
//! * [`circuit`] — a stabilizer circuit IR with Clifford gates, resets,
//!   measurements, circuit-level depolarizing noise channels and
//!   detector/observable annotations;
//! * [`tableau`] — an exact Aaronson–Gottesman tableau simulator used as the
//!   noiseless reference and for cross-validation;
//! * [`frame`] — a bit-packed Pauli-frame Monte-Carlo sampler (64 shots per
//!   machine word, geometric skip sampling for noise);
//! * [`dem`] — detector-error-model extraction by reverse sensitivity
//!   propagation, with greedy decomposition into graphlike errors for
//!   matching-style decoders;
//! * [`dem_sampler`] — a compiled DEM sampler that skips circuit
//!   re-simulation entirely: each mechanism is precompiled to a bit-packed
//!   detector/observable footprint and batches are drawn by geometric-skip
//!   Bernoulli walks, O(mechanisms + hits) per batch;
//! * [`dem_slice`] — the time-sliced DEM sampler behind streamed deep
//!   circuits, with O(window) resident state;
//! * [`text`] — the canonical DEM text format of the golden `.dem`
//!   fixtures;
//! * [`pauli`] — sparse Pauli strings, the commutation reference for code
//!   analysis tests.
//!
//! # Example: noisy Bell-pair parity
//!
//! ```
//! use raa_stabsim::{Circuit, MeasRecord, FrameSim, DetectorErrorModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut c = Circuit::new();
//! c.r(&[0, 1]);
//! c.h(&[0]);
//! c.cx(&[(0, 1)]);
//! c.depolarize2(&[(0, 1)], 1e-2);
//! c.m(&[0, 1]);
//! // The ZZ parity of a Bell pair is deterministic: a valid detector.
//! c.detector(&[MeasRecord::back(1), MeasRecord::back(2)]);
//!
//! let dem = DetectorErrorModel::from_circuit(&c);
//! assert_eq!(dem.num_detectors, 1);
//!
//! let mut rng = StdRng::seed_from_u64(5);
//! let samples = FrameSim::sample(&c, 4096, &mut rng);
//! // Only a two-qubit error that flips one side fires it (about 0.5%).
//! let fired = (0..4096).filter(|&s| !samples.fired_detectors(s).is_empty()).count();
//! assert!(fired < 4096 / 10);
//! ```

#![forbid(unsafe_code)]

pub mod circuit;
pub mod dem;
pub mod dem_sampler;
pub mod dem_slice;
pub mod frame;
pub mod pauli;
pub mod tableau;
pub mod text;

pub use circuit::{Circuit, MeasRecord, OpKind};
pub use dem::{DemError, DetectorErrorModel};
pub use dem_sampler::DemSampler;
pub use dem_slice::{check_uniform_layers, LayerRing, StreamingDemSampler, StreamingScratch};
pub use frame::{DetectorSamples, FrameSim, SyndromeBatch};
pub use tableau::{MeasureResult, TableauSim};
pub use text::{dem_to_text, parse_dem};
