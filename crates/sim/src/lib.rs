//! `raa-sim` — the declarative circuit-level experiment engine for the
//! transversal-architecture reproduction.
//!
//! The paper's logical-error model (its Eq. 4) and the memory/transversal
//! figures are calibrated against circuit-level stabilizer simulations.
//! This crate closes that loop as a reusable pipeline instead of per-figure
//! scripts: an [`ExperimentSpec`] pins down the code family, distance,
//! noise, decoder, sampler, shot budget and seed, and [`run`] executes
//! surface-code circuit construction → detector-error-model extraction →
//! bit-packed sampling (by default straight from the compiled DEM, never
//! re-simulating the circuit; gate-level Pauli-frame re-simulation via
//! [`SamplerChoice::Circuit`]) → the parallel allocation-free decode
//! pipeline of [`raa_decode::mc`] → a JSON-serializable
//! [`ExperimentRecord`].
//!
//! Determinism is the load-bearing guarantee: the spec seed drives circuit
//! construction and the per-batch Monte-Carlo streams through independent
//! derived streams, so a spec's record (including its JSON bytes) is
//! identical for any thread count. [`SweepGrid`] expands
//! cartesian products (distances × error rates × CNOTs-per-round ×
//! decoders) into specs with per-point derived seeds, and [`analysis`]
//! fits the resulting records to Eq. (4) via [`raa_core::fit`].
//!
//! Determinism also makes sweeps cacheable by content: the
//! [`Orchestrator`] runs grid points in parallel over an on-disk record
//! cache keyed by each point's semantic fingerprint (resume interrupted
//! sweeps, replay repeated ones byte-for-byte without sampling), and
//! [`calibrate()`] closes the paper's sim → model → estimate loop — sweeps →
//! (α, Λ) fit → [`raa_core::ErrorModelParams`] anchored at the sweep's own
//! `p_phys` (`p_thres = Λ·p_phys`), ready for the `shor` optimizer.
//!
//! Deep circuits (memory at `rounds ≥ 20·d`, or the repeated-CNOT
//! [`Scenario::DeepCnot`] workload) stream: with `spec.streaming = true`
//! and a windowed decoder, sampling and decoding proceed one detector time
//! layer at a time through the time-sliced pipeline of
//! [`raa_decode::mc::logical_error_rate_streamed`], keeping resident
//! syndrome memory bounded by the decoding window instead of the circuit
//! depth — same determinism guarantees, `"streaming":true` in the record.
//!
//! # Example: a seeded memory experiment
//!
//! ```
//! use raa_sim::{run, ExperimentSpec, NoiseModel, Rounds, Scenario, ShotBudget};
//!
//! let mut spec = ExperimentSpec::new(
//!     "demo/memory",
//!     Scenario::Memory { rounds: Rounds::Fixed(2) },
//!     3,
//! );
//! spec.noise = NoiseModel::uniform(2e-3);
//! spec.shots = ShotBudget::Fixed(512);
//! spec.seed = 42;
//!
//! let record = run(&spec);
//! assert_eq!(record.shots, 512);
//! assert!(record.logical_error_rate() < 0.1);
//! // Same spec, same bytes — regardless of how many threads decode it.
//! assert_eq!(run(&spec).to_json(), record.to_json());
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod calibrate;
pub mod engine;
pub mod error;
pub mod jobs;
pub mod json;
pub mod lock;
pub mod orchestrator;
pub mod record;
pub mod service;
pub mod spec;

pub use calibrate::{calibrate, fit_calibration, Calibration, CalibrationConfig};
pub use engine::{build_circuit, derive_seed, run, run_sweep, try_run};
pub use error::OrchestratorError;
pub use orchestrator::{spec_cache_key, CacheLookup, Orchestrator, ScrubOptions, SweepCache};
pub use record::{to_json_lines, ExperimentRecord};
pub use service::{ServiceClient, ServiceConfig, SweepService};
pub use spec::{
    DecoderChoice, ExperimentSpec, Rounds, SamplerChoice, Scenario, ShotBudget, SweepGrid,
};

// Convenience re-exports so spec literals need no extra imports.
pub use raa_decode::McConfig;
pub use raa_factory::FactoryProtocol;
pub use raa_gadgets::GadgetKind;
pub use raa_surface::NoiseModel;
