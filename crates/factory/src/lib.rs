//! Magic-state factories for the transversal architecture (paper §III.6).
//!
//! Universality comes from |CCZ⟩ resource states prepared in two stages:
//!
//! 1. [`cultivation`] — magic-state cultivation of |T⟩ inputs (cost curve
//!    anchored to the paper's quoted 7.7×10⁻⁷ → 1.5×10⁴ qubit·rounds);
//! 2. [`ccz`] — the 8T-to-CCZ factory on the \[\[8,3,2\]\] cube code with
//!    `p_out = 28 p_in²` suppression (Eq. 8, validated by exact enumeration),
//!    a 12d × 4d footprint (Fig. 8d) and a pipelined production interval.
//!
//! [`se_opt`] regenerates the paper's Fig. 11(a,b): the space–time volume per
//! |CCZ⟩ as a function of SE rounds per factory CNOT, which is what justifies
//! running one SE round per transversal gate.
//!
//! # Example
//!
//! ```
//! use raa_core::ArchContext;
//! use raa_factory::CczFactory;
//!
//! let ctx = ArchContext::paper();
//! let factory = CczFactory::for_target(&ctx, 1.6e-11).unwrap();
//! // ~100 CCZ per second per factory at paper parameters.
//! let rate = factory.production_rate(&ctx);
//! assert!(rate > 30.0 && rate < 1000.0);
//! ```

#![forbid(unsafe_code)]

pub mod ccz;
pub mod circuits;
pub mod cultivation;
pub mod distill15;
pub mod se_opt;

pub use ccz::CczFactory;
pub use circuits::FactoryProtocol;
pub use cultivation::CultivationModel;
pub use distill15::Distill15Factory;
pub use se_opt::sweep_factory_se_rounds;
