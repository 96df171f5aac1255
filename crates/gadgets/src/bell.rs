//! Bell-pair space–time trade-offs: reaction-limited parallelization
//! (paper §III.5, Fig. 7).
//!
//! A Bell-state preparation plus Bell-basis measurement "bends a qubit
//! backward then forward in time", letting sequentially-dependent circuit
//! blocks execute in parallel; the dependent measurements resolve one by one
//! at reaction-time intervals. A block of physical duration `t_block` can
//! therefore run `⌈t_block / t_r⌉` copies deep in a pipeline, at the price of
//! holding that many copies (plus bridge qubits) in space.

/// Number of parallel block copies needed so the computation is limited only
/// by the reaction time (Fig. 7: "execute t_block/t_r copies in parallel").
///
/// # Panics
///
/// Panics unless both durations are positive and finite.
///
/// # Example
///
/// ```
/// use raa_gadgets::bell::parallel_copies;
///
/// // A 5 ms MAJ block at a 1 ms reaction time: 5 copies in flight.
/// assert_eq!(parallel_copies(5e-3, 1e-3), 5);
/// ```
// raa-audit: allow(orphan-pub): its doctest shows the Fig. 7 copy count; the adder sizes its pipeline with it in-crate.
pub fn parallel_copies(t_block: f64, t_reaction: f64) -> u64 {
    assert!(
        t_block.is_finite() && t_block > 0.0,
        "block duration must be positive, got {t_block}"
    );
    assert!(
        t_reaction.is_finite() && t_reaction > 0.0,
        "reaction time must be positive, got {t_reaction}"
    );
    (t_block / t_reaction).ceil().max(1.0) as u64
}

/// Space overhead (in patches) of running `copies` of a block of
/// `patches_per_block` patches, including one bridge-qubit pair per copy.
pub(crate) fn pipeline_patches(copies: u64, patches_per_block: u64) -> u64 {
    copies * (patches_per_block + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn copies_round_up() {
        assert_eq!(parallel_copies(5e-3, 1e-3), 5);
        assert_eq!(parallel_copies(5.1e-3, 1e-3), 6);
        assert_eq!(parallel_copies(0.5e-3, 1e-3), 1);
    }

    #[test]
    fn pipeline_space_accounting() {
        assert_eq!(pipeline_patches(5, 6), 40);
        assert_eq!(pipeline_patches(1, 0), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_reaction() {
        let _ = parallel_copies(1e-3, 0.0);
    }

    proptest! {
        /// Copies × reaction always covers the block duration.
        #[test]
        fn copies_cover_block(t_block in 1e-5f64..1.0, t_r in 1e-5f64..1.0) {
            let c = parallel_copies(t_block, t_r);
            prop_assert!(c as f64 * t_r >= t_block - 1e-12);
            // And never overshoot by more than one reaction time.
            prop_assert!((c as f64 - 1.0) * t_r <= t_block + 1e-12);
        }
    }
}
