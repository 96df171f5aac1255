//! Ekerå–Håstad factoring instances and windowed-arithmetic counts
//! (paper §III.2, Fig. 5).
//!
//! The Ekerå–Håstad variant [74, 75] factors an RSA integer by computing a
//! short discrete logarithm, shortening the exponent to about `1.5 n` bits
//! with near-unity classical post-processing success. Modular exponentiation
//! is compiled with windowed arithmetic \[65\]: exponent windows of `w_exp`
//! bits and multiplication windows of `w_mul` bits turn each modular
//! multiplication into table look-ups plus accumulator additions. Each
//! multiplication appears twice (compute and uncompute), giving
//!
//! ```text
//! lookup_additions = 2 · ⌈n_e/w_exp⌉ · ⌈n/w_mul⌉
//! ```
//!
//! — about 1.05×10⁶ for 2048-bit factoring at the paper's Table II windows,
//! matching its quoted ≈1.07×10⁶.

use std::fmt;

/// Extra exponent padding bits in the Ekerå–Håstad exponent length.
pub(crate) const EXPONENT_PADDING: u32 = 10;

/// An RSA factoring instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FactoringInstance {
    n_bits: u32,
}

impl FactoringInstance {
    /// A factoring instance for an `n_bits` RSA modulus.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits < 16` (not a meaningful RSA instance).
    pub fn new(n_bits: u32) -> Self {
        assert!(n_bits >= 16, "RSA modulus must be at least 16 bits");
        Self { n_bits }
    }

    /// The paper's benchmark: RSA-2048.
    pub(crate) fn rsa2048() -> Self {
        Self::new(2048)
    }

    /// Modulus width in bits.
    pub(crate) fn n_bits(&self) -> u32 {
        self.n_bits
    }

    /// Ekerå–Håstad exponent length: `1.5 n` plus padding.
    pub(crate) fn exponent_bits(&self) -> u32 {
        self.n_bits + self.n_bits / 2 + EXPONENT_PADDING
    }
}

impl fmt::Display for FactoringInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RSA-{}", self.n_bits)
    }
}

/// Algorithm-level parameters of the windowed compilation (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgorithmParams {
    /// Exponent window size `w_exp` (Table II: 3).
    pub w_exp: u32,
    /// Multiplication window size `w_mul` (Table II: 4).
    pub w_mul: u32,
    /// Runway separation `r_sep` (Table II: 96).
    pub r_sep: u32,
    /// Runway padding `r_pad` (Table II: 43).
    pub r_pad: u32,
    /// Code distance (Table II: 27).
    pub distance: u32,
    /// Maximum number of magic-state factories (Table II: 192).
    pub max_factories: u32,
}

impl AlgorithmParams {
    /// The paper's Table II parameter choice for 2048-bit factoring.
    pub fn paper_table2() -> Self {
        Self {
            w_exp: 3,
            w_mul: 4,
            r_sep: 96,
            r_pad: 43,
            distance: 27,
            max_factories: 192,
        }
    }

    /// The Gidney–Ekerå parameter choice quoted in Table II for comparison.
    pub fn gidney_ekera_table2() -> Self {
        Self {
            w_exp: 5,
            w_mul: 5,
            r_sep: 1024,
            r_pad: 43,
            distance: 27,
            max_factories: 28,
        }
    }

    /// Validates the parameters for `instance`.
    ///
    /// # Panics
    ///
    /// Panics on zero windows, zero runway separation or `distance < 3`.
    pub(crate) fn validate(&self, instance: &FactoringInstance) {
        assert!(self.w_exp >= 1, "exponent window must be at least 1");
        assert!(self.w_mul >= 1, "multiplication window must be at least 1");
        assert!(self.r_sep >= 1, "runway separation must be at least 1");
        assert!(
            self.r_sep <= instance.n_bits(),
            "runway separation exceeds the register width"
        );
        assert!(self.distance >= 3, "distance must be at least 3");
        assert!(self.max_factories >= 1, "need at least one factory");
    }
}

/// Windowed-arithmetic operation counts for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OperationCounts {
    /// Total windowed lookup-additions.
    pub(crate) lookup_additions: u64,
    /// Exponent windows processed (one controlled multiply each... times two
    /// for compute/uncompute).
    pub(crate) exponent_windows: u64,
    /// Multiplication windows per multiplication.
    pub(crate) multiplication_windows: u64,
}

/// Computes the windowed-arithmetic counts for `instance` under `params`.
pub(crate) fn operation_counts(
    instance: &FactoringInstance,
    params: &AlgorithmParams,
) -> OperationCounts {
    params.validate(instance);
    let exp_windows = u64::from(instance.exponent_bits().div_ceil(params.w_exp));
    let mul_windows = u64::from(instance.n_bits().div_ceil(params.w_mul));
    OperationCounts {
        lookup_additions: 2 * exp_windows * mul_windows,
        exponent_windows: exp_windows,
        multiplication_windows: mul_windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rsa2048_exponent_length() {
        let inst = FactoringInstance::rsa2048();
        assert_eq!(inst.n_bits(), 2048);
        assert_eq!(inst.exponent_bits(), 2048 + 1024 + EXPONENT_PADDING);
    }

    #[test]
    fn paper_lookup_addition_count() {
        // §IV.2: "around 1.07e6 lookup-additions".
        let counts = operation_counts(
            &FactoringInstance::rsa2048(),
            &AlgorithmParams::paper_table2(),
        );
        let la = counts.lookup_additions;
        assert!(
            (1.0e6..1.15e6).contains(&(la as f64)),
            "lookup-additions = {la}"
        );
    }

    #[test]
    fn table2_values() {
        let p = AlgorithmParams::paper_table2();
        assert_eq!((p.w_exp, p.w_mul, p.r_sep, p.r_pad), (3, 4, 96, 43));
        assert_eq!(p.distance, 27);
        assert_eq!(p.max_factories, 192);
        let ge = AlgorithmParams::gidney_ekera_table2();
        assert_eq!((ge.w_exp, ge.w_mul, ge.r_sep), (5, 5, 1024));
    }

    #[test]
    #[should_panic(expected = "at least 16")]
    fn rejects_toy_instance() {
        let _ = FactoringInstance::new(8);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_oversized_runway() {
        let mut p = AlgorithmParams::paper_table2();
        p.r_sep = 4096;
        p.validate(&FactoringInstance::rsa2048());
    }

    proptest! {
        /// Larger windows always reduce the lookup-addition count.
        #[test]
        fn windows_reduce_counts(n_k in 4u32..64, w in 1u32..8) {
            let inst = FactoringInstance::new(n_k * 32);
            let mut p = AlgorithmParams::paper_table2();
            p.r_sep = 32;
            p.w_exp = w;
            p.w_mul = w;
            let a = operation_counts(&inst, &p);
            p.w_exp = w + 1;
            p.w_mul = w + 1;
            let b = operation_counts(&inst, &p);
            prop_assert!(b.lookup_additions <= a.lookup_additions);
        }

        /// Counts scale like n² for fixed windows.
        #[test]
        fn quadratic_scaling(k in 2u32..16) {
            let p = AlgorithmParams {
                r_sep: 32,
                ..AlgorithmParams::paper_table2()
            };
            let small = operation_counts(&FactoringInstance::new(k * 64), &p);
            let big = operation_counts(&FactoringInstance::new(2 * k * 64), &p);
            let ratio = big.lookup_additions as f64 / small.lookup_additions as f64;
            prop_assert!((ratio - 4.0).abs() < 0.3, "ratio = {ratio}");
        }
    }
}
