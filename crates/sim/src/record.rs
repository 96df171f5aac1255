//! Experiment result records with deterministic JSON serialization.
//!
//! A record is the full, self-describing outcome of one engine run: the
//! spec echo (scenario, geometry, noise, decoder, seed), the circuit/DEM
//! shape and the decode statistics. [`ExperimentRecord::to_json`] writes it
//! as one flat JSON object with a fixed key order, through the escaping and
//! shortest-round-trip number rules of [`crate::json`], so for a given spec
//! the JSON is **byte-identical across runs, platforms and thread counts**
//! — the property the engine's determinism tests pin.
//! `ExperimentRecord::from_json` reads it back with [`Json::parse`] and
//! the typed accessors, losslessly (`from_json ∘ to_json = id`,
//! proptest-pinned), which is what lets the sweep orchestrator's on-disk
//! cache and the daemon's wire codec replay records byte-for-byte.

use crate::json::{write_number, write_string, Json};
use raa_surface::{Basis, NoiseModel};

/// The letter a basis is written as, in records and on the wire.
pub(crate) fn basis_letter(basis: Basis) -> &'static str {
    match basis {
        Basis::Z => "Z",
        Basis::X => "X",
    }
}

/// The field `"basis"` of the object `v`, read as a basis letter.
pub(crate) fn basis_field(v: &Json) -> Result<Basis, String> {
    match v.str_field("basis")? {
        "Z" => Ok(Basis::Z),
        "X" => Ok(Basis::X),
        other => Err(format!("field \"basis\": unknown basis {other:?}")),
    }
}

/// The result of running one [`crate::ExperimentSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Spec name.
    pub name: String,
    /// Scenario label (one of `crate::Scenario::LABELS`).
    pub scenario: String,
    /// Code distance.
    pub distance: u32,
    /// Logical basis protected.
    pub(crate) basis: Basis,
    /// Number of logical patches.
    pub patches: usize,
    /// Transversal CNOTs in the circuit (0 for memory).
    pub cnots: usize,
    /// Syndrome-extraction rounds executed.
    pub se_rounds: usize,
    /// CNOTs per SE round (the paper's `x`), when the scenario has one.
    pub cnots_per_round: Option<f64>,
    /// Circuit-level noise strengths.
    pub(crate) noise: NoiseModel,
    /// Decoder label.
    pub decoder: String,
    /// Sampling-path label ("dem", "circuit").
    pub sampler: String,
    /// Whether the Monte-Carlo decode streamed one time layer at a time
    /// (bounded-memory windowed pipeline) instead of materializing whole
    /// batches.
    pub streaming: bool,
    /// Spec seed.
    pub(crate) seed: u64,
    /// Detectors in the circuit.
    pub num_detectors: usize,
    /// Error mechanisms in the extracted DEM.
    pub num_dem_errors: usize,
    /// Hyperedges needing arbitrary pairing during graphlike decomposition.
    pub arbitrary_decompositions: usize,
    /// Shots decoded.
    pub shots: usize,
    /// Shots where the decoder mispredicted the observable mask.
    pub failures: usize,
}

impl ExperimentRecord {
    /// The logical error rate estimate (failures / shots).
    pub fn logical_error_rate(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }

    /// Binomial standard error of the estimate.
    pub fn standard_error(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let p = self.logical_error_rate();
        (p * (1.0 - p) / self.shots as f64).sqrt()
    }

    /// Logical error rate per logical qubit per SE round, assuming
    /// independent additive errors.
    pub fn error_per_qubit_round(&self) -> f64 {
        // In f64, so a parsed record cannot overflow; the product is exact
        // (and equal to the integer one) below 2^53.
        per_unit_rate(
            self.logical_error_rate(),
            self.patches as f64 * self.se_rounds as f64,
        )
    }

    /// Logical error rate per transversal CNOT, when the circuit has any.
    pub fn error_per_cnot(&self) -> Option<f64> {
        (self.cnots > 0).then(|| per_unit_rate(self.logical_error_rate(), self.cnots as f64))
    }

    /// Serializes the record to one line of JSON with a fixed key order.
    pub fn to_json(&self) -> String {
        // `None` is written as `null`, as every non-finite number is.
        let opt = |v: Option<f64>| v.unwrap_or(f64::NAN);
        let mut s = String::with_capacity(256);
        s.push_str("{\"name\":");
        write_string(&mut s, &self.name);
        s.push_str(",\"scenario\":");
        write_string(&mut s, &self.scenario);
        s.push_str(",\"distance\":");
        write_number(&mut s, f64::from(self.distance));
        s.push_str(",\"basis\":");
        write_string(&mut s, basis_letter(self.basis));
        s.push_str(",\"patches\":");
        write_number(&mut s, self.patches as f64);
        s.push_str(",\"cnots\":");
        write_number(&mut s, self.cnots as f64);
        s.push_str(",\"se_rounds\":");
        write_number(&mut s, self.se_rounds as f64);
        s.push_str(",\"cnots_per_round\":");
        write_number(&mut s, opt(self.cnots_per_round));
        s.push_str(",\"p2\":");
        write_number(&mut s, self.noise.p2);
        s.push_str(",\"p_idle\":");
        write_number(&mut s, self.noise.p_idle);
        s.push_str(",\"p_prep\":");
        write_number(&mut s, self.noise.p_prep);
        s.push_str(",\"p_meas\":");
        write_number(&mut s, self.noise.p_meas);
        s.push_str(",\"decoder\":");
        write_string(&mut s, &self.decoder);
        s.push_str(",\"sampler\":");
        write_string(&mut s, &self.sampler);
        s.push_str(if self.streaming {
            ",\"streaming\":true"
        } else {
            ",\"streaming\":false"
        });
        // u64 seeds overflow JSON's interoperable double range: keep as text.
        s.push_str(",\"seed\":");
        write_string(&mut s, &self.seed.to_string());
        s.push_str(",\"num_detectors\":");
        write_number(&mut s, self.num_detectors as f64);
        s.push_str(",\"num_dem_errors\":");
        write_number(&mut s, self.num_dem_errors as f64);
        s.push_str(",\"arbitrary_decompositions\":");
        write_number(&mut s, self.arbitrary_decompositions as f64);
        s.push_str(",\"shots\":");
        write_number(&mut s, self.shots as f64);
        s.push_str(",\"failures\":");
        write_number(&mut s, self.failures as f64);
        s.push_str(",\"logical_error_rate\":");
        write_number(&mut s, self.logical_error_rate());
        s.push_str(",\"standard_error\":");
        write_number(&mut s, self.standard_error());
        s.push_str(",\"error_per_qubit_round\":");
        write_number(&mut s, self.error_per_qubit_round());
        s.push_str(",\"error_per_cnot\":");
        write_number(&mut s, opt(self.error_per_cnot()));
        s.push('}');
        s
    }
}

impl ExperimentRecord {
    /// Parses a record from the JSON produced by [`ExperimentRecord::to_json`].
    ///
    /// The line is parsed by [`Json::parse`] and must be a JSON object. Keys
    /// may come in any order, and unknown keys (nested values included) are
    /// ignored — derived rates like `logical_error_rate` are recomputed, not
    /// read back. Counts follow the [`crate::json`] count rule. Because
    /// `to_json` uses shortest round-trip float formatting and text-encodes
    /// the `seed` (u64 values overflow JSON's interoperable double range),
    /// the composition `from_json ∘ to_json` is the identity, field for
    /// field and therefore byte for byte on re-serialization.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: malformed JSON
    /// (including a number that overflows an `f64`), a missing required
    /// field, or a field value of the wrong type/range (e.g. a fractional
    /// `shots`, a seed that is not a `u64`, an unknown `basis` letter).
    pub(crate) fn from_json(s: &str) -> Result<Self, String> {
        let v = Json::parse(s)?;
        let basis = basis_field(&v)?;
        Ok(ExperimentRecord {
            name: v.str_field("name")?.to_string(),
            scenario: v.str_field("scenario")?.to_string(),
            distance: v.u32_field("distance")?,
            basis,
            patches: v.count_field("patches")?,
            cnots: v.count_field("cnots")?,
            se_rounds: v.count_field("se_rounds")?,
            cnots_per_round: v.opt_f64_field("cnots_per_round")?,
            noise: NoiseModel {
                p2: v.f64_field("p2")?,
                p_idle: v.f64_field("p_idle")?,
                p_prep: v.f64_field("p_prep")?,
                p_meas: v.f64_field("p_meas")?,
            },
            decoder: v.str_field("decoder")?.to_string(),
            sampler: v.str_field("sampler")?.to_string(),
            streaming: v.bool_field("streaming")?,
            seed: v.u64_str_field("seed")?,
            num_detectors: v.count_field("num_detectors")?,
            num_dem_errors: v.count_field("num_dem_errors")?,
            arbitrary_decompositions: v.count_field("arbitrary_decompositions")?,
            shots: v.count_field("shots")?,
            failures: v.count_field("failures")?,
        })
    }
}

/// Inverts `p_total = 1 - (1 - p_unit)^units`: the per-unit error rate of
/// `units` independent additive error opportunities compounding to
/// `p_total`.
fn per_unit_rate(p_total: f64, units: f64) -> f64 {
    if p_total <= 0.0 {
        return 0.0;
    }
    if p_total >= 1.0 {
        return 1.0;
    }
    1.0 - (1.0 - p_total).powf(1.0 / units)
}

/// Serializes records as newline-delimited JSON (one record per line).
pub fn to_json_lines(records: &[ExperimentRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record() -> ExperimentRecord {
        ExperimentRecord {
            name: "t/d3".into(),
            scenario: "memory".into(),
            distance: 3,
            basis: Basis::Z,
            patches: 1,
            cnots: 0,
            se_rounds: 6,
            cnots_per_round: None,
            noise: NoiseModel::uniform(1e-3),
            decoder: "union_find".into(),
            sampler: "dem".into(),
            streaming: false,
            seed: u64::MAX,
            num_detectors: 24,
            num_dem_errors: 100,
            arbitrary_decompositions: 0,
            shots: 10_000,
            failures: 25,
        }
    }

    #[test]
    fn derived_rates() {
        let r = record();
        assert!((r.logical_error_rate() - 0.0025).abs() < 1e-12);
        assert!(r.standard_error() > 0.0);
        assert!(r.error_per_qubit_round() > 0.0);
        assert!(r.error_per_qubit_round() < r.logical_error_rate());
        assert_eq!(r.error_per_cnot(), None);
        let mut with_cnots = record();
        with_cnots.cnots = 8;
        assert!(with_cnots.error_per_cnot().unwrap() > 0.0);
    }

    #[test]
    fn per_unit_rate_inverts_compounding() {
        let p_unit: f64 = 0.01;
        let units = 7.0;
        let p_total = 1.0 - (1.0 - p_unit).powf(units);
        assert!((per_unit_rate(p_total, units) - p_unit).abs() < 1e-12);
        assert_eq!(per_unit_rate(0.0, 5.0), 0.0);
    }

    #[test]
    fn json_shape() {
        let j = record().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"name\":\"t/d3\""));
        assert!(j.contains("\"cnots_per_round\":null"));
        assert!(j.contains("\"sampler\":\"dem\""));
        assert!(j.contains("\"streaming\":false"));
        let mut streamed = record();
        streamed.streaming = true;
        assert!(streamed.to_json().contains("\"streaming\":true"));
        assert!(j.contains("\"seed\":\"18446744073709551615\""));
        assert!(j.contains("\"p2\":0.001"));
        assert!(j.contains("\"failures\":25"));
        assert!(!j.contains(",}"), "no trailing comma: {j}");
    }

    #[test]
    fn json_escapes_strings() {
        let mut r = record();
        r.name = "a\"b\\c\nd".into();
        let j = r.to_json();
        assert!(j.contains(r#""name":"a\"b\\c\nd""#), "{j}");
    }

    #[test]
    fn json_lines_one_per_record() {
        let lines = to_json_lines(&[record(), record()]);
        assert_eq!(lines.lines().count(), 2);
        for line in lines.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn zero_shot_record_is_safe() {
        let mut r = record();
        r.shots = 0;
        r.failures = 0;
        assert_eq!(r.logical_error_rate(), 0.0);
        assert_eq!(r.standard_error(), 0.0);
        assert!(r.to_json().contains("\"logical_error_rate\":0"));
    }

    #[test]
    fn from_json_round_trips_sample_record() {
        let r = record();
        let parsed = ExperimentRecord::from_json(&r.to_json()).expect("well-formed");
        assert_eq!(parsed, r);
        // And the bytes themselves survive a second serialization.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn from_json_round_trips_tricky_fields() {
        let mut r = record();
        // The fields most likely to lose information in a JSON trip: a u64
        // seed beyond 2^53 (text-encoded), a present cnots_per_round, a
        // name needing escapes, an X basis and the streaming flag.
        r.seed = u64::MAX - 1;
        r.cnots = 8;
        r.cnots_per_round = Some(1.25);
        r.name = "a\"b\\c\nd\té\u{1}".into();
        r.basis = Basis::X;
        r.streaming = true;
        let parsed = ExperimentRecord::from_json(&r.to_json()).expect("well-formed");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn from_json_accepts_unknown_keys_and_any_order() {
        let j = r#"{"shots":10,"failures":1,"name":"n","scenario":"memory","distance":3,
            "basis":"Z","patches":1,"cnots":0,"se_rounds":2,"cnots_per_round":null,
            "p2":0.001,"p_idle":0.001,"p_prep":0.001,"p_meas":0.001,
            "decoder":"union_find","sampler":"dem","streaming":false,"seed":"7",
            "num_detectors":8,"num_dem_errors":40,"arbitrary_decompositions":0,
            "future_field":"ignored","future_nested":{"list":[1,[true,null]]},
            "logical_error_rate":0.1}"#
            .replace('\n', "");
        let r = ExperimentRecord::from_json(&j).expect("unknown keys are fine");
        assert_eq!(r.shots, 10);
        assert_eq!(r.seed, 7);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        let good = record().to_json();
        assert!(ExperimentRecord::from_json("").is_err());
        assert!(ExperimentRecord::from_json("[]").is_err());
        assert!(
            ExperimentRecord::from_json(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        assert!(
            ExperimentRecord::from_json(&format!("{good}x")).is_err(),
            "trailing bytes"
        );
        let missing = good.replace("\"shots\":10000,", "");
        assert!(ExperimentRecord::from_json(&missing)
            .unwrap_err()
            .contains("shots"));
        let bad_seed = good.replace(
            "\"seed\":\"18446744073709551615\"",
            "\"seed\":\"not-a-number\"",
        );
        assert!(ExperimentRecord::from_json(&bad_seed)
            .unwrap_err()
            .contains("seed"));
        let bad_basis = good.replace("\"basis\":\"Z\"", "\"basis\":\"Y\"");
        assert!(ExperimentRecord::from_json(&bad_basis)
            .unwrap_err()
            .contains("basis"));
        let fractional = good.replace("\"shots\":10000", "\"shots\":10000.5");
        assert!(ExperimentRecord::from_json(&fractional)
            .unwrap_err()
            .contains("shots"));
        // 2^64 is no exact JSON integer: it used to saturate to usize::MAX
        // and overflow the per-round product on re-serialization.
        let huge = good.replace("\"patches\":1,", "\"patches\":18446744073709551616,");
        assert!(ExperimentRecord::from_json(&huge)
            .unwrap_err()
            .contains("patches"));
        // 2^40 patches and rounds are exact, and their product (2^80) does
        // not fit a usize: the derived rates must not overflow.
        let wide = good
            .replace("\"patches\":1,", "\"patches\":1099511627776,")
            .replace("\"se_rounds\":6,", "\"se_rounds\":1099511627776,");
        let parsed = ExperimentRecord::from_json(&wide).expect("2^40 is exact");
        assert_eq!((parsed.patches, parsed.se_rounds), (1 << 40, 1 << 40));
        assert!(parsed.to_json().contains("\"patches\":1099511627776,"));
        // 1e999 overflows to infinity, which `to_json` would write as
        // `null`: rejected, so `from_json ∘ to_json` stays the identity.
        let overflow = good.replace("\"p2\":0.001,", "\"p2\":1e999,");
        assert_ne!(overflow, good);
        let err = ExperimentRecord::from_json(&overflow).unwrap_err();
        assert!(err.contains("overflows") && err.contains("offset"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `from_json ∘ to_json = id` over randomized records, including
        /// escape-heavy names, u64 seeds, optional fields and arbitrary
        /// shortest-round-trip floats.
        #[test]
        fn json_round_trip_is_identity(
            name_bytes in collection::vec(0u8..100, 0..12),
            seed in any::<u64>(),
            geometry in (3u32..40, 1usize..6, 0usize..200, 1usize..400),
            noise in (0.0f64..0.1, 0.0f64..0.1, 0.0f64..0.1, 0.0f64..0.1),
            x_and_flags in (0.05f64..8.0, any::<bool>(), any::<bool>(), any::<bool>()),
            counts in (0usize..100_000, 0u32..1_000, 0usize..5_000, 0usize..10_000),
            scenario_idx in 0usize..crate::Scenario::LABELS.len(),
        ) {
            let name: String = name_bytes
                .iter()
                .map(|&b| match b {
                    0..=94 => (32 + b) as char, // printable ASCII incl. " and \
                    95 => '\n',
                    96 => '\t',
                    97 => '\r',
                    98 => '\u{1}', // control char ->  escape
                    _ => 'λ',      // multi-byte UTF-8
                })
                .collect();
            let (x, has_x, streaming, basis_x) = x_and_flags;
            let (shots, failure_frac, detectors, dem_errors) = counts;
            // Every label the engine emits.
            let scenario = crate::Scenario::LABELS[scenario_idx];
            let record = ExperimentRecord {
                name,
                scenario: scenario.into(),
                distance: geometry.0,
                basis: if basis_x { Basis::X } else { Basis::Z },
                patches: geometry.1,
                cnots: geometry.2,
                se_rounds: geometry.3,
                cnots_per_round: has_x.then_some(x),
                noise: NoiseModel {
                    p2: noise.0,
                    p_idle: noise.1,
                    p_prep: noise.2,
                    p_meas: noise.3,
                },
                decoder: "windowed_2+3".into(),
                sampler: "dem".into(),
                streaming,
                seed,
                num_detectors: detectors,
                num_dem_errors: dem_errors,
                arbitrary_decompositions: 0,
                shots,
                failures: shots * failure_frac as usize / 1_000,
            };
            let json = record.to_json();
            let parsed = ExperimentRecord::from_json(&json).expect("own output parses");
            prop_assert_eq!(&parsed, &record, "json: {}", json);
            prop_assert_eq!(parsed.to_json(), json);
        }
    }
}
