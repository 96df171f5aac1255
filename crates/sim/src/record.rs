//! Experiment result records with deterministic JSON serialization.
//!
//! A record is the full, self-describing outcome of one engine run: the
//! spec echo (scenario, geometry, noise, decoder, seed), the circuit/DEM
//! shape and the decode statistics. Serialization is hand-rolled (the build
//! has no serde) with a fixed key order and shortest-round-trip float
//! formatting, so for a given spec the JSON is **byte-identical across
//! runs, platforms and thread counts** — the property the engine's
//! determinism tests pin. [`ExperimentRecord::from_json`] parses the same
//! format back losslessly (`from_json ∘ to_json = id`, proptest-pinned),
//! which is what lets the sweep orchestrator's on-disk cache replay
//! records byte-for-byte.

use raa_surface::{Basis, NoiseModel};

/// The result of running one [`crate::ExperimentSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Spec name.
    pub name: String,
    /// Scenario label (one of [`crate::Scenario::LABELS`]).
    pub scenario: String,
    /// Code distance.
    pub distance: u32,
    /// Logical basis protected.
    pub basis: Basis,
    /// Number of logical patches.
    pub patches: usize,
    /// Transversal CNOTs in the circuit (0 for memory).
    pub cnots: usize,
    /// Syndrome-extraction rounds executed.
    pub se_rounds: usize,
    /// CNOTs per SE round (the paper's `x`), when the scenario has one.
    pub cnots_per_round: Option<f64>,
    /// Circuit-level noise strengths.
    pub noise: NoiseModel,
    /// Decoder label.
    pub decoder: String,
    /// Sampling-path label ("dem", "circuit").
    pub sampler: String,
    /// Whether the Monte-Carlo decode streamed one time layer at a time
    /// (bounded-memory windowed pipeline) instead of materializing whole
    /// batches.
    pub streaming: bool,
    /// Spec seed.
    pub seed: u64,
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
        let mut s = String::with_capacity(256);
        s.push('{');
        json_str(&mut s, "name", &self.name);
        json_str(&mut s, "scenario", &self.scenario);
        json_num(&mut s, "distance", self.distance as f64);
        json_str(
            &mut s,
            "basis",
            match self.basis {
                Basis::Z => "Z",
                Basis::X => "X",
            },
        );
        json_num(&mut s, "patches", self.patches as f64);
        json_num(&mut s, "cnots", self.cnots as f64);
        json_num(&mut s, "se_rounds", self.se_rounds as f64);
        json_opt(&mut s, "cnots_per_round", self.cnots_per_round);
        json_num(&mut s, "p2", self.noise.p2);
        json_num(&mut s, "p_idle", self.noise.p_idle);
        json_num(&mut s, "p_prep", self.noise.p_prep);
        json_num(&mut s, "p_meas", self.noise.p_meas);
        json_str(&mut s, "decoder", &self.decoder);
        json_str(&mut s, "sampler", &self.sampler);
        json_bool(&mut s, "streaming", self.streaming);
        // u64 seeds overflow JSON's interoperable double range: keep as text.
        json_str(&mut s, "seed", &self.seed.to_string());
        json_num(&mut s, "num_detectors", self.num_detectors as f64);
        json_num(&mut s, "num_dem_errors", self.num_dem_errors as f64);
        json_num(
            &mut s,
            "arbitrary_decompositions",
            self.arbitrary_decompositions as f64,
        );
        json_num(&mut s, "shots", self.shots as f64);
        json_num(&mut s, "failures", self.failures as f64);
        json_num(&mut s, "logical_error_rate", self.logical_error_rate());
        json_num(&mut s, "standard_error", self.standard_error());
        json_num(
            &mut s,
            "error_per_qubit_round",
            self.error_per_qubit_round(),
        );
        json_opt(&mut s, "error_per_cnot", self.error_per_cnot());
        s.pop(); // trailing comma
        s.push('}');
        s
    }
}

impl ExperimentRecord {
    /// Parses a record from the JSON produced by [`ExperimentRecord::to_json`].
    ///
    /// The parser accepts any flat JSON object (keys in any order, unknown
    /// keys ignored — derived rates like `logical_error_rate` are
    /// recomputed, not read back). Because `to_json` uses shortest
    /// round-trip float formatting and text-encodes the `seed` (u64 values
    /// overflow JSON's interoperable double range), the composition
    /// `from_json ∘ to_json` is the identity, field for field and therefore
    /// byte for byte on re-serialization.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: malformed JSON, a
    /// missing required field, or a field value of the wrong type/range
    /// (e.g. a fractional `shots`, a seed that is not a `u64`, an unknown
    /// `basis` letter).
    pub fn from_json(s: &str) -> Result<Self, String> {
        let fields = parse_flat_object(s)?;
        let get = |key: &str| -> Result<&JsonValue, String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field \"{key}\""))
        };
        let get_str = |key: &str| -> Result<String, String> {
            match get(key)? {
                JsonValue::Str(v) => Ok(v.clone()),
                other => Err(format!("field \"{key}\": expected string, got {other:?}")),
            }
        };
        let get_f64 = |key: &str| -> Result<f64, String> {
            match get(key)? {
                JsonValue::Num(v) => Ok(*v),
                other => Err(format!("field \"{key}\": expected number, got {other:?}")),
            }
        };
        // Counts above 2^53 are not exact in a JSON number (the wire codec
        // draws the same line).
        let get_usize = |key: &str| -> Result<usize, String> {
            let v = get_f64(key)?;
            if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) {
                Ok(v as usize)
            } else {
                Err(format!(
                    "field \"{key}\": expected non-negative integer, got {v}"
                ))
            }
        };
        let get_bool = |key: &str| -> Result<bool, String> {
            match get(key)? {
                JsonValue::Bool(v) => Ok(*v),
                other => Err(format!("field \"{key}\": expected bool, got {other:?}")),
            }
        };
        let get_opt_f64 = |key: &str| -> Result<Option<f64>, String> {
            match get(key)? {
                JsonValue::Num(v) => Ok(Some(*v)),
                JsonValue::Null => Ok(None),
                other => Err(format!(
                    "field \"{key}\": expected number or null, got {other:?}"
                )),
            }
        };
        let basis = match get_str("basis")?.as_str() {
            "Z" => Basis::Z,
            "X" => Basis::X,
            other => return Err(format!("field \"basis\": unknown basis {other:?}")),
        };
        let seed_text = get_str("seed")?;
        let seed: u64 = seed_text
            .parse()
            .map_err(|_| format!("field \"seed\": not a u64: {seed_text:?}"))?;
        let distance = u32::try_from(get_usize("distance")?)
            .map_err(|_| "field \"distance\": exceeds u32".to_string())?;
        Ok(ExperimentRecord {
            name: get_str("name")?,
            scenario: get_str("scenario")?,
            distance,
            basis,
            patches: get_usize("patches")?,
            cnots: get_usize("cnots")?,
            se_rounds: get_usize("se_rounds")?,
            cnots_per_round: get_opt_f64("cnots_per_round")?,
            noise: NoiseModel {
                p2: get_f64("p2")?,
                p_idle: get_f64("p_idle")?,
                p_prep: get_f64("p_prep")?,
                p_meas: get_f64("p_meas")?,
            },
            decoder: get_str("decoder")?,
            sampler: get_str("sampler")?,
            streaming: get_bool("streaming")?,
            seed,
            num_detectors: get_usize("num_detectors")?,
            num_dem_errors: get_usize("num_dem_errors")?,
            arbitrary_decompositions: get_usize("arbitrary_decompositions")?,
            shots: get_usize("shots")?,
            failures: get_usize("failures")?,
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

fn json_key(s: &mut String, key: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
}

fn json_str(s: &mut String, key: &str, value: &str) {
    json_key(s, key);
    s.push('"');
    for ch in value.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push_str("\",");
}

fn json_bool(s: &mut String, key: &str, value: bool) {
    json_key(s, key);
    s.push_str(if value { "true" } else { "false" });
    s.push(',');
}

fn json_num(s: &mut String, key: &str, value: f64) {
    json_key(s, key);
    if value.is_finite() {
        // Shortest round-trip formatting: deterministic and lossless.
        s.push_str(&format!("{value}"));
    } else {
        s.push_str("null");
    }
    s.push(',');
}

fn json_opt(s: &mut String, key: &str, value: Option<f64>) {
    match value {
        Some(v) => json_num(s, key, v),
        None => {
            json_key(s, key);
            s.push_str("null,");
        }
    }
}

/// Parses newline-delimited JSON records ([`to_json_lines`] output); blank
/// lines are skipped. Fails on the first malformed record, identifying its
/// line number.
pub fn parse_json_lines(text: &str) -> Result<Vec<ExperimentRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            ExperimentRecord::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// One value of a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Parses a single flat JSON object (no nesting — the record format) into
/// its key/value pairs in document order.
fn parse_flat_object(s: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after object at offset {}", p.pos));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected literal {word:?} at offset {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("malformed number {text:?}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "non-ascii \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("malformed \\u escape {hex:?}"))?;
                        self.pos += 4;
                        // The writer only emits \u for control characters
                        // (< 0x20), so surrogate pairs never occur here.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u code point {code:#x}"))?,
                        );
                    }
                    other => return Err(format!("unknown escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: the input is a &str, so the bytes
                    // are valid — find the char at this byte position.
                    let rest = std::str::from_utf8(&self.bytes[self.pos - 1..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8() - 1;
                    let _ = b;
                }
            }
        }
    }
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
            "future_field":"ignored","logical_error_rate":0.1}"#
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
    }

    #[test]
    fn parse_json_lines_round_trips_and_reports_line_numbers() {
        let records = vec![record(), record()];
        let text = to_json_lines(&records);
        assert_eq!(parse_json_lines(&text).expect("well-formed"), records);
        let broken = format!("{}\nnot json\n", records[0].to_json());
        assert!(parse_json_lines(&broken).unwrap_err().starts_with("line 2"));
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
