//! The JSON-lines job codec spoken between `raa-sweepd` and its clients.
//!
//! One request per line, one response per line, over any byte stream
//! (TCP in practice). The wire format is self-contained JSON built on the
//! crate's own recursive [`Json`] value — the record format's flat parser
//! ([`crate::record`]) deliberately rejects nesting, and the workspace is
//! offline-vendored, so the codec carries its own (depth-limited) parser
//! and writer with the exact same escaping and shortest-round-trip float
//! formatting rules as the record format.
//!
//! Two transport rules keep the daemon's headline guarantees intact:
//!
//! - **Records travel as their exact JSON line**, embedded as one JSON
//!   string (escaping is lossless), so a record's bytes survive the wire
//!   unchanged and a warm `raa-sweepd` answer is byte-identical to a local
//!   sweep — the property CI pins.
//! - **Seeds travel as decimal strings** (like the record format): a `u64`
//!   seed does not fit `f64` exactly.
//!
//! A spec's `mc` setting is *not* part of the wire format: it holds only
//! the decode thread count, which cannot change any record, and the server
//! owns its own execution budget.
//!
//! # Example
//!
//! ```
//! use raa_sim::jobs::{Request, Response};
//! use raa_sim::{ExperimentSpec, Rounds, Scenario};
//!
//! let spec = ExperimentSpec::new(
//!     "demo",
//!     Scenario::Memory { rounds: Rounds::Fixed(2) },
//!     3,
//! );
//! let request = Request::Sweep { id: "job-1".into(), specs: vec![spec] };
//! let line = request.to_line();
//! assert!(!line.contains('\n'), "one request per line");
//! let decoded = Request::from_line(&line).unwrap();
//! assert_eq!(decoded.id(), "job-1");
//! # let _ = Response::Error { id: "job-1".into(), message: "demo".into() };
//! ```

use crate::calibrate::{Calibration, CalibrationConfig};
use crate::error::PoisonedPoint;
use crate::orchestrator::ScrubReport;
use crate::record::ExperimentRecord;
use crate::spec::{DecoderChoice, ExperimentSpec, Rounds, SamplerChoice, Scenario, ShotBudget};
use raa_core::fit::FitResult;
use raa_core::ErrorModelParams;
use raa_factory::FactoryProtocol;
use raa_gadgets::GadgetKind;
use raa_surface::{Basis, NoiseModel};

/// Deepest nesting the wire parser accepts (requests are ~3 levels deep;
/// the limit exists so hostile input cannot blow the stack).
const MAX_DEPTH: usize = 16;

/// A JSON value, recursive (unlike the record format's flat parser).
/// Object fields keep insertion order, so encoding is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (written with shortest round-trip formatting).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value (the whole input must be consumed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Serializes to a single line (no interior newlines: every newline in
    /// a string is escaped, so one value is always one line).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Field lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The exact escaping rules of the record format.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&other) => Err(format!(
                "unexpected byte {:?} at offset {}",
                other as char, self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("malformed number at offset {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("malformed number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("malformed \\u escape {hex:?}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u code point {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let Some(ch) = rest.chars().next() else {
                        return Err("invalid utf-8 in string".to_string());
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn req_field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_str(obj: &Json, key: &str) -> Result<String, String> {
    req_field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn req_f64(obj: &Json, key: &str) -> Result<f64, String> {
    req_field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} must be a number"))
}

fn req_usize(obj: &Json, key: &str) -> Result<usize, String> {
    let v = req_f64(obj, key)?;
    if v < 0.0 || v.fract() != 0.0 || v > 2f64.powi(53) {
        return Err(format!("field {key:?} must be a non-negative integer"));
    }
    Ok(v as usize)
}

/// A non-negative integer that fits in `u32` (distances): larger values
/// are rejected, never wrapped or saturated.
fn u32_value(v: &Json, key: &str) -> Result<u32, String> {
    v.as_f64()
        .filter(|x| *x >= 0.0 && x.fract() == 0.0)
        .and_then(|x| u32::try_from(x as u64).ok())
        .ok_or_else(|| format!("field {key:?}: expected an integer in 0..=4294967295"))
}

fn req_bool(obj: &Json, key: &str) -> Result<bool, String> {
    req_field(obj, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a boolean"))
}

fn req_u64_str(obj: &Json, key: &str) -> Result<u64, String> {
    req_str(obj, key)?
        .parse()
        .map_err(|_| format!("field {key:?} must be a decimal u64 string"))
}

fn req_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req_field(obj, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn unum(v: usize) -> Json {
    Json::Num(v as f64)
}

fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

// ---------------------------------------------------------------------------
// Spec codec
// ---------------------------------------------------------------------------

fn rounds_to_wire(rounds: Rounds) -> String {
    match rounds {
        Rounds::Fixed(n) => format!("fixed:{n}"),
        Rounds::TimesDistance(k) => format!("xd:{k}"),
    }
}

fn rounds_from_wire(text: &str) -> Result<Rounds, String> {
    let parse = |v: &str| v.parse().map_err(|_| format!("malformed rounds {text:?}"));
    if let Some(n) = text.strip_prefix("fixed:") {
        Ok(Rounds::Fixed(parse(n)?))
    } else if let Some(k) = text.strip_prefix("xd:") {
        Ok(Rounds::TimesDistance(parse(k)?))
    } else {
        Err(format!("malformed rounds {text:?}"))
    }
}

fn shots_to_wire(shots: ShotBudget) -> String {
    match shots {
        ShotBudget::Fixed(n) => format!("fixed:{n}"),
        ShotBudget::UntilFailures {
            max_shots,
            target_failures,
        } => format!("until:{max_shots}:{target_failures}"),
    }
}

fn shots_from_wire(text: &str) -> Result<ShotBudget, String> {
    let bad = || format!("malformed shot budget {text:?}");
    if let Some(n) = text.strip_prefix("fixed:") {
        return Ok(ShotBudget::Fixed(n.parse().map_err(|_| bad())?));
    }
    if let Some(rest) = text.strip_prefix("until:") {
        let (max, target) = rest.split_once(':').ok_or_else(bad)?;
        return Ok(ShotBudget::UntilFailures {
            max_shots: max.parse().map_err(|_| bad())?,
            target_failures: target.parse().map_err(|_| bad())?,
        });
    }
    Err(bad())
}

fn decoder_from_label(label: &str) -> Result<DecoderChoice, String> {
    match label {
        "union_find" => Ok(DecoderChoice::UnionFind),
        "matching" => Ok(DecoderChoice::Matching),
        "bp_union_find" => Ok(DecoderChoice::BpUnionFind),
        other => {
            let bad = || format!("unknown decoder {other:?}");
            let spec = other.strip_prefix("windowed_").ok_or_else(bad)?;
            let (commit, buffer) = spec.split_once('+').ok_or_else(bad)?;
            Ok(DecoderChoice::Windowed {
                commit: commit.parse().map_err(|_| bad())?,
                buffer: buffer.parse().map_err(|_| bad())?,
            })
        }
    }
}

fn sampler_from_label(label: &str) -> Result<SamplerChoice, String> {
    match label {
        "dem" => Ok(SamplerChoice::Dem),
        "circuit" => Ok(SamplerChoice::Circuit),
        other => Err(format!("unknown sampler {other:?}")),
    }
}

fn basis_to_wire(basis: Basis) -> &'static str {
    match basis {
        Basis::Z => "Z",
        Basis::X => "X",
    }
}

fn basis_from_wire(text: &str) -> Result<Basis, String> {
    match text {
        "Z" => Ok(Basis::Z),
        "X" => Ok(Basis::X),
        other => Err(format!("unknown basis {other:?}")),
    }
}

/// Encodes a spec as a flat wire object. The `mc` setting (the decode
/// thread count) is deliberately dropped: it cannot change the record, and
/// the server owns its execution budget.
pub fn spec_to_json(spec: &ExperimentSpec) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("name", s(&spec.name)),
        ("scenario", s(spec.scenario.label())),
    ];
    match spec.scenario {
        Scenario::Memory { rounds } => fields.push(("rounds", s(rounds_to_wire(rounds)))),
        Scenario::TransversalCnot {
            patches,
            depth,
            cnots_per_round,
        } => {
            fields.push(("patches", unum(patches)));
            fields.push(("depth", unum(depth)));
            fields.push(("cnots_per_round", num(cnots_per_round)));
        }
        Scenario::GhzFanout { targets } => fields.push(("targets", unum(targets))),
        Scenario::DeepCnot {
            patches,
            rounds,
            cnots_per_round,
        } => {
            fields.push(("patches", unum(patches)));
            fields.push(("rounds", s(rounds_to_wire(rounds))));
            fields.push(("cnots_per_round", num(cnots_per_round)));
        }
        // The protocol/kind is carried by the per-variant scenario label.
        Scenario::MagicFactory { rounds, .. } => {
            fields.push(("rounds", s(rounds_to_wire(rounds))));
        }
        Scenario::Gadget { width, rounds, .. } => {
            fields.push(("width", unum(width)));
            fields.push(("rounds", s(rounds_to_wire(rounds))));
        }
        Scenario::Code832Memory { rounds } => {
            fields.push(("rounds", s(rounds_to_wire(rounds))));
        }
    }
    fields.extend([
        ("distance", num(f64::from(spec.distance))),
        ("basis", s(basis_to_wire(spec.basis))),
        ("p2", num(spec.noise.p2)),
        ("p_idle", num(spec.noise.p_idle)),
        ("p_prep", num(spec.noise.p_prep)),
        ("p_meas", num(spec.noise.p_meas)),
        ("decoder", s(spec.decoder.label())),
        ("sampler", s(spec.sampler.label())),
        ("streaming", Json::Bool(spec.streaming)),
        ("shots", s(shots_to_wire(spec.shots))),
        ("seed", s(spec.seed.to_string())),
    ]);
    obj(fields)
}

/// Decodes a wire spec. The resulting spec carries default `mc` execution
/// parameters — the server decides its own threading.
pub fn spec_from_json(v: &Json) -> Result<ExperimentSpec, String> {
    let scenario = match req_str(v, "scenario")?.as_str() {
        "memory" => Scenario::Memory {
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
        },
        "transversal_cnot" => Scenario::TransversalCnot {
            patches: req_usize(v, "patches")?,
            depth: req_usize(v, "depth")?,
            cnots_per_round: req_f64(v, "cnots_per_round")?,
        },
        "ghz_fanout" => Scenario::GhzFanout {
            targets: req_usize(v, "targets")?,
        },
        "deep_cnot" => Scenario::DeepCnot {
            patches: req_usize(v, "patches")?,
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
            cnots_per_round: req_f64(v, "cnots_per_round")?,
        },
        "factory_distill15" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Distill15,
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
        },
        "factory_ccz" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Ccz,
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
        },
        "factory_cultivation" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Cultivation,
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
        },
        "gadget_adder" => Scenario::Gadget {
            kind: GadgetKind::Adder,
            width: req_usize(v, "width")?,
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
        },
        "gadget_lookup" => Scenario::Gadget {
            kind: GadgetKind::Lookup,
            width: req_usize(v, "width")?,
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
        },
        "gadget_fanout" => Scenario::Gadget {
            kind: GadgetKind::Fanout,
            width: req_usize(v, "width")?,
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
        },
        "code832_memory" => Scenario::Code832Memory {
            rounds: rounds_from_wire(&req_str(v, "rounds")?)?,
        },
        other => return Err(format!("unknown scenario {other:?}")),
    };
    let distance = u32_value(req_field(v, "distance")?, "distance")?;
    let mut spec = ExperimentSpec::new(req_str(v, "name")?, scenario, distance);
    spec.basis = basis_from_wire(&req_str(v, "basis")?)?;
    spec.noise = NoiseModel {
        p2: req_f64(v, "p2")?,
        p_idle: req_f64(v, "p_idle")?,
        p_prep: req_f64(v, "p_prep")?,
        p_meas: req_f64(v, "p_meas")?,
    };
    spec.decoder = decoder_from_label(&req_str(v, "decoder")?)?;
    spec.sampler = sampler_from_label(&req_str(v, "sampler")?)?;
    spec.streaming = req_bool(v, "streaming")?;
    spec.shots = shots_from_wire(&req_str(v, "shots")?)?;
    spec.seed = req_u64_str(v, "seed")?;
    Ok(spec)
}

fn specs_from_field(v: &Json) -> Result<Vec<ExperimentSpec>, String> {
    req_arr(v, "specs")?
        .iter()
        .enumerate()
        .map(|(i, item)| spec_from_json(item).map_err(|e| format!("spec #{i}: {e}")))
        .collect()
}

// ---------------------------------------------------------------------------
// Calibration config codec
// ---------------------------------------------------------------------------

fn config_to_json(cfg: &CalibrationConfig) -> Json {
    obj(vec![
        ("p_phys", num(cfg.p_phys)),
        (
            "distances",
            Json::Arr(cfg.distances.iter().map(|&d| num(f64::from(d))).collect()),
        ),
        (
            "cnots_per_round",
            Json::Arr(cfg.cnots_per_round.iter().map(|&x| num(x)).collect()),
        ),
        ("memory_shots", unum(cfg.memory_shots)),
        ("cnot_shots", unum(cfg.cnot_shots)),
        ("memory_rounds_factor", unum(cfg.memory_rounds_factor)),
        ("cnot_depth", unum(cfg.cnot_depth)),
        ("c", num(cfg.c)),
        ("memory_seed", s(cfg.memory_seed.to_string())),
        ("cnot_seed", s(cfg.cnot_seed.to_string())),
    ])
}

/// Decodes a wire calibration config. `cache_dir` and `point_threads` are
/// not wire fields: the server's own cache and worker pool are used.
fn config_from_json(v: &Json) -> Result<CalibrationConfig, String> {
    let f64_arr = |key: &str| -> Result<Vec<f64>, String> {
        req_arr(v, key)?
            .iter()
            .map(|item| {
                item.as_f64()
                    .ok_or_else(|| format!("field {key:?} must hold numbers"))
            })
            .collect()
    };
    Ok(CalibrationConfig {
        p_phys: req_f64(v, "p_phys")?,
        distances: req_arr(v, "distances")?
            .iter()
            .map(|item| u32_value(item, "distances"))
            .collect::<Result<_, _>>()?,
        cnots_per_round: f64_arr("cnots_per_round")?,
        memory_shots: req_usize(v, "memory_shots")?,
        cnot_shots: req_usize(v, "cnot_shots")?,
        memory_rounds_factor: req_usize(v, "memory_rounds_factor")?,
        cnot_depth: req_usize(v, "cnot_depth")?,
        c: req_f64(v, "c")?,
        memory_seed: req_u64_str(v, "memory_seed")?,
        cnot_seed: req_u64_str(v, "cnot_seed")?,
        cache_dir: None,
        point_threads: 0,
    })
}

// ---------------------------------------------------------------------------
// Record transport
// ---------------------------------------------------------------------------

/// A record travels as its exact JSON line inside one JSON string — the
/// escaping is lossless, so the bytes a warm client replays are identical
/// to what a local sweep writes.
fn record_to_wire(record: &ExperimentRecord) -> Json {
    Json::Str(record.to_json())
}

fn record_from_wire(v: &Json) -> Result<Option<ExperimentRecord>, String> {
    match v {
        Json::Null => Ok(None),
        Json::Str(line) => ExperimentRecord::from_json(line).map(Some),
        _ => Err("record slots must be strings or null".into()),
    }
}

fn records_to_wire(records: &[Option<ExperimentRecord>]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|slot| slot.as_ref().map_or(Json::Null, record_to_wire))
            .collect(),
    )
}

fn records_from_field(v: &Json, key: &str) -> Result<Vec<Option<ExperimentRecord>>, String> {
    req_arr(v, key)?
        .iter()
        .enumerate()
        .map(|(i, item)| record_from_wire(item).map_err(|e| format!("{key}[{i}]: {e}")))
        .collect()
}

fn dense_records(
    slots: Vec<Option<ExperimentRecord>>,
    key: &str,
) -> Result<Vec<ExperimentRecord>, String> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.ok_or_else(|| format!("{key}[{i}] must not be null")))
        .collect()
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client → daemon job, one JSON line on the wire.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run every spec (cache-first), sampling misses.
    Sweep {
        /// Client-chosen job id, echoed in the response.
        id: String,
        /// The grid points to run.
        specs: Vec<ExperimentSpec>,
    },
    /// Warm-cache query: answer from the cache only, never sample.
    Query {
        /// Client-chosen job id, echoed in the response.
        id: String,
        /// The grid points to look up.
        specs: Vec<ExperimentSpec>,
    },
    /// Run the full calibration chain (two sweeps + the (α, Λ) fit) on the
    /// server's cache and worker pool.
    Calibrate {
        /// Client-chosen job id, echoed in the response.
        id: String,
        /// The calibration to run (`cache_dir`/`point_threads` are the
        /// server's, not wire fields).
        config: CalibrationConfig,
    },
    /// Daemon health/counters snapshot.
    Status {
        /// Client-chosen job id, echoed in the response.
        id: String,
    },
    /// One cache integrity scrub/evict pass, now.
    Scrub {
        /// Client-chosen job id, echoed in the response.
        id: String,
    },
    /// Ask the daemon to drain: in-flight points finish and persist,
    /// queued jobs are shed, then the process exits.
    Shutdown {
        /// Client-chosen job id, echoed in the response.
        id: String,
    },
}

impl Request {
    /// The job id the response will echo.
    pub fn id(&self) -> &str {
        match self {
            Request::Sweep { id, .. }
            | Request::Query { id, .. }
            | Request::Calibrate { id, .. }
            | Request::Status { id }
            | Request::Scrub { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Encodes as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Sweep { id, specs } => obj(vec![
                ("type", s("sweep")),
                ("id", s(id)),
                ("specs", Json::Arr(specs.iter().map(spec_to_json).collect())),
            ]),
            Request::Query { id, specs } => obj(vec![
                ("type", s("query")),
                ("id", s(id)),
                ("specs", Json::Arr(specs.iter().map(spec_to_json).collect())),
            ]),
            Request::Calibrate { id, config } => obj(vec![
                ("type", s("calibrate")),
                ("id", s(id)),
                ("config", config_to_json(config)),
            ]),
            Request::Status { id } => obj(vec![("type", s("status")), ("id", s(id))]),
            Request::Scrub { id } => obj(vec![("type", s("scrub")), ("id", s(id))]),
            Request::Shutdown { id } => obj(vec![("type", s("shutdown")), ("id", s(id))]),
        };
        v.to_line()
    }

    /// Decodes one JSON line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line.trim())?;
        let id = req_str(&v, "id")?;
        match req_str(&v, "type")?.as_str() {
            "sweep" => Ok(Request::Sweep {
                id,
                specs: specs_from_field(&v)?,
            }),
            "query" => Ok(Request::Query {
                id,
                specs: specs_from_field(&v)?,
            }),
            "calibrate" => Ok(Request::Calibrate {
                id,
                config: config_from_json(req_field(&v, "config")?)?,
            }),
            "status" => Ok(Request::Status { id }),
            "scrub" => Ok(Request::Scrub { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A point quarantined by the daemon (its engine run panicked once; it is
/// refused thereafter by cache key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedPoint {
    /// The point's content-addressed cache key.
    pub key: String,
    /// The point's record name at quarantine time.
    pub name: String,
    /// The panic message.
    pub message: String,
}

/// A daemon health/counters snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStatus {
    /// Whether the daemon is draining (new jobs are shed).
    pub draining: bool,
    /// Worker threads serving the point queue.
    pub workers: usize,
    /// Jobs fully completed since startup.
    pub jobs_completed: u64,
    /// Grid points processed since startup.
    pub points_completed: u64,
    /// Points answered from the cache.
    pub cache_hits: u64,
    /// Points freshly sampled.
    pub fresh_points: u64,
    /// Monte-Carlo shots sampled.
    pub fresh_shots: u64,
    /// Corrupt cache entries found and overwritten.
    pub corrupt_replaced: u64,
    /// Points shed (drain or abandoned jobs).
    pub shed_points: u64,
    /// The poisoned-point quarantine list.
    pub quarantined: Vec<QuarantinedPoint>,
}

/// One daemon → client answer, one JSON line on the wire. Every variant
/// echoes the request's id; the wire carries a `status` field (`ok`,
/// `draining`, `shed`, `error`) so clients can branch before decoding the
/// payload.
#[derive(Debug, Clone)]
pub enum Response {
    /// A sweep job's outcome: accounting, the quarantine entries it hit,
    /// and one record slot per submitted spec (`null` where the point was
    /// poisoned, shed or failed — the `poisoned` list says which).
    Sweep {
        /// Echoed job id.
        id: String,
        /// Points freshly sampled.
        fresh_points: usize,
        /// Points replayed from the cache.
        cached_points: usize,
        /// Monte-Carlo shots sampled for this job.
        fresh_shots: usize,
        /// Corrupt cache entries found and overwritten.
        corrupt_replaced: usize,
        /// Points whose engine run panicked (now quarantined).
        poisoned: Vec<PoisonedPoint>,
        /// Per-spec record slots, in submission order.
        records: Vec<Option<ExperimentRecord>>,
    },
    /// A warm-cache query's outcome: hits verbatim, misses as `null`,
    /// nothing sampled.
    Query {
        /// Echoed job id.
        id: String,
        /// Cache hits.
        hits: usize,
        /// Cache misses (including corrupt entries).
        misses: usize,
        /// Per-spec record slots, in submission order.
        records: Vec<Option<ExperimentRecord>>,
    },
    /// A calibration job's outcome: the full [`Calibration`] the in-process
    /// path would have produced (fit, params, records, accounting).
    Calibrate {
        /// Echoed job id.
        id: String,
        /// The reconstructed calibration.
        calibration: Calibration,
    },
    /// A status snapshot.
    Status {
        /// Echoed job id.
        id: String,
        /// The snapshot.
        status: ServiceStatus,
    },
    /// A scrub pass's report.
    Scrub {
        /// Echoed job id.
        id: String,
        /// What the pass did.
        report: ScrubReport,
    },
    /// Shutdown acknowledged; the daemon is draining.
    Draining {
        /// Echoed job id.
        id: String,
    },
    /// The job was shed (daemon draining); nothing ran.
    Shed {
        /// Echoed job id.
        id: String,
        /// Why.
        message: String,
    },
    /// The job failed as a whole (malformed request, fit failure, cache
    /// I/O past the retry budget, job timeout).
    Error {
        /// Echoed job id (empty when the request line had none).
        id: String,
        /// What failed.
        message: String,
    },
}

fn poisoned_to_wire(p: &PoisonedPoint) -> Json {
    obj(vec![
        ("index", unum(p.index)),
        ("name", s(&p.name)),
        ("key", s(&p.key)),
        ("message", s(&p.message)),
    ])
}

fn poisoned_from_wire(v: &Json) -> Result<PoisonedPoint, String> {
    Ok(PoisonedPoint {
        index: req_usize(v, "index")?,
        name: req_str(v, "name")?,
        key: req_str(v, "key")?,
        message: req_str(v, "message")?,
    })
}

impl Response {
    /// The echoed job id.
    pub fn id(&self) -> &str {
        match self {
            Response::Sweep { id, .. }
            | Response::Query { id, .. }
            | Response::Calibrate { id, .. }
            | Response::Status { id, .. }
            | Response::Scrub { id, .. }
            | Response::Draining { id }
            | Response::Shed { id, .. }
            | Response::Error { id, .. } => id,
        }
    }

    /// Encodes as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Response::Sweep {
                id,
                fresh_points,
                cached_points,
                fresh_shots,
                corrupt_replaced,
                poisoned,
                records,
            } => obj(vec![
                ("type", s("sweep")),
                ("id", s(id)),
                ("status", s("ok")),
                ("fresh_points", unum(*fresh_points)),
                ("cached_points", unum(*cached_points)),
                ("fresh_shots", unum(*fresh_shots)),
                ("corrupt_replaced", unum(*corrupt_replaced)),
                (
                    "poisoned",
                    Json::Arr(poisoned.iter().map(poisoned_to_wire).collect()),
                ),
                ("records", records_to_wire(records)),
            ]),
            Response::Query {
                id,
                hits,
                misses,
                records,
            } => obj(vec![
                ("type", s("query")),
                ("id", s(id)),
                ("status", s("ok")),
                ("hits", unum(*hits)),
                ("misses", unum(*misses)),
                ("records", records_to_wire(records)),
            ]),
            Response::Calibrate { id, calibration } => {
                let memory: Vec<Option<ExperimentRecord>> = calibration
                    .memory_records
                    .iter()
                    .cloned()
                    .map(Some)
                    .collect();
                let cnot: Vec<Option<ExperimentRecord>> =
                    calibration.cnot_records.iter().cloned().map(Some).collect();
                obj(vec![
                    ("type", s("calibrate")),
                    ("id", s(id)),
                    ("status", s("ok")),
                    ("alpha", num(calibration.fit.alpha)),
                    ("lambda", num(calibration.fit.lambda)),
                    ("c", num(calibration.fit.c)),
                    ("residual", num(calibration.fit.residual)),
                    (
                        "lambda_memory",
                        calibration.lambda_memory.map_or(Json::Null, num),
                    ),
                    ("p_phys", num(calibration.params.p_phys)),
                    ("p_thres", num(calibration.params.p_thres)),
                    ("fresh_points", unum(calibration.fresh_points)),
                    ("cached_points", unum(calibration.cached_points)),
                    ("fresh_shots", unum(calibration.fresh_shots)),
                    ("memory_records", records_to_wire(&memory)),
                    ("cnot_records", records_to_wire(&cnot)),
                ])
            }
            Response::Status { id, status } => obj(vec![
                ("type", s("status")),
                ("id", s(id)),
                ("status", s("ok")),
                ("draining", Json::Bool(status.draining)),
                ("workers", unum(status.workers)),
                ("jobs_completed", unum(status.jobs_completed as usize)),
                ("points_completed", unum(status.points_completed as usize)),
                ("cache_hits", unum(status.cache_hits as usize)),
                ("fresh_points", unum(status.fresh_points as usize)),
                ("fresh_shots", unum(status.fresh_shots as usize)),
                ("corrupt_replaced", unum(status.corrupt_replaced as usize)),
                ("shed_points", unum(status.shed_points as usize)),
                (
                    "quarantined",
                    Json::Arr(
                        status
                            .quarantined
                            .iter()
                            .map(|q| {
                                obj(vec![
                                    ("key", s(&q.key)),
                                    ("name", s(&q.name)),
                                    ("message", s(&q.message)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Scrub { id, report } => obj(vec![
                ("type", s("scrub")),
                ("id", s(id)),
                ("status", s("ok")),
                ("scanned", unum(report.scanned)),
                ("healthy", unum(report.healthy)),
                ("quarantined", unum(report.quarantined)),
                ("evicted", unum(report.evicted)),
                ("stale_tmps_removed", unum(report.stale_tmps_removed)),
                ("stale_locks_removed", unum(report.stale_locks_removed)),
                ("skipped_locked", unum(report.skipped_locked)),
                ("bytes_after", num(report.bytes_after as f64)),
            ]),
            Response::Draining { id } => obj(vec![
                ("type", s("shutdown")),
                ("id", s(id)),
                ("status", s("draining")),
            ]),
            Response::Shed { id, message } => obj(vec![
                ("type", s("shed")),
                ("id", s(id)),
                ("status", s("shed")),
                ("message", s(message)),
            ]),
            Response::Error { id, message } => obj(vec![
                ("type", s("error")),
                ("id", s(id)),
                ("status", s("error")),
                ("message", s(message)),
            ]),
        };
        v.to_line()
    }

    /// Decodes one JSON line.
    pub fn from_line(line: &str) -> Result<Response, String> {
        let v = Json::parse(line.trim())?;
        let id = req_str(&v, "id")?;
        match (
            req_str(&v, "type")?.as_str(),
            req_str(&v, "status")?.as_str(),
        ) {
            ("sweep", "ok") => Ok(Response::Sweep {
                id,
                fresh_points: req_usize(&v, "fresh_points")?,
                cached_points: req_usize(&v, "cached_points")?,
                fresh_shots: req_usize(&v, "fresh_shots")?,
                corrupt_replaced: req_usize(&v, "corrupt_replaced")?,
                poisoned: req_arr(&v, "poisoned")?
                    .iter()
                    .map(poisoned_from_wire)
                    .collect::<Result<_, _>>()?,
                records: records_from_field(&v, "records")?,
            }),
            ("query", "ok") => Ok(Response::Query {
                id,
                hits: req_usize(&v, "hits")?,
                misses: req_usize(&v, "misses")?,
                records: records_from_field(&v, "records")?,
            }),
            ("calibrate", "ok") => {
                let fit = FitResult {
                    alpha: req_f64(&v, "alpha")?,
                    lambda: req_f64(&v, "lambda")?,
                    c: req_f64(&v, "c")?,
                    residual: req_f64(&v, "residual")?,
                };
                let params = ErrorModelParams {
                    c: fit.c,
                    p_phys: req_f64(&v, "p_phys")?,
                    p_thres: req_f64(&v, "p_thres")?,
                    alpha: fit.alpha,
                };
                let lambda_memory = match req_field(&v, "lambda_memory")? {
                    Json::Null => None,
                    other => Some(
                        other
                            .as_f64()
                            .ok_or("field \"lambda_memory\" must be a number or null")?,
                    ),
                };
                Ok(Response::Calibrate {
                    id,
                    calibration: Calibration {
                        fit,
                        lambda_memory,
                        params,
                        memory_records: dense_records(
                            records_from_field(&v, "memory_records")?,
                            "memory_records",
                        )?,
                        cnot_records: dense_records(
                            records_from_field(&v, "cnot_records")?,
                            "cnot_records",
                        )?,
                        fresh_points: req_usize(&v, "fresh_points")?,
                        cached_points: req_usize(&v, "cached_points")?,
                        fresh_shots: req_usize(&v, "fresh_shots")?,
                    },
                })
            }
            ("status", "ok") => Ok(Response::Status {
                id,
                status: ServiceStatus {
                    draining: req_bool(&v, "draining")?,
                    workers: req_usize(&v, "workers")?,
                    jobs_completed: req_usize(&v, "jobs_completed")? as u64,
                    points_completed: req_usize(&v, "points_completed")? as u64,
                    cache_hits: req_usize(&v, "cache_hits")? as u64,
                    fresh_points: req_usize(&v, "fresh_points")? as u64,
                    fresh_shots: req_usize(&v, "fresh_shots")? as u64,
                    corrupt_replaced: req_usize(&v, "corrupt_replaced")? as u64,
                    shed_points: req_usize(&v, "shed_points")? as u64,
                    quarantined: req_arr(&v, "quarantined")?
                        .iter()
                        .map(|q| {
                            Ok(QuarantinedPoint {
                                key: req_str(q, "key")?,
                                name: req_str(q, "name")?,
                                message: req_str(q, "message")?,
                            })
                        })
                        .collect::<Result<_, String>>()?,
                },
            }),
            ("scrub", "ok") => Ok(Response::Scrub {
                id,
                report: ScrubReport {
                    scanned: req_usize(&v, "scanned")?,
                    healthy: req_usize(&v, "healthy")?,
                    quarantined: req_usize(&v, "quarantined")?,
                    evicted: req_usize(&v, "evicted")?,
                    stale_tmps_removed: req_usize(&v, "stale_tmps_removed")?,
                    stale_locks_removed: req_usize(&v, "stale_locks_removed")?,
                    skipped_locked: req_usize(&v, "skipped_locked")?,
                    bytes_after: req_f64(&v, "bytes_after")? as u64,
                },
            }),
            ("shutdown", "draining") => Ok(Response::Draining { id }),
            (_, "shed") => Ok(Response::Shed {
                id,
                message: req_str(&v, "message")?,
            }),
            (_, "error") => Ok(Response::Error {
                id,
                message: req_str(&v, "message")?,
            }),
            (ty, status) => Err(format!("unknown response {ty:?} with status {status:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::spec::SweepGrid;

    fn sample_specs() -> Vec<ExperimentSpec> {
        let mut specs = SweepGrid::new(
            "jobs/mixed",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 4,
                cnots_per_round: 1.0,
            },
        )
        .with_distances(vec![3])
        .with_cnots_per_round(vec![0.5, 2.0])
        .with_decoders(vec![
            DecoderChoice::UnionFind,
            DecoderChoice::Windowed {
                commit: 2,
                buffer: 3,
            },
        ])
        .specs();
        let mut memory = ExperimentSpec::new(
            "jobs/mem \"quoted\"\n",
            Scenario::Memory {
                rounds: Rounds::TimesDistance(2),
            },
            5,
        );
        memory.basis = Basis::X;
        memory.streaming = true;
        memory.shots = ShotBudget::UntilFailures {
            max_shots: 10_000,
            target_failures: 7,
        };
        memory.seed = u64::MAX - 3; // does not fit f64
        specs.push(memory);
        specs.push(ExperimentSpec::new(
            "jobs/ghz",
            Scenario::GhzFanout { targets: 3 },
            3,
        ));
        specs.push(ExperimentSpec::new(
            "jobs/deep",
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::TimesDistance(20),
                cnots_per_round: 0.5,
            },
            3,
        ));
        for protocol in FactoryProtocol::ALL {
            specs.push(ExperimentSpec::new(
                format!("jobs/factory/{}", protocol.label()),
                Scenario::MagicFactory {
                    protocol,
                    rounds: Rounds::Fixed(4),
                },
                3,
            ));
        }
        for kind in GadgetKind::ALL {
            specs.push(ExperimentSpec::new(
                format!("jobs/gadget/{}", kind.label()),
                Scenario::Gadget {
                    kind,
                    width: 3,
                    rounds: Rounds::TimesDistance(2),
                },
                3,
            ));
        }
        specs.push(ExperimentSpec::new(
            "jobs/code832",
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(4),
            },
            2,
        ));
        specs
    }

    #[test]
    fn json_value_round_trips() {
        let line = r#"{"a":[1,2.5,-3e-2],"b":{"nested":"va\"l\nue"},"c":null,"d":true}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("nested").unwrap().as_str(),
            Some("va\"l\nue")
        );
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            &format!(
                "{}1{}",
                "[".repeat(MAX_DEPTH + 2),
                "]".repeat(MAX_DEPTH + 2)
            ),
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn spec_codec_round_trips_every_scenario() {
        for spec in sample_specs() {
            let decoded = spec_from_json(&spec_to_json(&spec)).unwrap();
            // The spec's semantic identity — its fingerprint — survives.
            assert_eq!(
                crate::orchestrator::spec_fingerprint(&decoded),
                crate::orchestrator::spec_fingerprint(&spec),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn sweep_request_survives_the_wire() {
        let request = Request::Sweep {
            id: "job-42".into(),
            specs: sample_specs(),
        };
        let line = request.to_line();
        assert!(!line.contains('\n'));
        match Request::from_line(&line).unwrap() {
            Request::Sweep { id, specs } => {
                assert_eq!(id, "job-42");
                assert_eq!(specs.len(), sample_specs().len());
                assert_eq!(specs[4].seed, u64::MAX - 3, "u64 seed exact");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn calibrate_request_survives_the_wire() {
        let config = CalibrationConfig {
            memory_seed: u64::MAX,
            cache_dir: Some("/client/side/path".into()), // must NOT travel
            point_threads: 5,                            // must NOT travel
            ..CalibrationConfig::default()
        };
        let line = Request::Calibrate {
            id: "cal-1".into(),
            config: config.clone(),
        }
        .to_line();
        match Request::from_line(&line).unwrap() {
            Request::Calibrate {
                config: decoded, ..
            } => {
                assert_eq!(decoded.p_phys, config.p_phys);
                assert_eq!(decoded.distances, config.distances);
                assert_eq!(decoded.memory_seed, u64::MAX);
                assert_eq!(decoded.cache_dir, None, "server owns the cache");
                assert_eq!(decoded.point_threads, 0, "server owns the pool");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn records_survive_the_wire_byte_for_byte() {
        let mut spec = ExperimentSpec::new(
            "jobs/bytes \"x\"",
            Scenario::Memory {
                rounds: Rounds::Fixed(2),
            },
            3,
        );
        spec.shots = ShotBudget::Fixed(256);
        let record = engine::run(&spec);
        let response = Response::Sweep {
            id: "j".into(),
            fresh_points: 1,
            cached_points: 0,
            fresh_shots: 256,
            corrupt_replaced: 0,
            poisoned: vec![PoisonedPoint {
                index: 9,
                name: "bad".into(),
                key: "ab".repeat(16),
                message: "need at least one SE round".into(),
            }],
            records: vec![Some(record.clone()), None],
        };
        match Response::from_line(&response.to_line()).unwrap() {
            Response::Sweep {
                records, poisoned, ..
            } => {
                assert_eq!(
                    records[0].as_ref().unwrap().to_json(),
                    record.to_json(),
                    "byte-identical through the wire"
                );
                assert!(records[1].is_none());
                assert_eq!(poisoned[0].index, 9);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn status_scrub_and_error_responses_round_trip() {
        let status = Response::Status {
            id: "s".into(),
            status: ServiceStatus {
                draining: true,
                workers: 4,
                jobs_completed: 10,
                points_completed: 40,
                cache_hits: 30,
                fresh_points: 9,
                fresh_shots: 4_608,
                corrupt_replaced: 1,
                shed_points: 2,
                quarantined: vec![QuarantinedPoint {
                    key: "cd".repeat(16),
                    name: "poison".into(),
                    message: "boom".into(),
                }],
            },
        };
        match Response::from_line(&status.to_line()).unwrap() {
            Response::Status { status: got, .. } => {
                assert!(got.draining);
                assert_eq!(got.fresh_shots, 4_608);
                assert_eq!(got.quarantined.len(), 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let scrub = Response::Scrub {
            id: "sc".into(),
            report: ScrubReport {
                scanned: 12,
                healthy: 10,
                quarantined: 1,
                evicted: 1,
                stale_tmps_removed: 2,
                stale_locks_removed: 1,
                skipped_locked: 0,
                bytes_after: 4_096,
            },
        };
        match Response::from_line(&scrub.to_line()).unwrap() {
            Response::Scrub { report, .. } => assert_eq!(report.bytes_after, 4_096),
            other => panic!("wrong variant: {other:?}"),
        }

        for (resp, needle) in [
            (
                Response::Error {
                    id: "e".into(),
                    message: "spec #2: unknown decoder".into(),
                },
                "decoder",
            ),
            (
                Response::Shed {
                    id: "sh".into(),
                    message: "daemon draining".into(),
                },
                "draining",
            ),
        ] {
            let line = resp.to_line();
            match Response::from_line(&line).unwrap() {
                Response::Error { message, .. } | Response::Shed { message, .. } => {
                    assert!(message.contains(needle))
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        for (line, needle) in [
            ("{\"type\":\"sweep\"}", "id"),
            ("{\"type\":\"nope\",\"id\":\"x\"}", "unknown request"),
            (
                "{\"type\":\"sweep\",\"id\":\"x\",\"specs\":[{}]}",
                "spec #0",
            ),
            ("not json", "unexpected"),
        ] {
            let err = Request::from_line(line).unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
        // Out-of-range distances are rejected, not wrapped to d = 3 or
        // saturated to u32::MAX.
        let sweep = Request::Sweep {
            id: "x".into(),
            specs: sample_specs()[..1].to_vec(),
        }
        .to_line();
        let calibrate = Request::Calibrate {
            id: "x".into(),
            config: CalibrationConfig::default(),
        }
        .to_line();
        for (line, from, to) in [
            (&sweep, "\"distance\":3,", "\"distance\":4294967299,"),
            (&calibrate, "\"distances\":[3,5]", "\"distances\":[1e20]"),
        ] {
            assert!(line.contains(from), "{line}");
            let err = Request::from_line(&line.replace(from, to)).unwrap_err();
            assert!(err.contains("0..=4294967295"), "{err:?}");
        }
    }
}
