//! Plain-text serialization of stabilizer circuits (a Stim-like format).
//!
//! One instruction per line: an opcode, an optional `(p)` argument for noise
//! channels, and whitespace-separated targets. Detectors and observables use
//! `rec[-k]` look-back references. Lines starting with `#` are comments.
//!
//! ```text
//! R 0 1 2
//! H 0
//! CX 0 1
//! DEPOLARIZE2(0.001) 0 1
//! M 0 1
//! DETECTOR rec[-1] rec[-2]
//! OBSERVABLE_INCLUDE(0) rec[-1]
//! ```
//!
//! The format round-trips: `parse(&c.to_text()) == c` for every circuit the
//! builder can produce, which makes it the interchange format for saving
//! experiment circuits and diffing them in CI.

use crate::circuit::{Circuit, MeasRecord, OpKind};
use crate::dem::{DemError, DetectorErrorModel};
use std::fmt::Write as _;

/// Error from parsing a circuit text file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn opcode_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::X => "X",
        OpKind::Y => "Y",
        OpKind::Z => "Z",
        OpKind::H => "H",
        OpKind::S => "S",
        OpKind::SDag => "S_DAG",
        OpKind::SqrtX => "SQRT_X",
        OpKind::SqrtXDag => "SQRT_X_DAG",
        OpKind::CX => "CX",
        OpKind::CZ => "CZ",
        OpKind::Swap => "SWAP",
        OpKind::R => "R",
        OpKind::RX => "RX",
        OpKind::M => "M",
        OpKind::MX => "MX",
        OpKind::MR => "MR",
        OpKind::XError => "X_ERROR",
        OpKind::ZError => "Z_ERROR",
        OpKind::YError => "Y_ERROR",
        OpKind::Depolarize1 => "DEPOLARIZE1",
        OpKind::Depolarize2 => "DEPOLARIZE2",
        OpKind::Tick => "TICK",
    }
}

fn opcode_from(name: &str) -> Option<OpKind> {
    Some(match name {
        "X" => OpKind::X,
        "Y" => OpKind::Y,
        "Z" => OpKind::Z,
        "H" => OpKind::H,
        "S" => OpKind::S,
        "S_DAG" => OpKind::SDag,
        "SQRT_X" => OpKind::SqrtX,
        "SQRT_X_DAG" => OpKind::SqrtXDag,
        "CX" | "CNOT" => OpKind::CX,
        "CZ" => OpKind::CZ,
        "SWAP" => OpKind::Swap,
        "R" => OpKind::R,
        "RX" => OpKind::RX,
        "M" => OpKind::M,
        "MX" => OpKind::MX,
        "MR" => OpKind::MR,
        "X_ERROR" => OpKind::XError,
        "Z_ERROR" => OpKind::ZError,
        "Y_ERROR" => OpKind::YError,
        "DEPOLARIZE1" => OpKind::Depolarize1,
        "DEPOLARIZE2" => OpKind::Depolarize2,
        "TICK" => OpKind::Tick,
        _ => return None,
    })
}

/// Serializes `circuit` to the text format.
///
/// Detector/observable lines are interleaved at the measurement positions
/// they reference, expressed as relative `rec[-k]` look-backs.
pub fn to_text(circuit: &Circuit) -> String {
    let mut out = String::new();
    // Annotations are emitted after the measurement op that completes them.
    let mut detectors: Vec<(usize, usize)> = circuit
        .detectors()
        .iter()
        .enumerate()
        .map(|(i, m)| (m.iter().copied().max().unwrap_or(0), i))
        .collect();
    detectors.sort_unstable();
    let mut observables: Vec<(usize, usize)> = Vec::new();
    for (id, meas) in circuit.observables().iter().enumerate() {
        for &m in meas {
            observables.push((m, id));
        }
    }
    observables.sort_unstable();

    let mut det_iter = detectors.into_iter().peekable();
    let mut obs_iter = observables.into_iter().peekable();
    let mut meas_count = 0usize;

    for op in circuit.ops() {
        if op.kind == OpKind::Tick {
            out.push_str("TICK\n");
            continue;
        }
        if op.kind.is_noise() {
            let _ = write!(out, "{}({})", opcode_name(op.kind), op.arg);
        } else {
            out.push_str(opcode_name(op.kind));
        }
        for &t in &op.targets {
            let _ = write!(out, " {t}");
        }
        out.push('\n');
        if op.kind.is_measurement() {
            meas_count += op.targets.len();
            while det_iter.peek().is_some_and(|&(last, _)| last < meas_count) {
                let (_, det_idx) = det_iter.next().expect("peeked");
                out.push_str("DETECTOR");
                for &m in circuit.detector_measurements(det_idx) {
                    let _ = write!(out, " rec[-{}]", meas_count - m);
                }
                out.push('\n');
            }
            while obs_iter.peek().is_some_and(|&(m, _)| m < meas_count) {
                let (m, id) = obs_iter.next().expect("peeked");
                let _ = writeln!(out, "OBSERVABLE_INCLUDE({id}) rec[-{}]", meas_count - m);
            }
        }
    }
    out
}

/// Parses a circuit from the text format.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for unknown opcodes,
/// malformed arguments, bad targets or out-of-range `rec[]` references.
pub fn parse(text: &str) -> Result<Circuit, ParseError> {
    let mut c = Circuit::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let err = |message: String| ParseError { line, message };
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let head = parts.next().expect("non-empty line");
        let (name, arg) = match head.find('(') {
            Some(open) => {
                let close = head
                    .rfind(')')
                    .ok_or_else(|| err(format!("unclosed '(' in {head:?}")))?;
                let arg: f64 = head[open + 1..close]
                    .parse()
                    .map_err(|e| err(format!("bad argument in {head:?}: {e}")))?;
                (&head[..open], Some(arg))
            }
            None => (head, None),
        };

        if name == "DETECTOR" || name == "OBSERVABLE_INCLUDE" {
            let mut recs = Vec::new();
            for tok in parts {
                let inner = tok
                    .strip_prefix("rec[-")
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| err(format!("expected rec[-k], got {tok:?}")))?;
                let k: usize = inner
                    .parse()
                    .map_err(|e| err(format!("bad look-back {tok:?}: {e}")))?;
                if k == 0 || k > c.num_measurements() {
                    return Err(err(format!(
                        "look-back {k} out of range ({} measurements so far)",
                        c.num_measurements()
                    )));
                }
                recs.push(MeasRecord::back(k));
            }
            if name == "DETECTOR" {
                c.detector(&recs);
            } else {
                let id = arg.ok_or_else(|| err("OBSERVABLE_INCLUDE needs (id)".into()))?;
                if id < 0.0 || id.fract() != 0.0 {
                    return Err(err(format!("bad observable id {id}")));
                }
                c.observable_include(id as usize, &recs);
            }
            continue;
        }

        let kind = opcode_from(name).ok_or_else(|| err(format!("unknown instruction {name:?}")))?;
        let targets: Vec<u32> = parts
            .map(|t| t.parse().map_err(|e| err(format!("bad target {t:?}: {e}"))))
            .collect::<Result<_, _>>()?;

        match kind {
            OpKind::Tick => {
                c.tick();
            }
            k if k.is_noise() => {
                let p = arg.ok_or_else(|| err(format!("{name} needs a probability")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(err(format!("probability {p} out of range")));
                }
                match k {
                    OpKind::XError => c.x_error(&targets, p),
                    OpKind::ZError => c.z_error(&targets, p),
                    OpKind::YError => c.y_error(&targets, p),
                    OpKind::Depolarize1 => c.depolarize1(&targets, p),
                    OpKind::Depolarize2 => {
                        if !targets.len().is_multiple_of(2) {
                            return Err(err("DEPOLARIZE2 needs an even target count".into()));
                        }
                        let pairs: Vec<(u32, u32)> =
                            targets.chunks_exact(2).map(|c| (c[0], c[1])).collect();
                        c.depolarize2(&pairs, p)
                    }
                    _ => unreachable!(),
                };
            }
            k if k.is_two_qubit() => {
                if !targets.len().is_multiple_of(2) {
                    return Err(err(format!("{name} needs an even target count")));
                }
                let pairs: Vec<(u32, u32)> =
                    targets.chunks_exact(2).map(|c| (c[0], c[1])).collect();
                if pairs.iter().any(|&(a, b)| a == b) {
                    return Err(err(format!("{name} with identical pair targets")));
                }
                match k {
                    OpKind::CX => c.cx(&pairs),
                    OpKind::CZ => c.cz(&pairs),
                    OpKind::Swap => c.swap(&pairs),
                    _ => unreachable!(),
                };
            }
            OpKind::X => {
                c.x(&targets);
            }
            OpKind::Y => {
                c.y(&targets);
            }
            OpKind::Z => {
                c.z(&targets);
            }
            OpKind::H => {
                c.h(&targets);
            }
            OpKind::S => {
                c.s(&targets);
            }
            OpKind::SDag => {
                c.s_dag(&targets);
            }
            OpKind::SqrtX => {
                c.sqrt_x(&targets);
            }
            OpKind::SqrtXDag => {
                c.sqrt_x_dag(&targets);
            }
            OpKind::R => {
                c.r(&targets);
            }
            OpKind::RX => {
                c.rx(&targets);
            }
            OpKind::M => {
                c.m(&targets);
            }
            OpKind::MX => {
                c.mx(&targets);
            }
            OpKind::MR => {
                c.mr(&targets);
            }
            _ => unreachable!(),
        }
    }
    Ok(c)
}

/// Serializes a detector error model to a canonical text format, one
/// mechanism per line:
///
/// ```text
/// dem 24 detectors 1 observables
/// error(0.001) D0 D4
/// error(0.0006666666666666666) D3 L0
/// ```
///
/// Probabilities use Rust's shortest round-trip float formatting, so the
/// output is byte-for-byte deterministic for a given model and parses back
/// losslessly with [`parse_dem`]. Mechanisms appear in the model's order
/// (which [`DetectorErrorModel::from_circuit`] makes canonical: sorted by
/// detectors, then observables); this is the format used by the golden
/// `.dem` fixtures under `tests/fixtures/`.
pub fn dem_to_text(dem: &DetectorErrorModel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dem {} detectors {} observables",
        dem.num_detectors, dem.num_observables
    );
    for e in dem.iter() {
        let _ = write!(out, "error({})", e.probability);
        for d in &e.detectors {
            let _ = write!(out, " D{d}");
        }
        for o in 0..64 {
            if e.observables >> o & 1 == 1 {
                let _ = write!(out, " L{o}");
            }
        }
        out.push('\n');
    }
    out
}

/// Parses a detector error model from the [`dem_to_text`] format.
///
/// Lines starting with `#` and blank lines are ignored.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for a missing or
/// malformed header, bad probabilities, out-of-range detector/observable
/// references, a detector list that is not strictly increasing (the sorted
/// set [`DemError::detectors`] promises), or a repeated observable.
pub fn parse_dem(text: &str) -> Result<DetectorErrorModel, ParseError> {
    let mut dem: Option<DetectorErrorModel> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let err = |message: String| ParseError { line, message };
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let head = parts.next().expect("non-empty line");
        if head == "dem" {
            if dem.is_some() {
                return Err(err("duplicate dem header".into()));
            }
            let mut field = |label: &str| -> Result<usize, ParseError> {
                let n: usize = parts
                    .next()
                    .ok_or_else(|| err(format!("missing {label} count")))?
                    .parse()
                    .map_err(|e| err(format!("bad {label} count: {e}")))?;
                if parts.next() != Some(label) {
                    return Err(err(format!("expected {label:?} after its count")));
                }
                Ok(n)
            };
            let num_detectors = field("detectors")?;
            let num_observables = field("observables")?;
            if num_observables > 64 {
                return Err(err(format!(
                    "at most 64 observables supported, got {num_observables}"
                )));
            }
            dem = Some(DetectorErrorModel {
                num_detectors,
                num_observables,
                errors: Vec::new(),
            });
            continue;
        }
        let dem = dem
            .as_mut()
            .ok_or_else(|| err("error line before the dem header".into()))?;
        let inner = head
            .strip_prefix("error(")
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| err(format!("expected error(p), got {head:?}")))?;
        let probability: f64 = inner
            .parse()
            .map_err(|e| err(format!("bad probability {inner:?}: {e}")))?;
        if !(0.0..=1.0).contains(&probability) {
            return Err(err(format!("probability {probability} out of range")));
        }
        let mut detectors = Vec::new();
        let mut observables = 0u64;
        for tok in parts {
            if let Some(d) = tok.strip_prefix('D') {
                let d: u32 = d
                    .parse()
                    .map_err(|e| err(format!("bad detector {tok:?}: {e}")))?;
                if d as usize >= dem.num_detectors {
                    return Err(err(format!(
                        "detector {d} out of range ({} declared)",
                        dem.num_detectors
                    )));
                }
                if let Some(&last) = detectors.last().filter(|&&last| last >= d) {
                    return Err(err(format!(
                        "detector D{d} after D{last}: detectors must be strictly increasing"
                    )));
                }
                detectors.push(d);
            } else if let Some(o) = tok.strip_prefix('L') {
                let o: usize = o
                    .parse()
                    .map_err(|e| err(format!("bad observable {tok:?}: {e}")))?;
                if o >= dem.num_observables {
                    return Err(err(format!(
                        "observable {o} out of range ({} declared)",
                        dem.num_observables
                    )));
                }
                if observables >> o & 1 == 1 {
                    return Err(err(format!("observable L{o} repeated")));
                }
                observables |= 1 << o;
            } else {
                return Err(err(format!("expected D<i> or L<i>, got {tok:?}")));
            }
        }
        dem.errors.push(DemError {
            probability,
            detectors,
            observables,
        });
    }
    dem.ok_or(ParseError {
        line: text.lines().count().max(1),
        message: "missing dem header".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn example_circuit() -> Circuit {
        let mut c = Circuit::new();
        c.r(&[0, 1, 2]);
        c.h(&[0]);
        c.cx(&[(0, 1), (1, 2)]);
        c.depolarize2(&[(0, 1)], 1e-3);
        c.x_error(&[2], 5e-4);
        c.tick();
        c.m(&[0, 1, 2]);
        c.detector(&[MeasRecord::back(1), MeasRecord::back(2)]);
        c.observable_include(0, &[MeasRecord::back(3)]);
        c
    }

    fn circuits_equal(a: &Circuit, b: &Circuit) -> bool {
        // Observable includes are XOR sets: compare order-insensitively.
        let canon = |c: &Circuit| -> Vec<Vec<usize>> {
            c.observables()
                .iter()
                .map(|o| {
                    let mut v = o.clone();
                    v.sort_unstable();
                    v
                })
                .collect()
        };
        a.ops() == b.ops()
            && a.detectors() == b.detectors()
            && canon(a) == canon(b)
            && a.num_measurements() == b.num_measurements()
    }

    #[test]
    fn round_trip_simple() {
        let c = example_circuit();
        let text = to_text(&c);
        let parsed = parse(&text).expect("round trip parse");
        assert!(circuits_equal(&c, &parsed), "text:\n{text}");
    }

    #[test]
    fn round_trip_surface_code_scale() {
        // A larger machine-generated circuit must survive the round trip too.
        let mut c = Circuit::new();
        c.r(&(0..25).collect::<Vec<_>>());
        for round in 0..3 {
            c.depolarize1(&(0..25).collect::<Vec<_>>(), 1e-3);
            let pairs: Vec<(u32, u32)> = (0..12).map(|i| (2 * i, 2 * i + 1)).collect();
            c.cx(&pairs);
            c.depolarize2(&pairs, 1e-3);
            c.mr(&[1, 3, 5, 7]);
            for i in 0..4usize {
                if round == 0 {
                    c.detector(&[MeasRecord::back(4 - i)]);
                } else {
                    c.detector(&[MeasRecord::back(4 - i), MeasRecord::back(8 - i)]);
                }
            }
        }
        c.m(&[0, 2, 4]);
        c.observable_include(0, &[MeasRecord::back(1), MeasRecord::back(2)]);
        let parsed = parse(&to_text(&c)).expect("parse");
        assert!(circuits_equal(&c, &parsed));
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# a comment\n\nH 0\n  # indented comment\nM 0\nDETECTOR rec[-1]\n";
        let c = parse(text).expect("parse");
        assert_eq!(c.num_measurements(), 1);
        assert_eq!(c.num_detectors(), 1);
    }

    #[test]
    fn semantics_preserved_through_round_trip() {
        use crate::dem::DetectorErrorModel;
        let c = example_circuit();
        let parsed = parse(&to_text(&c)).expect("parse");
        let dem_a = DetectorErrorModel::from_circuit(&c);
        let dem_b = DetectorErrorModel::from_circuit(&parsed);
        assert_eq!(dem_a.errors, dem_b.errors);
    }

    #[test]
    fn error_unknown_instruction() {
        let e = parse("FLIP 0").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown instruction"));
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn error_bad_probability() {
        let e = parse("X_ERROR(1.5) 0").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn error_missing_probability() {
        let e = parse("X_ERROR 0").unwrap_err();
        assert!(e.message.contains("needs a probability"));
    }

    #[test]
    fn error_bad_lookback() {
        let e = parse("M 0\nDETECTOR rec[-2]").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn error_odd_pair_count() {
        let e = parse("CX 0 1 2").unwrap_err();
        assert!(e.message.contains("even target count"));
    }

    #[test]
    fn error_self_pair() {
        let e = parse("CZ 3 3").unwrap_err();
        assert!(e.message.contains("identical"));
    }

    #[test]
    fn cnot_alias_accepted() {
        let c = parse("CNOT 0 1").expect("parse");
        assert_eq!(c.count_ops(OpKind::CX), 1);
    }

    #[test]
    fn dem_text_round_trips_losslessly() {
        let dem = DetectorErrorModel::from_circuit(&example_circuit());
        let text = dem_to_text(&dem);
        let parsed = parse_dem(&text).expect("parse dem");
        assert_eq!(parsed.num_detectors, dem.num_detectors);
        assert_eq!(parsed.num_observables, dem.num_observables);
        assert_eq!(parsed.errors, dem.errors, "text:\n{text}");
        // Shortest round-trip floats: re-serializing is byte-stable.
        assert_eq!(dem_to_text(&parsed), text);
    }

    #[test]
    fn dem_text_is_deterministic() {
        let a = dem_to_text(&DetectorErrorModel::from_circuit(&example_circuit()));
        let b = dem_to_text(&DetectorErrorModel::from_circuit(&example_circuit()));
        assert_eq!(a, b);
    }

    #[test]
    fn dem_parse_errors() {
        assert!(parse_dem("").unwrap_err().message.contains("missing dem"));
        assert!(parse_dem("error(0.1) D0")
            .unwrap_err()
            .message
            .contains("before the dem header"));
        assert!(parse_dem("dem 1 detectors 1 observables\nerror(2.0) D0")
            .unwrap_err()
            .message
            .contains("out of range"));
        assert!(parse_dem("dem 1 detectors 1 observables\nerror(0.1) D7")
            .unwrap_err()
            .message
            .contains("out of range"));
        assert!(parse_dem("dem 1 detectors 1 observables\nerror(0.1) L3")
            .unwrap_err()
            .message
            .contains("out of range"));
        assert!(parse_dem("dem 1 detectors 1 observables\nerror(0.1) Q1")
            .unwrap_err()
            .message
            .contains("expected D<i> or L<i>"));
        let e = parse_dem("dem 1 detectors").unwrap_err();
        assert!(e.message.contains("observables"), "{}", e.message);
        // Detector lists must be the strictly increasing sets that
        // `DemError::detectors` promises: out of order, or repeated (which
        // a decoding graph would turn into a self-loop edge).
        let header = "dem 4 detectors 2 observables\nerror(0.2) D0 D2 L1\n";
        for line in ["error(0.1) D3 D1", "error(0.1) D1 D1"] {
            let e = parse_dem(&format!("{header}{line}\n")).unwrap_err();
            assert_eq!(e.line, 3);
            assert!(e.message.contains("strictly increasing"), "{}", e.message);
        }
        // A repeated observable would otherwise read as set, not cancelled.
        let e = parse_dem(&format!("{header}error(0.1) D0 L0 L0\n")).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("L0 repeated"), "{}", e.message);
    }

    #[test]
    fn dem_parse_accepts_comments_and_blanks() {
        let text = "# golden fixture\n\ndem 2 detectors 1 observables\nerror(0.25) D0 D1 L0\n";
        let dem = parse_dem(text).expect("parse");
        assert_eq!(dem.num_detectors, 2);
        assert_eq!(dem.errors.len(), 1);
        assert_eq!(dem.errors[0].observables, 1);
    }
}
