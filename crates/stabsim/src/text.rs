//! Plain-text serialization of detector error models: the canonical
//! format of the golden `.dem` fixtures under `tests/fixtures/`, which the
//! golden-DEM and scenario-conformance tests diff byte for byte.

use crate::dem::{DemError, DetectorErrorModel};
use std::fmt::Write as _;

/// Error from parsing a DEM text file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub(crate) line: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

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
// raa-audit: allow(orphan-pub): golden_dem.rs and scenario_conformance.rs diff the golden .dem fixtures in this format.
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
// raa-audit: allow(orphan-pub): golden_dem.rs and scenario_conformance.rs diff the golden .dem fixtures in this format.
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
    use crate::circuit::{Circuit, MeasRecord};

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
