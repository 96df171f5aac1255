//! The grandfathering baseline: `audit-baseline.json`.
//!
//! The audit gates on *regressions*, not on history: findings present when
//! a rule was introduced are recorded here and tolerated, while anything
//! beyond the recorded multiset fails `--deny-new`. A baseline entry is
//! keyed by `(rule, file, snippet)` — the snippet is the trimmed source
//! line, so findings survive unrelated edits that only move them
//! vertically, and disappear (tightening the gate on the next
//! `--update-baseline`) when the offending line itself is fixed. Entries
//! carry a count so N identical lines in one file grandfather exactly N
//! findings.
//!
//! The file is written sorted and newline-stable, so regenerating it on an
//! unchanged tree is a byte-level no-op — diffs show real contract drift.

use crate::rules::Finding;
use raa_sim::json::{write_string, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Multiset of grandfathered findings.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// `(rule, file, snippet) -> tolerated count`.
    pub entries: BTreeMap<(String, String, String), u32>,
}

impl Baseline {
    /// Builds the baseline that exactly grandfathers `findings`.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut entries = BTreeMap::new();
        for f in findings {
            *entries
                .entry((f.rule.clone(), f.file.clone(), f.snippet.clone()))
                .or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Splits `findings` into `(fresh, grandfathered)` by occurrence count
    /// per `(rule, file, snippet)` key: in order, the first `tolerated`
    /// identical findings are grandfathered and the rest are new.
    pub fn split(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        let mut seen: BTreeMap<(String, String, String), u32> = BTreeMap::new();
        let (mut fresh, mut grandfathered) = (Vec::new(), Vec::new());
        for f in findings {
            let key = (f.rule.clone(), f.file.clone(), f.snippet.clone());
            let tolerated = self.entries.get(&key).copied().unwrap_or(0);
            let n = seen.entry(key).or_insert(0);
            *n += 1;
            if *n > tolerated {
                fresh.push(f);
            } else {
                grandfathered.push(f);
            }
        }
        (fresh, grandfathered)
    }

    /// Serializes to the checked-in JSON format (sorted, one entry per
    /// line, trailing newline).
    pub fn to_json(&self) -> String {
        if self.entries.is_empty() {
            return String::from("{\"version\":1,\"entries\":[]}\n");
        }
        let mut out = String::from("{\"version\":1,\"entries\":[\n");
        let mut first = true;
        for ((rule, file, key), count) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  {\"rule\":");
            write_string(&mut out, rule);
            out.push_str(",\"file\":");
            write_string(&mut out, file);
            out.push_str(",\"key\":");
            write_string(&mut out, key);
            let _ = write!(out, ",\"count\":{count}}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses the format written by [`Baseline::to_json`], with the
    /// workspace's JSON parser ([`Json::parse`]).
    ///
    /// # Errors
    ///
    /// When the text is not JSON, `"version"` is not 1, or an entry lacks
    /// a string `rule`, `file` or `key`, or a `count` in `0..=u32::MAX`
    /// (fractions, negatives and larger values are rejected, never
    /// truncated or saturated, so a hand-edited entry cannot quietly
    /// grandfather more findings).
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::read(text).map_err(|e| format!("baseline: {e}"))
    }

    fn read(text: &str) -> Result<Self, String> {
        let top = Json::parse(text)?;
        let version = top.u32_field("version")?;
        if version != 1 {
            return Err(format!("unsupported version {version} (expected 1)"));
        }
        let mut entries = BTreeMap::new();
        for entry in top.arr_field("entries")? {
            let key = (
                entry.str_field("rule")?.to_string(),
                entry.str_field("file")?.to_string(),
                entry.str_field("key")?.to_string(),
            );
            let count = entry.u32_field("count")?;
            let total: &mut u32 = entries.entry(key).or_insert(0);
            *total = total
                .checked_add(count)
                .ok_or("repeated entries overflow a u32 count")?;
        }
        Ok(Baseline { entries })
    }

    /// Loads a baseline; `Ok(None)` when the file does not exist.
    pub fn load(path: &Path) -> io::Result<Option<Self>> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Writes the baseline (atomically via temp + rename, matching the
    /// record cache's write discipline).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}
