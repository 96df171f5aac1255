//! Report rendering: the human summary (grouped by rule, then crate) and
//! the machine-readable `--json` document CI archives as an artifact.

use crate::rules::Finding;
use raa_sim::json::write_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one audit run produced, post-suppression.
pub struct Report {
    /// Findings not covered by the baseline — these fail `--deny-new`.
    pub fresh: Vec<Finding>,
    /// Findings tolerated by the checked-in baseline.
    pub grandfathered: Vec<Finding>,
    /// Findings silenced by `raa-audit: allow` comments (with reasons).
    pub suppressed: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when `--deny-new` should pass.
    pub fn clean(&self) -> bool {
        self.fresh.is_empty()
    }

    /// The human report: new findings first with full spans, then a
    /// per-rule/per-crate tally of the grandfathered backlog.
    pub fn human(&self) -> String {
        let mut out = String::new();
        if self.fresh.is_empty() {
            let _ = writeln!(
                out,
                "raa-audit: clean — {} files scanned, {} grandfathered, {} suppressed",
                self.files_scanned,
                self.grandfathered.len(),
                self.suppressed.len()
            );
        } else {
            let _ = writeln!(
                out,
                "raa-audit: {} new finding(s) — {} files scanned, {} grandfathered, {} suppressed",
                self.fresh.len(),
                self.files_scanned,
                self.grandfathered.len(),
                self.suppressed.len()
            );
        }
        for (rule, group) in group_by_rule(&self.fresh) {
            let _ = writeln!(out, "\nrule {rule} — {} new finding(s):", group.len());
            for f in group {
                let _ = writeln!(out, "  {}:{}:{}: {}", f.file, f.line, f.col, f.message);
                if !f.snippet.is_empty() {
                    let _ = writeln!(out, "      | {}", f.snippet);
                }
            }
        }
        if !self.grandfathered.is_empty() {
            let _ = writeln!(out, "\ngrandfathered backlog (baseline-tolerated):");
            let mut per: BTreeMap<(String, String), usize> = BTreeMap::new();
            for f in &self.grandfathered {
                *per.entry((f.rule.clone(), crate_of(&f.file))).or_insert(0) += 1;
            }
            for ((rule, krate), n) in per {
                let _ = writeln!(out, "  {rule:<16} {krate:<24} {n}");
            }
        }
        out
    }

    /// The `--json` document: summary counts plus every finding with its
    /// disposition (`new` / `grandfathered` / `suppressed`).
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"files_scanned\":{},\"new\":{},\"grandfathered\":{},\"suppressed\":{},",
            self.files_scanned,
            self.fresh.len(),
            self.grandfathered.len(),
            self.suppressed.len()
        );
        out.push_str("\"findings\":[\n");
        let mut first = true;
        for (status, list) in [
            ("new", &self.fresh),
            ("grandfathered", &self.grandfathered),
            ("suppressed", &self.suppressed),
        ] {
            for f in list.iter() {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(out, "  {{\"status\":\"{status}\",\"rule\":");
                write_string(&mut out, &f.rule);
                out.push_str(",\"file\":");
                write_string(&mut out, &f.file);
                let _ = write!(out, ",\"line\":{},\"col\":{},\"message\":", f.line, f.col);
                write_string(&mut out, &f.message);
                out.push_str(",\"snippet\":");
                write_string(&mut out, &f.snippet);
                out.push('}');
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => rel_path.to_string(),
    }
}

fn group_by_rule(findings: &[Finding]) -> BTreeMap<String, Vec<&Finding>> {
    let mut groups: BTreeMap<String, Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        groups.entry(f.rule.clone()).or_default().push(f);
    }
    groups
}
