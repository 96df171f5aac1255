//! `raa-audit` — project-specific static analysis for the workspace.
//!
//! The headline contracts of this repo ("`DecodeStats` bit-identical
//! across thread counts", "memo hit/miss interleavings byte-identical",
//! "no panic escapes a daemon worker") are enforced at runtime by anchor
//! tests; this crate gives them a compile-adjacent gate. It lexes every
//! workspace crate at the token level — strings, char literals, raw
//! strings, and comments handled correctly — and runs a registry of
//! project rules over the stream:
//!
//! | rule            | contract |
//! |-----------------|----------|
//! | `hash-iter`     | no hasher-ordered `HashMap`/`HashSet` iteration in determinism crates |
//! | `nondet-time`   | no `Instant::now`/`SystemTime::now`/`thread_rng` in record-feeding code |
//! | `env-var`       | env access funnels through `raa_bench`'s strict helpers |
//! | `panic-path`    | daemon-reachable `sim` modules use the typed error chain |
//! | `unsafe-safety` | every `unsafe` carries an adjacent `// SAFETY:` comment |
//! | `forbid-unsafe` | unsafe-free crates declare `#![forbid(unsafe_code)]` |
//! | `float-eq`      | no `==`/`!=` on floats in fit/analysis code |
//! | `orphan-pub`    | no `pub fn` that no other crate's non-test code (library, binary, example, bench, e2ebench) names |
//!
//! Findings are suppressible only via
//! `// raa-audit: allow(<rule>): <reason>` with a mandatory reason, and a
//! checked-in `audit-baseline.json` grandfathers the backlog so CI
//! (`raa-audit --deny-new`) gates strictly on regressions. See
//! [`rules`] for the extension point and the README's "Static analysis"
//! section for the workflow.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod suppress;

use baseline::Baseline;
use report::Report;
use rules::{FileContext, Finding};
use std::io;
use std::path::{Path, PathBuf};

/// Scans every crate under `<root>/crates/` (the `vendor/` shims and the
/// root integration package are out of audit scope) and returns the
/// post-suppression findings split against `baseline`.
///
/// File order, finding order, and report bytes are deterministic.
pub fn scan_workspace(root: &Path, baseline: &Baseline) -> io::Result<Report> {
    let mut all_findings: Vec<Finding> = Vec::new();
    let mut suppressed: Vec<Finding> = Vec::new();
    let mut files_scanned = 0usize;
    // `orphan-pub` needs the names each crate's non-test code uses, across
    // every `.rs` file of these directories, before it can check any one
    // file.
    let mut orphan_pub = rules::OrphanPub::default();
    for dir in [
        "crates",
        "tests",
        "examples",
        "e2ebench/src",
        "e2ebench/tests",
    ] {
        let dir = root.join(dir);
        if dir.is_dir() {
            for path in rs_files(&dir)? {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                orphan_pub.count(&rel, &lexer::lex(&std::fs::read_to_string(&path)?));
            }
        }
    }
    let registry = rules::registry(orphan_pub);

    for crate_dir in sorted_dirs(&root.join("crates"))? {
        let crate_rel = format!(
            "crates/{}",
            crate_dir.file_name().unwrap_or_default().to_string_lossy()
        );
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files: Vec<(String, String, Vec<lexer::Token>)> = Vec::new();
        for path in rs_files(&src)? {
            let rel = format!(
                "{crate_rel}/src/{}",
                path.strip_prefix(&src)
                    .expect("walked under src")
                    .to_string_lossy()
                    .replace('\\', "/")
            );
            let source = std::fs::read_to_string(&path)?;
            let tokens = lexer::lex(&source);
            files.push((rel, source, tokens));
        }
        files_scanned += files.len();
        for (rel, source, tokens) in &files {
            let ctx = FileContext::new(rel, tokens, source);
            let (sups, mut bad) = suppress::collect(&ctx);
            let mut file_findings = Vec::new();
            for rule in &registry {
                if rule.applies_to(rel) {
                    file_findings.extend(rule.check(&ctx));
                }
            }
            let (kept, silenced) = suppress::apply(file_findings, &sups);
            all_findings.extend(kept);
            // Malformed suppressions are findings and cannot be suppressed.
            all_findings.append(&mut bad);
            suppressed.extend(silenced);
        }
        all_findings.extend(rules::forbid_unsafe_findings(&crate_rel, &files));
    }

    // Stable report order: file, line, col, rule.
    all_findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    let (fresh, grandfathered) = baseline.split(all_findings);
    Ok(Report {
        fresh,
        grandfathered,
        suppressed,
        files_scanned,
    })
}

/// All current findings (post-suppression, pre-baseline) — what
/// `--update-baseline` records.
pub fn current_findings(root: &Path) -> io::Result<Vec<Finding>> {
    let empty = Baseline::default();
    let report = scan_workspace(root, &empty)?;
    Ok(report.fresh)
}

fn sorted_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted by path.
fn rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
