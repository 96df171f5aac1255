//! End-to-end baseline semantics on a synthetic workspace: seed one
//! violation of every rule class, watch `--deny-new` fail with accurate
//! spans, grandfather the backlog with `--update-baseline`, watch
//! `--deny-new` pass, then regress one line and watch exactly that line
//! fail. Exercises the real CLI binary so the exit-code contract is
//! pinned, not just the library.

use raa_audit::baseline::Baseline;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("raa-audit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn write(root: &Path, rel: &str, src: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
    fs::write(path, src).expect("write");
}

/// A synthetic workspace with one violation of every rule class.
fn seed_tree(root: &Path) {
    // hash-iter + nondet-time + env-var in a determinism crate, plus the
    // missing `#![forbid(unsafe_code)]` (forbid-unsafe) on its root.
    write(
        root,
        "crates/decode/src/lib.rs",
        r#"use std::collections::HashMap;
pub fn f(map: &HashMap<u32, u32>) -> u32 {
    let t = std::time::Instant::now();
    let _knob = std::env::var("RAA_X");
    let mut s = t.elapsed().as_secs() as u32;
    for (_k, v) in map.iter() { s += v; }
    s
}
"#,
    );
    // panic-path in a daemon-reachable module (no crate root on purpose:
    // the forbid-unsafe check needs a lib.rs/main.rs to anchor to).
    write(
        root,
        "crates/sim/src/service.rs",
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    // float-eq in the fit module.
    write(
        root,
        "crates/core/src/fit.rs",
        "#![forbid(unsafe_code)]\npub fn f(x: f64) -> bool { x == 1.0 }\n",
    );
    // unsafe-safety: unsafe without a SAFETY comment (and therefore no
    // forbid-unsafe finding for this crate).
    write(
        root,
        "crates/phys/src/lib.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    // A suppressed violation and a malformed suppression.
    write(
        root,
        "crates/surface/src/lib.rs",
        r#"#![forbid(unsafe_code)]
pub fn g() -> u64 {
    // raa-audit: allow(nondet-time): timing printed to stderr only, never recorded.
    std::time::Instant::now().elapsed().as_secs()
}
pub fn h() -> u64 {
    // raa-audit: allow(nondet-time)
    std::time::Instant::now().elapsed().as_secs()
}
"#,
    );
}

fn audit(root: &Path, extra: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_raa-audit"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("raa-audit runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn deny_new_fails_on_seeded_violations_with_accurate_spans() {
    let tmp = TempDir::new("seeded");
    seed_tree(&tmp.0);
    let (code, stdout, _) = audit(&tmp.0, &["--deny-new"]);
    assert_eq!(code, 1, "seeded violations must fail --deny-new:\n{stdout}");
    // One finding of every class, each at its exact source location.
    for span in [
        "crates/decode/src/lib.rs:6:24: `map.iter()`",
        "crates/decode/src/lib.rs:3:24: `Instant::now()`",
        "crates/decode/src/lib.rs:4:27: raw `env::var`",
        "crates/decode/src/lib.rs:1:1: crate `crates/decode` contains no unsafe",
        "crates/sim/src/service.rs:1:37: `.unwrap()`",
        "crates/core/src/fit.rs:2:30: float `==`",
        "crates/phys/src/lib.rs:1:32: `unsafe` without",
        "crates/surface/src/lib.rs:7:5: malformed raa-audit suppression",
    ] {
        assert!(stdout.contains(span), "missing {span:?} in:\n{stdout}");
    }
    // The well-formed suppression silenced its finding; the nondet-time
    // count must therefore be exactly 2 (decode + the malformed-allow line).
    assert!(
        stdout.contains("rule nondet-time — 2 new finding(s)"),
        "suppression failed to silence:\n{stdout}"
    );
}

#[test]
fn update_baseline_then_deny_new_passes_and_regression_fails() {
    let tmp = TempDir::new("roundtrip");
    seed_tree(&tmp.0);

    // Grandfather the backlog.
    let (code, _, stderr) = audit(&tmp.0, &["--update-baseline"]);
    assert_eq!(code, 0, "{stderr}");
    let baseline_path = tmp.0.join("audit-baseline.json");
    assert!(baseline_path.exists());

    // The JSON round-trips to the identical multiset and identical bytes.
    let text = fs::read_to_string(&baseline_path).expect("baseline readable");
    let parsed = Baseline::from_json(&text).expect("baseline parses");
    assert!(!parsed.entries.is_empty());
    assert_eq!(parsed.to_json(), text, "baseline serialization not stable");

    // Same tree, baseline applied: clean.
    let (code, stdout, _) = audit(&tmp.0, &["--deny-new"]);
    assert_eq!(
        code, 0,
        "grandfathered tree must pass --deny-new:\n{stdout}"
    );
    assert!(stdout.contains("clean"), "{stdout}");

    // Regress one new line; exactly that line fails, the backlog stays
    // grandfathered.
    let service = tmp.0.join("crates/sim/src/service.rs");
    let mut src = fs::read_to_string(&service).expect("readable");
    src.push_str("pub fn g(v: Option<u32>) -> u32 { v.expect(\"set\") }\n");
    fs::write(&service, src).expect("writable");
    let (code, stdout, _) = audit(&tmp.0, &["--deny-new"]);
    assert_eq!(code, 1, "regression must fail --deny-new:\n{stdout}");
    assert!(
        stdout.contains("crates/sim/src/service.rs:2:37: `.expect()`"),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches("— 1 new finding(s)").count(),
        1,
        "only the regression may be new:\n{stdout}"
    );
}

#[test]
fn json_report_is_machine_readable_and_deny_new_composable() {
    let tmp = TempDir::new("json");
    seed_tree(&tmp.0);
    let json_path = tmp.0.join("report.json");
    let (code, stdout, _) = audit(
        &tmp.0,
        &[
            "--json",
            "--json-out",
            json_path.to_str().expect("utf-8 path"),
        ],
    );
    // Without --deny-new the exit code stays 0 even with findings.
    assert_eq!(code, 0);
    let on_disk = fs::read_to_string(&json_path).expect("json artifact written");
    assert_eq!(stdout, on_disk, "--json and --json-out must agree");
    for needle in [
        "\"rule\":\"hash-iter\"",
        "\"rule\":\"panic-path\"",
        "\"rule\":\"float-eq\"",
        "\"rule\":\"unsafe-safety\"",
        "\"rule\":\"forbid-unsafe\"",
        "\"status\":\"new\"",
        "\"status\":\"suppressed\"",
    ] {
        assert!(on_disk.contains(needle), "missing {needle} in:\n{on_disk}");
    }
}

#[test]
fn from_json_rejects_malformed_baselines() {
    let with_count = |count: &str| {
        format!(
            "{{\"version\":1,\"entries\":[\n  {{\"rule\":\"panic-path\",\
             \"file\":\"crates/sim/src/jobs.rs\",\"key\":\"v.unwrap()\",\"count\":{count}}}\n]}}\n"
        )
    };
    let good = with_count("2");
    let parsed = Baseline::from_json(&good).expect("well-formed baseline");
    assert_eq!(parsed.entries.values().copied().collect::<Vec<_>>(), [2]);
    assert_eq!(parsed.to_json(), good);
    // A count is an integer in 0..=u32::MAX: a hand-edited fraction,
    // negative or huge value used to be truncated or saturated, and so
    // could grandfather any number of findings.
    for (text, needle) in [
        (with_count("1.5"), "\"count\""),
        (with_count("-1"), "\"count\""),
        (with_count("1e20"), "\"count\""),
        (good.replace(",\"count\":2", ""), "\"count\""),
        (good.replace("\"version\":1", "\"version\":2"), "version 2"),
        (good.replace("\"version\":1,", ""), "\"version\""),
        (format!("{good}x"), "trailing"),
        (good[..good.len() / 2].to_string(), ""),
        (good[..good.len() - 3].to_string(), ""),
    ] {
        let err = Baseline::from_json(&text).expect_err(&text);
        assert!(
            err.starts_with("baseline: ") && err.contains(needle),
            "{err:?} lacks {needle:?}"
        );
    }
}
