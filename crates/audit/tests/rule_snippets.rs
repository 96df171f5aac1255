//! Per-rule positive/negative snippets: each contract rule gets at least
//! one snippet that must fire and one that must stay silent, including the
//! scope boundaries (out-of-scope paths, `#[cfg(test)]` exemption) and the
//! lexical traps (the pattern inside a string or comment).

use raa_audit::lexer::lex;
use raa_audit::rules::{
    forbid_unsafe_findings, run_rule_on, EnvVar, FloatEq, HashIter, NondetTime, OrphanPub,
    PanicPath, Rule, UnsafeSafety,
};

fn hits(rule: &dyn Rule, path: &str, src: &str) -> usize {
    assert!(
        rule.applies_to(path),
        "snippet path {path} must be in scope for {}",
        rule.id()
    );
    run_rule_on(rule, path, src).len()
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_iter_flags_iteration_over_declared_map() {
    let src = r#"
use std::collections::HashMap;
fn f(map: &HashMap<u32, u32>) -> u32 {
    let mut s = 0;
    for (_k, v) in map.iter() { s += v; }
    s
}
"#;
    assert_eq!(hits(&HashIter, "crates/decode/src/x.rs", src), 1);
}

#[test]
fn hash_iter_flags_bare_for_loop_and_guard_propagation() {
    let src = r#"
use std::collections::{HashMap, HashSet};
struct S { memo: std::sync::RwLock<HashMap<u64, u64>> }
fn f(s: &S, set: HashSet<u32>) {
    let m = s.memo.read().unwrap();
    for _ in m.keys() {}
    for _x in &set {}
}
"#;
    assert_eq!(hits(&HashIter, "crates/stabsim/src/x.rs", src), 2);
}

#[test]
fn hash_iter_silent_on_vec_and_btreemap_and_consuming_bindings() {
    let src = r#"
use std::collections::{BTreeMap, HashMap};
fn f(merged: HashMap<u64, f64>, sorted: BTreeMap<u64, f64>, v: Vec<u64>) {
    // A binding that *consumes* the map is no longer hash-ordered.
    let mut errors: Vec<u64> = merged.into_iter().map(|(k, _)| k).collect();
    errors.sort_unstable();
    for e in errors.iter() { let _ = e; }
    for (_k, _x) in sorted.iter() {}
    for y in v.iter() { let _ = y; }
}
"#;
    // Only `merged.into_iter()` itself is hasher-ordered — and it feeds a
    // sort, so the canonical fix is an annotation; here we only assert the
    // Vec/BTreeMap iterations stay silent.
    let findings = run_rule_on(&HashIter, "crates/decode/src/x.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].snippet.contains("merged.into_iter()"));
}

#[test]
fn hash_iter_out_of_scope_path_and_test_code_are_exempt() {
    assert!(!HashIter.applies_to("crates/core/src/budget.rs"));
    let src = r#"
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        for _ in m.iter() {}
    }
}
"#;
    assert_eq!(hits(&HashIter, "crates/decode/src/x.rs", src), 0);
}

// -------------------------------------------------------------- nondet-time

#[test]
fn nondet_time_flags_clocks_and_thread_rng() {
    let src = r#"
fn f() -> u64 {
    let t = std::time::Instant::now();
    let s = std::time::SystemTime::now();
    let r = rand::thread_rng().gen::<u64>();
    let _ = (t, s);
    r
}
"#;
    assert_eq!(hits(&NondetTime, "crates/sim/src/engine.rs", src), 3);
}

#[test]
fn nondet_time_silent_in_operational_modules_and_strings() {
    // service.rs owns timeouts — deliberately out of scope.
    assert!(!NondetTime.applies_to("crates/sim/src/service.rs"));
    let src = r#"fn f() -> &'static str { "Instant::now() in a string" }"#;
    assert_eq!(hits(&NondetTime, "crates/decode/src/x.rs", src), 0);
}

// ------------------------------------------------------------------ env-var

#[test]
fn env_var_flags_raw_access_everywhere_but_the_helper_module() {
    let src = r#"
fn f() -> Option<String> {
    std::env::var("RAA_KNOB").ok()
}
fn g() -> bool {
    std::env::var_os("RAA_FLAG").is_some()
}
"#;
    assert_eq!(hits(&EnvVar, "crates/core/src/budget.rs", src), 2);
    assert!(!EnvVar.applies_to("crates/bench/src/lib.rs"));
}

#[test]
fn env_var_silent_on_helper_calls_and_test_code() {
    let src = r#"
fn f() -> Option<String> { raa_bench::env_string("RAA_KNOB") }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = std::env::var("RAA_KNOB"); }
}
"#;
    assert_eq!(hits(&EnvVar, "crates/core/src/budget.rs", src), 0);
}

// --------------------------------------------------------------- panic-path

#[test]
fn panic_path_flags_unwrap_expect_and_panic_macros() {
    let src = r#"
fn f(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = v.expect("present");
    if a + b > 9 { panic!("boom"); }
    match a { 0 => unreachable!(), _ => a }
}
"#;
    assert_eq!(hits(&PanicPath, "crates/sim/src/service.rs", src), 4);
}

#[test]
fn panic_path_scope_is_the_daemon_reachable_modules_only() {
    assert!(PanicPath.applies_to("crates/sim/src/jobs.rs"));
    assert!(PanicPath.applies_to("crates/sim/src/json.rs"));
    assert!(PanicPath.applies_to("crates/sim/src/record.rs"));
    assert!(PanicPath.applies_to("crates/sim/src/lock.rs"));
    assert!(PanicPath.applies_to("crates/sim/src/orchestrator.rs"));
    assert!(!PanicPath.applies_to("crates/sim/src/engine.rs"));
    assert!(!PanicPath.applies_to("crates/decode/src/unionfind.rs"));
}

#[test]
fn panic_path_silent_on_renamed_methods_strings_and_tests() {
    let src = r#"
fn f(p: &mut Parser) -> Result<(), String> {
    p.expect_byte(b':')?;
    let msg = "call .unwrap() and panic!";
    let _ = msg;
    Ok(())
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
"#;
    assert_eq!(hits(&PanicPath, "crates/sim/src/service.rs", src), 0);
}

// ------------------------------------------------------------ unsafe-safety

#[test]
fn unsafe_safety_flags_unfenced_unsafe_even_in_tests() {
    let src = r#"
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let x = 0u8; assert_eq!(unsafe { *(&x as *const u8) }, 0); }
}
"#;
    assert_eq!(hits(&UnsafeSafety, "crates/core/src/budget.rs", src), 2);
}

#[test]
fn unsafe_safety_accepts_adjacent_and_multiline_safety_comments() {
    let src = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` points at a live, initialized byte.
    unsafe { *p }
}
fn g(p: *const u8) -> u8 {
    // SAFETY: a justification that takes several lines to state fully —
    // the pointer is derived from a reference two frames up, the borrow
    // is still live, and nothing reallocates underneath it while this
    // read happens.
    unsafe { *p }
}
"#;
    assert_eq!(hits(&UnsafeSafety, "crates/core/src/budget.rs", src), 0);
}

#[test]
fn unsafe_safety_ignores_safety_text_inside_strings() {
    let src = r##"
fn f(p: *const u8) -> u8 {
    let _doc = r#"// SAFETY: not a real comment"#;
    unsafe { *p }
}
"##;
    assert_eq!(hits(&UnsafeSafety, "crates/core/src/budget.rs", src), 1);
}

// ----------------------------------------------------------------- float-eq

#[test]
fn float_eq_flags_exact_comparison_against_literals_and_float_names() {
    let src = r#"
fn f(x: f64, y: f64) -> bool {
    let z = 0.5;
    x == 1.0 || y != z || z == -0.0
}
"#;
    assert_eq!(hits(&FloatEq, "crates/core/src/fit.rs", src), 3);
}

#[test]
fn float_eq_silent_on_integers_orderings_and_out_of_scope_files() {
    let src = r#"
fn f(n: usize, x: f64) -> bool {
    n == 3 && x < 1.0 && x >= 0.0
}
"#;
    assert_eq!(hits(&FloatEq, "crates/core/src/fit.rs", src), 0);
    assert!(!FloatEq.applies_to("crates/core/src/budget.rs"));
}

// ------------------------------------------------------------ forbid-unsafe

fn file(rel: &str, src: &str) -> (String, String, Vec<raa_audit::lexer::Token>) {
    (rel.to_string(), src.to_string(), lex(src))
}

#[test]
fn forbid_unsafe_flags_clean_crate_without_the_attribute() {
    let files = vec![file("crates/foo/src/lib.rs", "pub fn f() {}\n")];
    let findings = forbid_unsafe_findings("crates/foo", &files);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "forbid-unsafe");
    assert_eq!(findings[0].file, "crates/foo/src/lib.rs");
}

#[test]
fn forbid_unsafe_silent_with_attribute_or_real_unsafe() {
    let clean = vec![file(
        "crates/foo/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    )];
    assert!(forbid_unsafe_findings("crates/foo", &clean).is_empty());
    // A crate that *does* contain unsafe must not be told to forbid it.
    let has_unsafe = vec![file(
        "crates/foo/src/lib.rs",
        "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: test.\n    unsafe { *p }\n}\n",
    )];
    assert!(forbid_unsafe_findings("crates/foo", &has_unsafe).is_empty());
    // The attribute in a comment or string does not count.
    let faked = vec![file(
        "crates/foo/src/lib.rs",
        "// #![forbid(unsafe_code)]\npub fn f() {}\n",
    )];
    assert_eq!(forbid_unsafe_findings("crates/foo", &faked).len(), 1);
}

// --------------------------------------------------------------- orphan-pub

#[test]
fn orphan_pub_flags_a_caller_less_function_until_a_test_or_doc_names_it() {
    let lib = r#"
pub fn lonely() {}
pub fn called() {}
pub(crate) fn internal() {}
#[cfg(test)]
mod tests { pub fn helper() {} }
"#;
    // A plain comment or a string is not a use; a call is.
    let user = "// lonely\nfn main() { let _ = \"lonely\"; called(); }\n";
    let mut rule = OrphanPub::default();
    rule.count(&lex(lib));
    rule.count(&lex(user));
    let findings = run_rule_on(&rule, "crates/foo/src/lib.rs", lib);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(
        (findings[0].rule.as_str(), findings[0].line),
        ("orphan-pub", 2)
    );
    for naming in [
        "#[test]\nfn t() { foo::lonely(); }\n",
        "/// ```\n/// foo::lonely();\n/// ```\npub struct S;\n",
        "//! See [`lonely`](foo::lonely).\n",
    ] {
        let mut rule = OrphanPub::default();
        for src in [lib, user, naming] {
            rule.count(&lex(src));
        }
        assert_eq!(hits(&rule, "crates/foo/src/lib.rs", lib), 0, "{naming}");
    }
}
