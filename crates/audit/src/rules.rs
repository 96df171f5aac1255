//! The rule registry: every project contract the audit enforces.
//!
//! # Extension point
//!
//! A rule is an implementation of [`Rule`] registered in `registry`.
//! Rules see one file at a time as a [`FileContext`]: the full token
//! stream (comments included), a comment-free index (`code`), a per-token
//! "inside `#[cfg(test)]`" mask, and the raw source lines for snippet
//! reporting. To add a rule:
//!
//! 1. Pick a stable kebab-case id — it is the suppression key
//!    (`// raa-audit: allow(<id>): <reason>`) and the baseline key, so it
//!    must never be renamed once findings ship in `audit-baseline.json`.
//! 2. Implement [`Rule::applies_to`] over the *workspace-relative* path
//!    (forward slashes, e.g. `crates/sim/src/service.rs`). Scoping by
//!    path, not by content, keeps the contract reviewable in one place.
//! 3. Emit findings via `FileContext::finding` so spans and snippets
//!    (the baseline fingerprint) stay consistent across rules.
//! 4. Register the rule in `registry` and document it in the README's
//!    "Static analysis" table.
//!
//! Rules must be deterministic: findings are emitted in token order and
//! the driver sorts files, so two runs over the same tree produce
//! byte-identical reports.
//!
//! Test code (`#[cfg(test)]` items) is exempt from every rule except
//! [`UnsafeSafety`]: tests may unwrap, iterate hash maps, and read env
//! vars freely, but an `unsafe` block needs a `// SAFETY:` comment no
//! matter where it lives.

use crate::lexer::{lex, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// One audit finding, pointing at a token span in a workspace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see [`Rule::id`]); `bad-suppression` is reserved for
    /// malformed `raa-audit:` comments.
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human explanation including the expected remedy.
    pub message: String,
    /// The trimmed source line — also the baseline fingerprint, so a
    /// finding survives unrelated edits that only move it vertically.
    pub snippet: String,
}

/// Per-file view handed to rules. See the module docs.
pub struct FileContext<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel_path: &'a str,
    /// Full token stream, comments included.
    pub tokens: &'a [Token],
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// `in_test[i]` is true when `tokens[i]` sits inside a `#[cfg(test)]`
    /// item (attribute included).
    pub in_test: Vec<bool>,
    /// Raw source lines for snippet extraction.
    pub lines: Vec<&'a str>,
}

impl<'a> FileContext<'a> {
    /// Lexes `source` and builds the derived views.
    pub fn new(rel_path: &'a str, tokens: &'a [Token], source: &'a str) -> Self {
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let in_test = test_mask(tokens, &code);
        FileContext {
            rel_path,
            tokens,
            code,
            in_test,
            lines: source.lines().collect(),
        }
    }

    /// The trimmed source line at 1-based `line`.
    pub(crate) fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Builds a finding anchored at `tok`.
    pub(crate) fn finding(&self, rule: &str, tok: &Token, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: self.rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.snippet(tok.line),
        }
    }

    /// Code token at code-index `ci` (not a raw token index).
    fn ct(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }

    /// Whether the code token at code-index `ci` is test code.
    fn ct_in_test(&self, ci: usize) -> bool {
        self.code.get(ci).is_some_and(|&i| self.in_test[i])
    }

    /// True when the code tokens starting at `ci` match `pat` exactly
    /// (text comparison; kinds are not constrained).
    fn seq(&self, ci: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, p)| self.ct(ci + k).is_some_and(|t| t.text == *p))
    }
}

/// Marks every token belonging to an item annotated `#[cfg(test)]` (or any
/// `#[cfg(...)]` attribute that mentions `test`, covering
/// `#[cfg(all(test, …))]`). The extent of the item is the next top-level
/// `{…}` block after the attribute stack, or the next `;` if one comes
/// first (e.g. a `use` or a field).
fn test_mask(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let text = |ci: usize| code.get(ci).map(|&i| tokens[i].text.as_str());
    let mut ci = 0;
    while ci < code.len() {
        // Match `# [ cfg ( … test … ) ]` at the code level.
        if text(ci) == Some("#") && text(ci + 1) == Some("[") && text(ci + 2) == Some("cfg") {
            let attr_start = ci;
            let mut depth = 0usize;
            let mut saw_test = false;
            let mut j = ci + 1;
            // Scan to the attribute's closing `]`.
            loop {
                match text(j) {
                    None => break,
                    Some("[") | Some("(") => depth += 1,
                    Some(")") => depth -= 1,
                    Some("]") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Some("test") => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_test {
                // Skip any further attributes stacked on the same item.
                let mut k = j + 1;
                while text(k) == Some("#") && text(k + 1) == Some("[") {
                    let mut d = 0usize;
                    k += 1;
                    loop {
                        match text(k) {
                            None => break,
                            Some("[") => d += 1,
                            Some("]") => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Item extent: to matching `}` of the first block, or `;`.
                let mut d = 0usize;
                let end = loop {
                    match text(k) {
                        None => break k,
                        Some(";") if d == 0 => break k + 1,
                        Some("{") => d += 1,
                        Some("}") => {
                            d -= 1;
                            if d == 0 {
                                break k + 1;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                };
                // Mark raw-token range [attr_start, end) including comments
                // interleaved in it.
                if let (Some(&a), Some(&b)) = (
                    code.get(attr_start),
                    code.get(end.saturating_sub(1)).or(code.last()),
                ) {
                    for slot in mask.iter_mut().take(b + 1).skip(a) {
                        *slot = true;
                    }
                }
                ci = end.max(ci + 1);
                continue;
            }
        }
        ci += 1;
    }
    mask
}

/// A single enforced contract. See the module docs for how to add one.
pub trait Rule {
    /// Stable kebab-case id; the suppression and baseline key.
    fn id(&self) -> &'static str;
    /// One-line description shown in reports.
    fn summary(&self) -> &'static str;
    /// Path-based scope, on workspace-relative forward-slash paths.
    fn applies_to(&self, rel_path: &str) -> bool;
    /// Scans one in-scope file.
    fn check(&self, ctx: &FileContext) -> Vec<Finding>;
}

/// All registered rules, in report order. `orphan_pub` carries the
/// workspace's per-crate identifier counts, which no single file holds.
///
/// The crate-level `#![forbid(unsafe_code)]` check does not fit the
/// per-file [`Rule`] shape and lives in [`forbid_unsafe_findings`]; its
/// findings use the rule id `forbid-unsafe` and flow through the same
/// suppression/baseline pipeline.
pub(crate) fn registry(orphan_pub: OrphanPub) -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(HashIter),
        Box::new(NondetTime),
        Box::new(EnvVar),
        Box::new(PanicPath),
        Box::new(UnsafeSafety),
        Box::new(FloatEq),
        Box::new(orphan_pub),
    ]
}

/// The crates whose decode/sim outputs are contractually bit-identical
/// across thread counts and hasher seeds.
const DETERMINISM_CRATES: &[&str] = &[
    "crates/decode/src/",
    "crates/stabsim/src/",
    "crates/sim/src/",
    "crates/surface/src/",
];

/// `hash-iter`: no hasher-order-dependent iteration in determinism crates.
///
/// Token-level type inference: an identifier is considered hash-backed
/// when it is declared `name: HashMap<…>`/`HashSet` (directly or wrapped
/// in `RwLock`/`Mutex`/`Arc`/`Option`), bound `let name = HashMap::new()`,
/// bound from another hash-backed name (guards:
/// `let m = self.memo.read()…`), or typed with a local alias of a hash
/// type (`type CompMemo = HashMap<…>`). Iterating such a name (`.iter()`,
/// `.keys()`, `.values()`, `.drain()`, `.into_iter()`, `.retain()`, or a
/// bare `for _ in &name`) is hasher-order-dependent and flagged.
pub struct HashIter;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

impl Rule for HashIter {
    fn id(&self) -> &'static str {
        "hash-iter"
    }
    fn summary(&self) -> &'static str {
        "no HashMap/HashSet iteration in determinism-contracted crates"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        DETERMINISM_CRATES.iter().any(|p| rel_path.starts_with(p))
    }
    fn check(&self, ctx: &FileContext) -> Vec<Finding> {
        let mut findings = Vec::new();
        // Pass 0: local aliases of hash types (`type CompMemo = HashMap<…>`).
        let mut hash_types: BTreeSet<String> = HASH_TYPES.iter().map(|s| s.to_string()).collect();
        for ci in 0..ctx.code.len() {
            if ctx.ct(ci).is_some_and(|t| t.text == "type")
                && ctx.ct(ci + 2).is_some_and(|t| t.text == "=")
            {
                let mut j = ci + 3;
                while let Some(t) = ctx.ct(j) {
                    if t.text == ";" {
                        break;
                    }
                    if HASH_TYPES.contains(&t.text.as_str()) {
                        hash_types.insert(ctx.ct(ci + 1).unwrap().text.clone());
                        break;
                    }
                    j += 1;
                }
            }
        }
        // Passes 1..: hash-backed names, to fixpoint (guard bindings chain).
        let mut names: BTreeSet<String> = BTreeSet::new();
        loop {
            let before = names.len();
            for ci in 0..ctx.code.len() {
                let Some(t) = ctx.ct(ci) else { break };
                // `name : …Hash…` declarations (let/param/field).
                if t.kind == TokKind::Ident
                    && ctx.ct(ci + 1).is_some_and(|n| n.text == ":")
                    && type_run_mentions(ctx, ci + 2, &hash_types)
                {
                    names.insert(t.text.clone());
                }
                // `let name = <init>;` — propagate hash-ness through
                // bindings that still *hold* the map: a constructor
                // (`HashMap::new()`), a bare alias/reference, or a
                // guard/clone (`self.memo.read()…`). An init that merely
                // *consumes* the map (`merged.into_iter().collect()`)
                // yields something else and must not propagate.
                if t.text == "let" {
                    let (pat_end, bound) = let_binding(ctx, ci);
                    if let Some(name) = bound {
                        if init_holds_hash(ctx, pat_end, &hash_types, &names) {
                            names.insert(name.clone());
                        }
                    }
                }
            }
            if names.len() == before {
                break;
            }
        }
        // Flag iteration over hash-backed names.
        for ci in 0..ctx.code.len() {
            if ctx.ct_in_test(ci) {
                continue;
            }
            let Some(t) = ctx.ct(ci) else { break };
            if names.contains(&t.text)
                && ctx.ct(ci + 1).is_some_and(|d| d.text == ".")
                && ctx
                    .ct(ci + 2)
                    .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
                && ctx.ct(ci + 3).is_some_and(|p| p.text == "(")
            {
                let m = ctx.ct(ci + 2).unwrap();
                findings.push(ctx.finding(
                    self.id(),
                    m,
                    format!(
                        "`{}.{}()` iterates a HashMap/HashSet in hasher order; use a BTreeMap, \
                         sort the keys first, or annotate why the order cannot escape",
                        t.text, m.text
                    ),
                ));
            }
            // `for pat in [&[mut]] name {` — bare hash iteration.
            if t.text == "for" {
                let mut j = ci + 1;
                while let Some(u) = ctx.ct(j) {
                    if u.text == "in" || u.text == "{" || j > ci + 40 {
                        break;
                    }
                    j += 1;
                }
                if ctx.ct(j).is_some_and(|u| u.text == "in") {
                    let mut k = j + 1;
                    while let Some(u) = ctx.ct(k) {
                        if u.text != "&" && u.text != "mut" {
                            break;
                        }
                        k += 1;
                    }
                    if let Some(u) = ctx.ct(k) {
                        if names.contains(&u.text) && ctx.ct(k + 1).is_some_and(|b| b.text == "{") {
                            findings.push(ctx.finding(
                                self.id(),
                                u,
                                format!(
                                    "`for … in {}` iterates a HashMap/HashSet in hasher order; \
                                     use a BTreeMap, sort the keys first, or annotate why the \
                                     order cannot escape",
                                    u.text
                                ),
                            ));
                        }
                    }
                }
            }
        }
        findings
    }
}

/// Whether a `let` initializer starting at code-index `start` evaluates
/// to something hash-backed: mentions a hash type (constructors,
/// `CompMemo::default()`), or uses a hash-backed name in a *holding*
/// position — bare/borrowed, or via `.read()`/`.write()`/`.lock()`/
/// `.clone()`/`.borrow()` guards. A name consumed through any other
/// method (`.into_iter()`, `.len()`, …) does not propagate.
fn init_holds_hash(
    ctx: &FileContext,
    start: usize,
    hash_types: &BTreeSet<String>,
    names: &BTreeSet<String>,
) -> bool {
    const HOLDING_METHODS: &[&str] = &["read", "write", "lock", "clone", "borrow", "borrow_mut"];
    let mut depth = 0i32;
    let mut j = start;
    while let Some(t) = ctx.ct(j) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => break,
            _ => {
                if hash_types.contains(&t.text) {
                    return true;
                }
                if names.contains(&t.text) {
                    match ctx.ct(j + 1).map(|u| u.text.as_str()) {
                        Some(".") => {
                            if ctx
                                .ct(j + 2)
                                .is_some_and(|m| HOLDING_METHODS.contains(&m.text.as_str()))
                            {
                                return true;
                            }
                        }
                        // A call: this is a function/method that merely
                        // *shares* the name (`.map(…)`), not the binding.
                        Some("(") => {}
                        _ => return true,
                    }
                }
            }
        }
        j += 1;
    }
    false
}

/// Scans a type position (after `:`) for a hash type, looking through
/// wrappers like `RwLock<HashMap<…>>`. Stops at tokens that end the type.
fn type_run_mentions(ctx: &FileContext, start: usize, hash_types: &BTreeSet<String>) -> bool {
    let mut depth = 0i32;
    for j in start..(start + 24).min(ctx.code.len()) {
        let Some(t) = ctx.ct(j) else { break };
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            "," | ";" | ")" | "{" | "=" if depth == 0 => break,
            _ => {
                if hash_types.contains(&t.text) {
                    return true;
                }
            }
        }
    }
    false
}

/// For a `let` at code-index `ci`, returns (code-index after `=`, bound
/// name) when the pattern is a simple `let [mut] name =` binding.
fn let_binding(ctx: &FileContext, ci: usize) -> (usize, Option<String>) {
    let mut j = ci + 1;
    if ctx.ct(j).is_some_and(|t| t.text == "mut") {
        j += 1;
    }
    let name = match ctx.ct(j) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => return (j, None),
    };
    // Optional `: Type` before `=`.
    let mut k = j + 1;
    let mut depth = 0i32;
    while let Some(t) = ctx.ct(k) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "=" if depth == 0 => return (k + 1, Some(name)),
            ";" if depth == 0 => return (k, None),
            _ => {}
        }
        if k > j + 40 {
            return (k, None);
        }
        k += 1;
    }
    (k, None)
}

/// `nondet-time`: no wall-clock or ambient randomness in code that feeds
/// `ExperimentRecord`s, cache fingerprints, or memo tables.
///
/// Scope: the decode/stabsim/surface crates wholesale, plus the record
/// producing `sim` modules. The operational `sim` modules
/// (`service`/`lock`/`orchestrator` timeouts, lock ages, scrub timers) are
/// deliberately out of scope: wall-clock is their job, and none of it may
/// reach a record by the `hash-iter`/`engine` contracts.
pub struct NondetTime;

const NONDET_SCOPE: &[&str] = &[
    "crates/decode/src/",
    "crates/stabsim/src/",
    "crates/surface/src/",
    "crates/sim/src/engine.rs",
    "crates/sim/src/record.rs",
    "crates/sim/src/spec.rs",
    "crates/sim/src/analysis.rs",
    "crates/sim/src/calibrate.rs",
];

impl Rule for NondetTime {
    fn id(&self) -> &'static str {
        "nondet-time"
    }
    fn summary(&self) -> &'static str {
        "no Instant/SystemTime/thread_rng in record- or memo-feeding code"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        NONDET_SCOPE.iter().any(|p| rel_path.starts_with(p))
    }
    fn check(&self, ctx: &FileContext) -> Vec<Finding> {
        let mut findings = Vec::new();
        for ci in 0..ctx.code.len() {
            if ctx.ct_in_test(ci) {
                continue;
            }
            let Some(t) = ctx.ct(ci) else { break };
            if (t.text == "Instant" || t.text == "SystemTime") && ctx.seq(ci + 1, &["::", "now"]) {
                findings.push(ctx.finding(
                    self.id(),
                    t,
                    format!(
                        "`{}::now()` in a record/memo-feeding module: wall-clock values must \
                         never reach records, fingerprints, or memo keys",
                        t.text
                    ),
                ));
            }
            if t.text == "thread_rng" {
                findings.push(
                    ctx.finding(
                        self.id(),
                        t,
                        "`thread_rng()` is nondeterministic; derive seeds with SplitMix from the \
                     spec seed instead"
                            .to_string(),
                    ),
                );
            }
        }
        findings
    }
}

/// `env-var`: all environment access funnels through
/// `raa_bench::env_parse_strict` and its sibling helpers, so a malformed
/// knob is a hard error everywhere instead of a silent fallback.
pub struct EnvVar;

impl Rule for EnvVar {
    fn id(&self) -> &'static str {
        "env-var"
    }
    fn summary(&self) -> &'static str {
        "no raw std::env::var outside raa_bench's strict env helpers"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        rel_path != "crates/bench/src/lib.rs"
    }
    fn check(&self, ctx: &FileContext) -> Vec<Finding> {
        let mut findings = Vec::new();
        for ci in 0..ctx.code.len() {
            if ctx.ct_in_test(ci) {
                continue;
            }
            let Some(t) = ctx.ct(ci) else { break };
            if t.text == "env"
                && ctx.ct(ci + 1).is_some_and(|d| d.text == "::")
                && ctx
                    .ct(ci + 2)
                    .is_some_and(|m| m.text.starts_with("var") && m.kind == TokKind::Ident)
            {
                let m = ctx.ct(ci + 2).unwrap();
                findings.push(ctx.finding(
                    self.id(),
                    m,
                    format!(
                        "raw `env::{}` bypasses the strict env contract; use \
                         `raa_bench::env_parse_strict`/`env_string` so malformed values fail \
                         loudly",
                        m.text
                    ),
                ));
            }
        }
        findings
    }
}

/// `panic-path`: the daemon-reachable `sim` modules must use the typed
/// `OrchestratorError`/`McError` chain — a stray `unwrap()` in a worker
/// turns a bad job into a poisoned thread.
pub struct PanicPath;

const PANIC_SCOPE: &[&str] = &[
    "crates/sim/src/service.rs",
    "crates/sim/src/orchestrator.rs",
    "crates/sim/src/lock.rs",
    "crates/sim/src/jobs.rs",
    // The daemon expands and fits a calibration request through `calibrate`.
    "crates/sim/src/calibrate.rs",
    // The daemon parses wire lines through `json` and cache entries through
    // `record` on every lookup and scrub.
    "crates/sim/src/json.rs",
    "crates/sim/src/record.rs",
];

impl Rule for PanicPath {
    fn id(&self) -> &'static str {
        "panic-path"
    }
    fn summary(&self) -> &'static str {
        "no unwrap/expect/panic! in daemon-reachable sim modules"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        PANIC_SCOPE.contains(&rel_path)
    }
    fn check(&self, ctx: &FileContext) -> Vec<Finding> {
        let mut findings = Vec::new();
        for ci in 0..ctx.code.len() {
            if ctx.ct_in_test(ci) {
                continue;
            }
            let Some(t) = ctx.ct(ci) else { break };
            if t.text == "."
                && ctx
                    .ct(ci + 1)
                    .is_some_and(|m| m.text == "unwrap" || m.text == "expect")
                && ctx.ct(ci + 2).is_some_and(|p| p.text == "(")
            {
                let m = ctx.ct(ci + 1).unwrap();
                findings.push(ctx.finding(
                    self.id(),
                    m,
                    format!(
                        "`.{}()` in a daemon-reachable path; thread the typed \
                         OrchestratorError/McError chain instead (or annotate why panicking \
                         is the containment boundary)",
                        m.text
                    ),
                ));
            }
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && ctx.ct(ci + 1).is_some_and(|b| b.text == "!")
            {
                findings.push(ctx.finding(
                    self.id(),
                    t,
                    format!(
                        "`{}!` in a daemon-reachable path; return a typed error instead (or \
                         annotate why panicking is the containment boundary)",
                        t.text
                    ),
                ));
            }
        }
        findings
    }
}

/// `unsafe-safety`: every `unsafe` keyword needs a `// SAFETY:` comment on
/// the same line or within the three lines above it. Applies to test code
/// too — an unfenced invariant is no safer in a test.
pub struct UnsafeSafety;

impl Rule for UnsafeSafety {
    fn id(&self) -> &'static str {
        "unsafe-safety"
    }
    fn summary(&self) -> &'static str {
        "every `unsafe` requires an adjacent // SAFETY: comment"
    }
    fn applies_to(&self, _rel_path: &str) -> bool {
        true
    }
    fn check(&self, ctx: &FileContext) -> Vec<Finding> {
        let mut findings = Vec::new();
        for &i in &ctx.code {
            let t = &ctx.tokens[i];
            if t.kind != TokKind::Ident || t.text != "unsafe" {
                continue;
            }
            // A `// SAFETY:` justification may span several line comments;
            // coverage extends to the end of the contiguous comment block the
            // marker opens, so a four-line rationale still counts as adjacent.
            let covered = ctx.tokens.iter().enumerate().any(|(ci, c)| {
                if !matches!(c.kind, TokKind::LineComment | TokKind::BlockComment)
                    || !c.text.contains("SAFETY:")
                    || c.line > t.line
                {
                    return false;
                }
                let mut end = c.line;
                for next in &ctx.tokens[ci + 1..] {
                    if next.kind == TokKind::LineComment && next.line == end + 1 {
                        end = next.line;
                    } else {
                        break;
                    }
                }
                end + 3 >= t.line
            });
            if !covered {
                findings.push(
                    ctx.finding(
                        self.id(),
                        t,
                        "`unsafe` without an adjacent `// SAFETY:` comment stating the upheld \
                     invariant"
                            .to_string(),
                    ),
                );
            }
        }
        findings
    }
}

/// `float-eq`: `==`/`!=` on floats in the fitting/analysis modules —
/// exact float comparison silently turns a fit into a coin flip.
pub struct FloatEq;

const FLOAT_SCOPE: &[&str] = &["crates/core/src/fit.rs", "crates/sim/src/analysis.rs"];

impl Rule for FloatEq {
    fn id(&self) -> &'static str {
        "float-eq"
    }
    fn summary(&self) -> &'static str {
        "no ==/!= on float expressions in fit/analysis code"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        FLOAT_SCOPE.contains(&rel_path)
    }
    fn check(&self, ctx: &FileContext) -> Vec<Finding> {
        // Names declared as floats in this file: `name: f64`, `let n = 1.0`.
        let mut float_names: BTreeSet<String> = BTreeSet::new();
        for ci in 0..ctx.code.len() {
            let Some(t) = ctx.ct(ci) else { break };
            if t.kind == TokKind::Ident
                && ctx.ct(ci + 1).is_some_and(|c| c.text == ":")
                && ctx
                    .ct(ci + 2)
                    .is_some_and(|f| f.text == "f64" || f.text == "f32")
            {
                float_names.insert(t.text.clone());
            }
            if t.text == "let" {
                let (init, bound) = let_binding(ctx, ci);
                if let (Some(name), Some(first)) = (bound, ctx.ct(init)) {
                    if first.kind == TokKind::Float {
                        float_names.insert(name);
                    }
                }
            }
        }
        let is_floaty = |tok: Option<&Token>| {
            tok.is_some_and(|t| t.kind == TokKind::Float || float_names.contains(&t.text))
        };
        let mut findings = Vec::new();
        for ci in 0..ctx.code.len() {
            if ctx.ct_in_test(ci) {
                continue;
            }
            let Some(t) = ctx.ct(ci) else { break };
            if t.text != "==" && t.text != "!=" {
                continue;
            }
            // Right operand may carry a unary minus: `x == -1.0`.
            let mut right = ci + 1;
            if ctx.ct(right).is_some_and(|u| u.text == "-") {
                right += 1;
            }
            if is_floaty(ctx.ct(ci.wrapping_sub(1))) || is_floaty(ctx.ct(right)) {
                findings.push(ctx.finding(
                    self.id(),
                    t,
                    format!(
                        "float `{}` comparison; compare against a tolerance or restructure \
                         so exactness is guaranteed",
                        t.text
                    ),
                ));
            }
        }
        findings
    }
}

/// `orphan-pub`: a `pub fn` outside test code that no other crate's
/// non-test code names is public API without a cross-crate caller; make it
/// `pub(crate)` (rustc's `dead_code` lint then reports it if nothing in its
/// crate calls it either).
///
/// [`OrphanPub::count`] collects, per crate, the identifiers of non-test
/// code: libraries, binaries, examples, benches and every file under
/// `e2ebench/`. Integration tests (`tests/` directories), `#[cfg(test)]`
/// items, comments, doc examples and strings are not uses. This is a word
/// scan, not name resolution: a name shared with any identifier of another
/// crate hides a function, so the rule can miss an orphan but never flags
/// a function that another crate's non-test code names.
#[derive(Default)]
pub struct OrphanPub {
    /// Identifier → the crates whose non-test code names it.
    uses: BTreeMap<String, BTreeSet<String>>,
}

impl OrphanPub {
    /// Adds the non-test identifiers of the file at the workspace-relative
    /// `rel_path` to the counts; an integration-test file adds none.
    pub fn count(&mut self, rel_path: &str, tokens: &[Token]) {
        let Some(krate) = crate_of(rel_path) else {
            return;
        };
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let in_test = test_mask(tokens, &code);
        for &i in &code {
            if tokens[i].kind == TokKind::Ident && !in_test[i] {
                self.uses
                    .entry(tokens[i].text.clone())
                    .or_default()
                    .insert(krate.clone());
            }
        }
    }
}

/// The crate a workspace file compiles into, or `None` for an integration
/// test. A library's `src/` is one crate; each binary, example and bench
/// file stands for its own; everything under `e2ebench/` is one crate.
fn crate_of(rel_path: &str) -> Option<String> {
    if rel_path.starts_with("e2ebench/") {
        return Some("e2ebench".to_string());
    }
    if rel_path.starts_with("tests/") || rel_path.contains("/tests/") {
        return None;
    }
    if let Some((name, file)) = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
    {
        let binary = file.starts_with("src/bin/") || file == "src/main.rs";
        if file.starts_with("src/") && !binary {
            return Some(format!("crates/{name}/src"));
        }
    }
    Some(rel_path.to_string())
}

impl Rule for OrphanPub {
    fn id(&self) -> &'static str {
        "orphan-pub"
    }
    fn summary(&self) -> &'static str {
        "no pub fn that no other crate's non-test code names"
    }
    fn applies_to(&self, rel_path: &str) -> bool {
        rel_path.starts_with("crates/")
    }
    fn check(&self, ctx: &FileContext) -> Vec<Finding> {
        let Some(own) = crate_of(ctx.rel_path) else {
            return Vec::new();
        };
        let mut findings = Vec::new();
        for ci in 0..ctx.code.len() {
            if ctx.ct_in_test(ci) || !ctx.seq(ci, &["pub", "fn"]) {
                continue;
            }
            let Some(name) = ctx.ct(ci + 2) else { break };
            let named_elsewhere = self
                .uses
                .get(&name.text)
                .is_some_and(|crates| crates.iter().any(|c| *c != own));
            if !named_elsewhere {
                findings.push(ctx.finding(
                    self.id(),
                    name,
                    format!(
                        "`pub fn {}` is named by no other crate's non-test code (library, \
                         binary, example, bench or e2ebench); make it pub(crate), or keep it \
                         pub under a suppression that names the test needing it",
                        name.text
                    ),
                ));
            }
        }
        findings
    }
}

/// The crate-level unsafe-hygiene check (rule id `forbid-unsafe`): a crate
/// whose sources contain no `unsafe` at all must declare
/// `#![forbid(unsafe_code)]` in its root (`src/lib.rs`, else
/// `src/main.rs`), so the clean state is compiler-enforced from then on.
///
/// `files` are `(rel_path, source, tokens)` for every scanned file of one
/// crate, sorted by path.
// raa-audit: allow(orphan-pub): rule_snippets.rs runs single rules on snippets with it.
pub fn forbid_unsafe_findings(
    crate_rel_dir: &str,
    files: &[(String, String, Vec<Token>)],
) -> Vec<Finding> {
    let any_unsafe = files.iter().any(|(_, _, tokens)| {
        tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "unsafe")
    });
    if any_unsafe {
        return Vec::new();
    }
    let lib = format!("{crate_rel_dir}/src/lib.rs");
    let main = format!("{crate_rel_dir}/src/main.rs");
    let Some((root_path, _, tokens)) = files
        .iter()
        .find(|(p, _, _)| *p == lib)
        .or_else(|| files.iter().find(|(p, _, _)| *p == main))
    else {
        return Vec::new();
    };
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let has_forbid = code.windows(8).any(|w| {
        let texts: Vec<&str> = w.iter().map(|t| t.text.as_str()).collect();
        texts == ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"]
    });
    if has_forbid {
        return Vec::new();
    }
    vec![Finding {
        rule: "forbid-unsafe".to_string(),
        file: root_path.clone(),
        line: 1,
        col: 1,
        message: format!(
            "crate `{crate_rel_dir}` contains no unsafe code; add `#![forbid(unsafe_code)]` \
             to its root so the clean state is compiler-enforced"
        ),
        // Stable fingerprint independent of whatever line 1 says today.
        snippet: "#![forbid(unsafe_code)] missing".to_string(),
    }]
}

/// Convenience for tests: lex + build a context + run one rule.
// raa-audit: allow(orphan-pub): rule_snippets.rs runs single rules on snippets with it.
pub fn run_rule_on(rule: &dyn Rule, rel_path: &str, source: &str) -> Vec<Finding> {
    let tokens = lex(source);
    let ctx = FileContext::new(rel_path, &tokens, source);
    rule.check(&ctx)
}
