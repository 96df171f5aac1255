//! A token-level Rust lexer, just deep enough for contract auditing.
//!
//! The rules in [`crate::rules`] match on identifier and punctuation
//! *tokens*, never on raw text, so the lexer's job is to make sure the
//! things that look like code but aren't — string literals, char literals,
//! raw strings, line and block comments — come out as single opaque tokens.
//! `".unwrap()"` inside a string must not trip the panic rule; `'a'` must
//! not be confused with the lifetime `'a`; `r#"// SAFETY:"#` must not
//! count as a safety comment. Comments are *kept* in the stream (the
//! suppression and `// SAFETY:` machinery reads them); rule matching uses
//! the comment-free view built by [`crate::rules::FileContext`].
//!
//! The lexer is lossless enough for auditing, not for compilation: it does
//! not distinguish keywords from identifiers (rules compare the text) and
//! it folds all numeric literals into [`TokKind::Int`] / [`TokKind::Float`].

/// Token classification. See the module docs for what the lexer guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `unsafe`, `HashMap`, ...).
    Ident,
    /// Lifetime such as `'a` (including `'static`, `'_`).
    Lifetime,
    /// Integer literal (including hex/octal/binary and suffixed forms).
    Int,
    /// Float literal (`1.0`, `1e-3`, `2f64`, ...).
    Float,
    /// String literal of any flavour: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// Char or byte-char literal: `'x'`, `'\n'`, `b'\0'`.
    Char,
    /// `// …` comment (includes `///` and `//!` doc comments).
    LineComment,
    /// `/* … */` comment, nesting handled.
    BlockComment,
    /// Operator or delimiter; multi-char operators (`::`, `==`, `!=`,
    /// `..`, ...) are single tokens.
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// Exact source text of the token (comments keep their delimiters).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

/// Multi-char operators, longest first so greedy matching is correct.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into a token stream. Unterminated literals or comments are
/// closed at end of file rather than reported — the audit runs on sources
/// the compiler already accepted, so recovery is not worth modelling.
// raa-audit: allow(orphan-pub): lexer_golden.rs and rule_snippets.rs test the lexer and the rules on snippets.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let mut text = String::new();
        let kind = if c == '/' && cur.peek(1) == Some('/') {
            while let Some(c) = cur.peek(0) {
                if c == '\n' {
                    break;
                }
                text.push(cur.bump().unwrap());
            }
            TokKind::LineComment
        } else if c == '/' && cur.peek(1) == Some('*') {
            text.push(cur.bump().unwrap());
            text.push(cur.bump().unwrap());
            let mut depth = 1usize;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        text.push(cur.bump().unwrap());
                        text.push(cur.bump().unwrap());
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        text.push(cur.bump().unwrap());
                        text.push(cur.bump().unwrap());
                    }
                    (Some(_), _) => text.push(cur.bump().unwrap()),
                    (None, _) => break,
                }
            }
            TokKind::BlockComment
        } else if c == '"' {
            lex_quoted_string(&mut cur, &mut text);
            TokKind::Str
        } else if c == '\'' {
            lex_char_or_lifetime(&mut cur, &mut text)
        } else if is_ident_start(c) {
            while let Some(c) = cur.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(cur.bump().unwrap());
            }
            // String/char prefixes: r"…", r#"…"#, b"…", br#"…"#, b'…'.
            match (text.as_str(), cur.peek(0)) {
                ("r" | "br" | "b", Some('"')) | ("r" | "br", Some('#')) => {
                    if lex_maybe_raw_or_quoted(&mut cur, &mut text) {
                        TokKind::Str
                    } else {
                        TokKind::Ident
                    }
                }
                ("b", Some('\'')) => {
                    // Byte char: `b'x'` — always a literal, never a lifetime.
                    text.push(cur.bump().unwrap());
                    lex_char_body(&mut cur, &mut text);
                    TokKind::Char
                }
                _ => TokKind::Ident,
            }
        } else if c.is_ascii_digit() {
            lex_number(&mut cur, &mut text)
        } else {
            let mut matched = false;
            for op in OPERATORS {
                if src_matches(&cur, op) {
                    for _ in 0..op.len() {
                        text.push(cur.bump().unwrap());
                    }
                    matched = true;
                    break;
                }
            }
            if !matched {
                text.push(cur.bump().unwrap());
            }
            TokKind::Punct
        };
        out.push(Token {
            kind,
            text,
            line,
            col,
        });
    }
    out
}

fn src_matches(cur: &Cursor, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(i, pc)| cur.peek(i) == Some(pc))
}

/// Consumes a `"…"` string (opening quote still pending) with escapes.
fn lex_quoted_string(cur: &mut Cursor, text: &mut String) {
    text.push(cur.bump().unwrap()); // opening quote
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(cur.bump().unwrap());
            if cur.peek(0).is_some() {
                text.push(cur.bump().unwrap());
            }
            continue;
        }
        let closed = c == '"';
        text.push(cur.bump().unwrap());
        if closed {
            break;
        }
    }
}

/// After an `r`/`br` prefix: consumes `#…#"…"#…#` raw strings, or after a
/// `b` prefix a plain quoted string. Returns false if what follows is not
/// actually a string start (e.g. `r#raw_ident`).
fn lex_maybe_raw_or_quoted(cur: &mut Cursor, text: &mut String) -> bool {
    if cur.peek(0) == Some('"') && text != "r" && text != "br" {
        // b"…" — plain escapes apply.
        lex_quoted_string(cur, text);
        return true;
    }
    let mut hashes = 0usize;
    while cur.peek(hashes) == Some('#') {
        hashes += 1;
    }
    if cur.peek(hashes) != Some('"') {
        if hashes > 0 {
            // `r#ident` raw identifier: fold the `#` into the ident token.
            text.push(cur.bump().unwrap());
            while let Some(c) = cur.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(cur.bump().unwrap());
            }
            return false;
        }
        lex_quoted_string(cur, text);
        return true;
    }
    for _ in 0..=hashes {
        text.push(cur.bump().unwrap()); // hashes + opening quote
    }
    // Raw strings have no escapes: scan for `"` followed by `hashes` hashes.
    while cur.peek(0).is_some() {
        if cur.peek(0) == Some('"') && (0..hashes).all(|i| cur.peek(1 + i) == Some('#')) {
            for _ in 0..=hashes {
                text.push(cur.bump().unwrap());
            }
            return true;
        }
        text.push(cur.bump().unwrap());
    }
    true
}

/// After a `'`: char literal (`'x'`, `'\n'`) or lifetime (`'a`, `'static`).
fn lex_char_or_lifetime(cur: &mut Cursor, text: &mut String) -> TokKind {
    // A char literal is `'` + (escape | single char) + `'`; a lifetime is
    // `'` + identifier with no closing quote.
    if cur.peek(1) == Some('\\') || (cur.peek(1).is_some() && cur.peek(2) == Some('\'')) {
        text.push(cur.bump().unwrap());
        lex_char_body(cur, text);
        TokKind::Char
    } else {
        text.push(cur.bump().unwrap());
        while let Some(c) = cur.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(cur.bump().unwrap());
        }
        TokKind::Lifetime
    }
}

/// Consumes a char-literal body up to and including the closing `'`.
fn lex_char_body(cur: &mut Cursor, text: &mut String) {
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(cur.bump().unwrap());
            if cur.peek(0).is_some() {
                text.push(cur.bump().unwrap());
            }
            continue;
        }
        let closed = c == '\'';
        text.push(cur.bump().unwrap());
        if closed {
            break;
        }
    }
}

fn lex_number(cur: &mut Cursor, text: &mut String) -> TokKind {
    let mut float = false;
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'o' | 'b')) {
        text.push(cur.bump().unwrap());
        text.push(cur.bump().unwrap());
        while let Some(c) = cur.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(cur.bump().unwrap());
        }
        return TokKind::Int;
    }
    while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
        text.push(cur.bump().unwrap());
    }
    // Fraction: `1.5` yes; `0..10` and `x.foo()` no.
    if cur.peek(0) == Some('.') {
        let after = cur.peek(1);
        if after.is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            text.push(cur.bump().unwrap());
            while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                text.push(cur.bump().unwrap());
            }
        } else if !after.is_some_and(|c| c == '.' || is_ident_start(c)) {
            // Trailing-dot float such as `1.`.
            float = true;
            text.push(cur.bump().unwrap());
        }
    }
    // Exponent: `1e9`, `1.5e-3`.
    if matches!(cur.peek(0), Some('e' | 'E')) {
        let (sign, digit) = (cur.peek(1), cur.peek(2));
        let has_exp = sign.is_some_and(|c| c.is_ascii_digit())
            || (matches!(sign, Some('+' | '-')) && digit.is_some_and(|c| c.is_ascii_digit()));
        if has_exp {
            float = true;
            text.push(cur.bump().unwrap());
            if matches!(cur.peek(0), Some('+' | '-')) {
                text.push(cur.bump().unwrap());
            }
            while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                text.push(cur.bump().unwrap());
            }
        }
    }
    // Suffix: `1u64`, `1.0f32`, `2f64` (a float by type even without a dot).
    let mut suffix = String::new();
    while cur.peek(0).is_some_and(is_ident_continue) {
        suffix.push(cur.bump().unwrap());
    }
    if suffix == "f32" || suffix == "f64" {
        float = true;
    }
    text.push_str(&suffix);
    if float {
        TokKind::Float
    } else {
        TokKind::Int
    }
}
