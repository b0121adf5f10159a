//! A dependency-free Rust lexer producing a line-annotated token stream.
//!
//! This is not a full rustc lexer — it is exactly strong enough for the
//! analysis passes built on top of it: every construct that made the old
//! regex scanner lie is handled structurally.
//!
//! * comments (line, doc, and **nested** block comments) never produce
//!   code tokens; their text is preserved as [`Comment`] entries so the
//!   `lint:allow` machinery can read justifications;
//! * string literals (plain, raw `r#"…"#`, byte, raw byte) become single
//!   [`TokKind::Str`]/[`TokKind::RawStr`] tokens carrying their *inner*
//!   text, so `".unwrap()"` in a message can never look like a call;
//! * `'a'` (char) vs. `'a` (lifetime) is decided the way rustc does —
//!   by whether the identifier run after the quote is closed by `'`;
//! * multi-char operators (`::`, `->`, `%=`, …) are single tokens, so a
//!   rule matching `%` cannot half-match `%=`;
//! * a leading `#!/usr/bin/env …` shebang line is skipped (it is not an
//!   inner attribute).
//!
//! Tokens carry 1-based line numbers; the passes report through them.

/// Token classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `as`, …).
    Ident,
    /// Lifetime tick-identifier (`'a`, `'static`), text without the tick.
    Lifetime,
    /// Integer literal (including suffixed forms like `1u64`).
    Int,
    /// Float literal (`1.5`, `1e6`, `7f64`) — the determinism-flow pass
    /// cares about the distinction.
    Float,
    /// String literal; text is the inner content without quotes.
    Str,
    /// Raw string literal (`r"…"`, `r#"…"#`); inner content.
    RawStr,
    /// Char literal (`'x'`, `'\n'`); inner content.
    Char,
    /// Byte literal (`b'x'`).
    Byte,
    /// Byte-string literal (`b"…"`, `br"…"`); inner content.
    ByteStr,
    /// Punctuation / operator, possibly multi-char (`::`, `->`, `%=`).
    Punct,
}

/// One lexed token with its (1-based) source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Token text; for literals, the inner content (no delimiters).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for a punct token with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// True for a string-ish literal ([`TokKind::Str`]/[`TokKind::RawStr`]).
    pub fn is_string(&self) -> bool {
        matches!(self.kind, TokKind::Str | TokKind::RawStr)
    }
}

/// One comment, split per source line (a block comment spanning three
/// lines yields three entries), so justification lookups are line-based.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line.
    pub line: u32,
    /// The comment text on that line (without `//`; block comment bodies
    /// keep their inner text as written).
    pub text: String,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comment lines in source order.
    pub comments: Vec<Comment>,
}

/// Multi-char operators, longest first so maximal munch applies.
const OPS: [&str; 24] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
}

impl Cursor<'_> {
    fn peek(&self, off: usize) -> Option<u8> {
        self.b.get(self.i + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.b.get(self.i).copied();
        if let Some(c) = c {
            self.i += 1;
            if c == b'\n' {
                self.line += 1;
            }
        }
        c
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `source` into tokens and comments. The lexer never fails: on a
/// malformed construct it degrades to single-char punct tokens, which at
/// worst makes a rule miss — never panic.
pub fn lex(source: &str) -> Lexed {
    let mut out = Lexed::default();
    let mut c = Cursor {
        b: source.as_bytes(),
        i: 0,
        line: 1,
    };
    // Shebang: `#!` on line 1 not followed by `[` is not an attribute.
    if c.b.starts_with(b"#!") && c.peek(2) != Some(b'[') {
        while let Some(ch) = c.peek(0) {
            if ch == b'\n' {
                break;
            }
            c.bump();
        }
    }
    while let Some(ch) = c.peek(0) {
        let line = c.line;
        match ch {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek(1) == Some(b'/') => lex_line_comment(&mut c, &mut out),
            b'/' if c.peek(1) == Some(b'*') => lex_block_comment(&mut c, &mut out),
            b'"' => lex_string(&mut c, &mut out, TokKind::Str),
            b'\'' => lex_tick(&mut c, &mut out),
            b'0'..=b'9' => lex_number(&mut c, &mut out),
            _ if is_ident_start(ch) => lex_ident_or_prefixed(&mut c, &mut out),
            _ => {
                // Maximal-munch operator match, falling back to one char.
                let rest = &c.b[c.i..];
                let op = OPS.iter().find(|op| rest.starts_with(op.as_bytes()));
                let text = match op {
                    Some(op) => {
                        for _ in 0..op.len() {
                            c.bump();
                        }
                        (*op).to_string()
                    }
                    None => {
                        c.bump();
                        (ch as char).to_string()
                    }
                };
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    out
}

fn lex_line_comment(c: &mut Cursor<'_>, out: &mut Lexed) {
    let line = c.line;
    let start = c.i + 2;
    c.bump();
    c.bump();
    while let Some(ch) = c.peek(0) {
        if ch == b'\n' {
            break;
        }
        c.bump();
    }
    out.comments.push(Comment {
        line,
        text: String::from_utf8_lossy(&c.b[start..c.i]).into_owned(),
    });
}

fn lex_block_comment(c: &mut Cursor<'_>, out: &mut Lexed) {
    c.bump();
    c.bump();
    let mut depth = 1u32;
    let mut line = c.line;
    let mut text = String::new();
    while let Some(ch) = c.peek(0) {
        if ch == b'*' && c.peek(1) == Some(b'/') {
            depth -= 1;
            c.bump();
            c.bump();
            if depth == 0 {
                break;
            }
            text.push_str("*/");
            continue;
        }
        if ch == b'/' && c.peek(1) == Some(b'*') {
            depth += 1;
            c.bump();
            c.bump();
            text.push_str("/*");
            continue;
        }
        c.bump();
        if ch == b'\n' {
            out.comments.push(Comment {
                line,
                text: std::mem::take(&mut text),
            });
            line = c.line;
        } else {
            text.push(ch as char);
        }
    }
    out.comments.push(Comment { line, text });
}

/// Plain or byte string starting at the opening quote.
fn lex_string(c: &mut Cursor<'_>, out: &mut Lexed, kind: TokKind) {
    let line = c.line;
    c.bump(); // opening quote
    let start = c.i;
    while let Some(ch) = c.peek(0) {
        if ch == b'\\' {
            c.bump();
            c.bump();
            continue;
        }
        if ch == b'"' {
            break;
        }
        c.bump();
    }
    let text = String::from_utf8_lossy(&c.b[start..c.i]).into_owned();
    c.bump(); // closing quote
    out.tokens.push(Token { kind, text, line });
}

/// Raw (byte) string with `hashes` `#`s, cursor on the opening quote.
fn lex_raw_string(c: &mut Cursor<'_>, out: &mut Lexed, hashes: usize, kind: TokKind) {
    let line = c.line;
    c.bump(); // opening quote
    let start = c.i;
    let mut end = c.i;
    while let Some(ch) = c.peek(0) {
        if ch == b'"' {
            let closed = (0..hashes).all(|k| c.peek(1 + k) == Some(b'#'));
            if closed {
                end = c.i;
                c.bump();
                for _ in 0..hashes {
                    c.bump();
                }
                break;
            }
        }
        c.bump();
        end = c.i;
    }
    out.tokens.push(Token {
        kind,
        text: String::from_utf8_lossy(&c.b[start..end]).into_owned(),
        line,
    });
}

/// `'` — either a char literal or a lifetime. Decided like rustc: an
/// identifier run closed by `'` is a char (`'x'`); unclosed, a lifetime
/// (`'static`). Escapes (`'\n'`, `'\u{41}'`) are always chars.
fn lex_tick(c: &mut Cursor<'_>, out: &mut Lexed) {
    let line = c.line;
    let next = c.peek(1);
    let is_char = match next {
        Some(b'\\') => true,
        Some(n) if is_ident_continue(n) => {
            // Scan the ident run; closed by `'` → char literal.
            let mut k = 1;
            while c.peek(k).is_some_and(is_ident_continue) {
                k += 1;
            }
            c.peek(k) == Some(b'\'')
        }
        Some(_) => c.peek(2) == Some(b'\''),
        None => false,
    };
    if is_char {
        c.bump(); // tick
        let start = c.i;
        while let Some(ch) = c.peek(0) {
            if ch == b'\\' {
                c.bump();
                c.bump();
                continue;
            }
            if ch == b'\'' {
                break;
            }
            c.bump();
        }
        let text = String::from_utf8_lossy(&c.b[start..c.i]).into_owned();
        c.bump(); // closing tick
        out.tokens.push(Token {
            kind: TokKind::Char,
            text,
            line,
        });
    } else {
        c.bump(); // tick
        let start = c.i;
        while c.peek(0).is_some_and(is_ident_continue) {
            c.bump();
        }
        out.tokens.push(Token {
            kind: TokKind::Lifetime,
            text: String::from_utf8_lossy(&c.b[start..c.i]).into_owned(),
            line,
        });
    }
}

fn lex_number(c: &mut Cursor<'_>, out: &mut Lexed) {
    let line = c.line;
    let start = c.i;
    let mut kind = TokKind::Int;
    if c.peek(0) == Some(b'0') && matches!(c.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
    {
        c.bump();
        c.bump();
        while c
            .peek(0)
            .is_some_and(|b| b.is_ascii_hexdigit() || b == b'_')
        {
            c.bump();
        }
    } else {
        while c.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            c.bump();
        }
        // Fractional part: `.` followed by a digit (not `..`, not `.ident`).
        if c.peek(0) == Some(b'.') && c.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            kind = TokKind::Float;
            c.bump();
            while c.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                c.bump();
            }
        }
        // Exponent: `e`/`E` [+/-] digits.
        if matches!(c.peek(0), Some(b'e' | b'E')) {
            let sign = usize::from(matches!(c.peek(1), Some(b'+' | b'-')));
            if c.peek(1 + sign).is_some_and(|b| b.is_ascii_digit()) {
                kind = TokKind::Float;
                c.bump();
                if sign == 1 {
                    c.bump();
                }
                while c.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                    c.bump();
                }
            }
        }
    }
    // Suffix (`u64`, `f32`, …) — an `f32`/`f64` suffix makes it a float.
    let suffix_start = c.i;
    while c.peek(0).is_some_and(is_ident_continue) {
        c.bump();
    }
    let suffix = &c.b[suffix_start..c.i];
    if suffix.starts_with(b"f32") || suffix.starts_with(b"f64") {
        kind = TokKind::Float;
    }
    out.tokens.push(Token {
        kind,
        text: String::from_utf8_lossy(&c.b[start..c.i]).into_owned(),
        line,
    });
}

/// Identifier, or one of the literal-prefix forms (`r"…"`, `r#"…"#`,
/// `b'x'`, `b"…"`, `br#"…"#`, `r#ident`).
fn lex_ident_or_prefixed(c: &mut Cursor<'_>, out: &mut Lexed) {
    let line = c.line;
    let start = c.i;
    // Literal prefixes are decided by lookahead before consuming the run.
    let rest = &c.b[c.i..];
    for (prefix, kind) in [(&b"r"[..], TokKind::RawStr), (&b"br"[..], TokKind::ByteStr)] {
        if rest.starts_with(prefix) {
            let mut k = prefix.len();
            let mut hashes = 0usize;
            while rest.get(k) == Some(&b'#') {
                hashes += 1;
                k += 1;
            }
            if rest.get(k) == Some(&b'"') {
                for _ in 0..(prefix.len() + hashes) {
                    c.bump();
                }
                lex_raw_string(c, out, hashes, kind);
                return;
            }
            // `r#ident` raw identifier.
            if *prefix == b"r"[..]
                && hashes == 1
                && rest.get(k).copied().is_some_and(is_ident_start)
            {
                c.bump();
                c.bump();
                let id_start = c.i;
                while c.peek(0).is_some_and(is_ident_continue) {
                    c.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&c.b[id_start..c.i]).into_owned(),
                    line,
                });
                return;
            }
        }
    }
    if rest.starts_with(b"b'") {
        c.bump(); // b
        c.bump(); // tick
        let lit_start = c.i;
        while let Some(ch) = c.peek(0) {
            if ch == b'\\' {
                c.bump();
                c.bump();
                continue;
            }
            if ch == b'\'' {
                break;
            }
            c.bump();
        }
        let text = String::from_utf8_lossy(&c.b[lit_start..c.i]).into_owned();
        c.bump();
        out.tokens.push(Token {
            kind: TokKind::Byte,
            text,
            line,
        });
        return;
    }
    if rest.starts_with(b"b\"") {
        c.bump(); // b
        lex_string(c, out, TokKind::ByteStr);
        return;
    }
    while c.peek(0).is_some_and(is_ident_continue) {
        c.bump();
    }
    out.tokens.push(Token {
        kind: TokKind::Ident,
        text: String::from_utf8_lossy(&c.b[start..c.i]).into_owned(),
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_hide_their_content_from_code() {
        let toks = kinds("let x = \".unwrap() and Instant::now()\";");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, "=".into()),
                (TokKind::Str, ".unwrap() and Instant::now()".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r####"let s = r#"quote " inside"#; let t = r"plain";"####);
        assert!(toks.contains(&(TokKind::RawStr, "quote \" inside".into())));
        assert!(toks.contains(&(TokKind::RawStr, "plain".into())));
        // The `r` prefix must not leak an ident token.
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "r"));
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let lexed = lex("a /* x /* y */ .unwrap() */ b\nc");
        let idents: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, vec!["a", "b", "c"]);
        assert_eq!(lexed.tokens[2].line, 2);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; let e = '\\u{41}'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, vec!["x", "\\n", "\\u{41}"]);
        // 'static is a lifetime even without a generic context.
        let toks = kinds("&'static str");
        assert!(toks.contains(&(TokKind::Lifetime, "static".into())));
    }

    #[test]
    fn byte_literals() {
        let toks = kinds(r#"let a = b'x'; let b = b"bytes"; let c = br"raw";"#);
        assert!(toks.contains(&(TokKind::Byte, "x".into())));
        assert!(toks.contains(&(TokKind::ByteStr, "bytes".into())));
        assert!(toks.contains(&(TokKind::ByteStr, "raw".into())));
    }

    #[test]
    fn shebang_is_skipped_but_inner_attr_is_not() {
        let lexed = lex("#!/usr/bin/env run-cargo-script\nfn main() {}\n");
        assert!(lexed.tokens[0].is_ident("fn"));
        assert_eq!(lexed.tokens[0].line, 2);
        let attr = lex("#![deny(missing_docs)]\n");
        assert!(attr.tokens[0].is_punct("#"));
    }

    #[test]
    fn numbers_and_floats() {
        assert_eq!(kinds("1.5")[0].0, TokKind::Float);
        assert_eq!(kinds("1e6")[0].0, TokKind::Float);
        assert_eq!(kinds("2.5e-3")[0].0, TokKind::Float);
        assert_eq!(kinds("7f64")[0].0, TokKind::Float);
        assert_eq!(kinds("1.0f32")[0].0, TokKind::Float);
        assert_eq!(kinds("42")[0].0, TokKind::Int);
        assert_eq!(kinds("0x1E")[0].0, TokKind::Int);
        assert_eq!(kinds("1u64")[0].0, TokKind::Int);
        // `1.max(2)` is an int, a dot, a method call.
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (TokKind::Int, "1".into()));
        assert_eq!(toks[1], (TokKind::Punct, ".".into()));
        // Ranges don't become floats.
        let toks = kinds("0..10");
        assert_eq!(toks[0].0, TokKind::Int);
        assert_eq!(toks[1], (TokKind::Punct, "..".into()));
    }

    #[test]
    fn operators_are_maximal_munch() {
        let toks = kinds("a %= b; c % d; e -> f; g::h");
        assert!(toks.contains(&(TokKind::Punct, "%=".into())));
        assert!(toks.contains(&(TokKind::Punct, "%".into())));
        assert!(toks.contains(&(TokKind::Punct, "->".into())));
        assert!(toks.contains(&(TokKind::Punct, "::".into())));
    }

    #[test]
    fn comments_preserve_text_per_line() {
        let lexed = lex("// lint:allow(no-unwrap) — reason\nx\n/* a\nb */\n");
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[0].text.contains("lint:allow(no-unwrap)"));
        assert_eq!(lexed.comments[1].line, 3);
        assert_eq!(lexed.comments[1].text, " a");
        assert_eq!(lexed.comments[2].line, 4);
        assert_eq!(lexed.comments[2].text, "b ");
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.contains(&(TokKind::Ident, "type".into())));
    }
}
