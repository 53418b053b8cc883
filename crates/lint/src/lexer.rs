//! A minimal hand-rolled Rust lexer.
//!
//! The analyzer has no access to `syn` (the build environment is
//! registry-less), so it works on a token stream that is just good
//! enough for the lint rules: identifiers, punctuation, and literals,
//! each tagged with its source line. Comments and string/char literals
//! are stripped — so a `HashMap` mentioned in a doc comment or a format
//! string can never trigger a diagnostic — but line comments are kept
//! around separately because suppression directives
//! (`// mg-lint: allow(CODE): reason`) live in them.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `for`, `use`, ...).
    Ident,
    /// Single punctuation character (`.`, `:`, `{`, `!`, ...).
    Punct,
    /// Number, string, char, or lifetime literal.
    Literal,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token text. Number literals keep their raw source text
    /// (`0.0f32`); string literals keep their text
    /// *with the surrounding quotes* so they can never collide with an
    /// identifier or punctuation match; char and lifetime literals are
    /// collapsed to an empty placeholder.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Classification used by the rule matchers.
    pub kind: TokKind,
}

/// One `//` comment with its line and whether any code token shares
/// that line (a directive that is alone on its line applies to the
/// *next* line; a trailing one applies to its own line).
#[derive(Debug, Clone)]
pub struct LineComment {
    /// Comment body with the leading slashes (and `!`) stripped.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Lexer output: the token stream plus the retained line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub toks: Vec<Tok>,
    /// All `//` comments in source order.
    pub comments: Vec<LineComment>,
}

impl Lexed {
    /// Whether any code token starts on `line`.
    pub fn line_has_code(&self, line: u32) -> bool {
        // Tokens are in line order; a binary search keeps the check
        // cheap even for pathological files.
        self.toks
            .binary_search_by(|t| t.line.cmp(&line))
            .map(|_| true)
            .unwrap_or_else(|i| {
                i < self.toks.len() && self.toks[i].line == line
                    || i > 0 && self.toks[i - 1].line == line
            })
    }
}

/// Lexes `src` into tokens and line comments.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let mut text = &src[start..i];
                while let Some(rest) = text.strip_prefix('/') {
                    text = rest;
                }
                let text = text.strip_prefix('!').unwrap_or(text);
                out.comments.push(LineComment {
                    text: text.trim().to_string(),
                    line,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comments, line-counted but discarded.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let tok_line = line;
                let start = i;
                i = skip_string(b, i, &mut line);
                out.toks.push(Tok {
                    text: src[start..i].to_string(),
                    line: tok_line,
                    kind: TokKind::Literal,
                });
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' => {
                let tok_line = line;
                i = skip_string(b, i + 1, &mut line);
                out.toks.push(Tok {
                    text: String::new(),
                    line: tok_line,
                    kind: TokKind::Literal,
                });
            }
            b'b' if i + 2 < b.len() && b[i + 1] == b'r' && raw_string_starts(b, i + 2) => {
                let tok_line = line;
                i = skip_raw_string(b, i + 2, &mut line);
                out.toks.push(Tok {
                    text: String::new(),
                    line: tok_line,
                    kind: TokKind::Literal,
                });
            }
            b'r' if i + 1 < b.len() && raw_string_starts(b, i + 1) => {
                let tok_line = line;
                i = skip_raw_string(b, i + 1, &mut line);
                out.toks.push(Tok {
                    text: String::new(),
                    line: tok_line,
                    kind: TokKind::Literal,
                });
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let tok_line = line;
                i = skip_quote(b, i, &mut line);
                out.toks.push(Tok {
                    text: String::new(),
                    line: tok_line,
                    kind: TokKind::Literal,
                });
            }
            c if c.is_ascii_digit() => {
                let tok_line = line;
                let start = i;
                i = skip_number(b, i);
                out.toks.push(Tok {
                    text: src[start..i].to_string(),
                    line: tok_line,
                    kind: TokKind::Literal,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.toks.push(Tok {
                    text: src[start..i].to_string(),
                    line,
                    kind: TokKind::Ident,
                });
            }
            _ => {
                out.toks.push(Tok {
                    text: (c as char).to_string(),
                    line,
                    kind: TokKind::Punct,
                });
                i += 1;
            }
        }
    }
    out
}

/// Whether position `i` (just past the `r` of `r"` / `br"`) starts the
/// hash-and-quote head of a raw string — as opposed to a raw identifier
/// like `r#type` or a plain identifier beginning with `r`.
fn raw_string_starts(b: &[u8], mut i: usize) -> bool {
    while i < b.len() && b[i] == b'#' {
        i += 1;
    }
    i < b.len() && b[i] == b'"'
}

/// Skips a raw string whose hash-and-quote head starts at `i` (just
/// past the `r`), returning the index just past the closing delimiter.
fn skip_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < b.len() && b[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Skips a `"..."` string with escapes, starting at the opening quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips either a lifetime or a char literal starting at the `'`.
fn skip_quote(b: &[u8], i: usize, line: &mut u32) -> usize {
    // Lifetime: 'ident not followed by a closing quote.
    if i + 1 < b.len() && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_') {
        let mut j = i + 1;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        if j < b.len() && b[j] == b'\'' && j == i + 2 {
            return j + 1; // 'a' — a one-char literal
        }
        if j >= b.len() || b[j] != b'\'' {
            return j; // 'a / 'static — a lifetime
        }
        return j + 1; // 'abc' is invalid Rust; consume defensively
    }
    // Char literal with escape or punctuation: '\n', '{', ...
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skips a numeric literal (integer, float, hex, suffixed).
fn skip_number(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    // Fractional part: only consume the dot when a digit follows, so
    // `1.max(2)` keeps its method-call dot.
    if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
        i += 1;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        // Exponent sign: 1.0e-5.
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') && b[i - 1].eq_ignore_ascii_case(&b'e') {
            i += 1;
            while i < b.len() && b[i].is_ascii_alphanumeric() {
                i += 1;
            }
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(String, u32)> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text, t.line))
            .collect()
    }

    #[test]
    fn strings_and_comments_never_leak_tokens() {
        let src = "// HashMap in a comment\nlet s = \"HashMap\"; /* HashMap */\nlet h = 1;\n";
        let ids = idents(src);
        assert!(ids.iter().all(|(t, _)| t != "HashMap"), "{ids:?}");
        assert_eq!(
            ids,
            vec![
                ("let".into(), 2),
                ("s".into(), 2),
                ("let".into(), 3),
                ("h".into(), 3)
            ]
        );
    }

    #[test]
    fn lifetimes_do_not_eat_the_rest_of_the_file() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\nlet n = '\\n';\nHashMap";
        let ids = idents(src);
        assert_eq!(ids.last().unwrap(), &("HashMap".to_string(), 4));
    }

    #[test]
    fn raw_strings_are_skipped() {
        let src = "let s = r#\"HashMap \" inner\"#;\nHashSet";
        let ids = idents(src);
        assert_eq!(ids.last().unwrap(), &("HashSet".to_string(), 2));
    }

    #[test]
    fn floats_keep_method_dots() {
        let src = "let x = 1.0e-5.max(2.0); y.iter()";
        let texts: Vec<String> = lex(src).toks.into_iter().map(|t| t.text).collect();
        assert!(texts.contains(&"max".to_string()));
        assert!(texts.contains(&"iter".to_string()));
    }

    #[test]
    fn comments_record_trailing_position() {
        let src = "let x = 1; // mg-lint: allow(P1): reason\n// alone\nlet y = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.line_has_code(1));
        assert!(!lexed.line_has_code(2));
        assert_eq!(lexed.comments[0].text, "mg-lint: allow(P1): reason");
    }

    #[test]
    fn nested_block_comments_track_lines() {
        let src = "/* a /* b\n c */ d\n*/\nlet z = 1;";
        let ids = idents(src);
        assert_eq!(ids[0], ("let".into(), 4));
    }
}
