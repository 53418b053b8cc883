//! Stage one of the analyzer: a per-file intermediate representation.
//!
//! The lexical rules of PR 4 matched token shapes line-locally. The
//! flow- and workspace-sensitive passes (D4, D5, C1) need more
//! structure, so every file is first indexed into a [`FileIr`]:
//!
//! * an **item index** — every `fn` with its body token span, its call
//!   sites, and whether it sits inside test code;
//! * **scope-aware bindings** — `let` bindings with a type fact attached
//!   (floating point, thread-count-derived), each valid until the end
//!   of its function body, so a float `acc` in one function does not
//!   taint an unrelated `acc` in another.
//!
//! The IR is still built from the hand-rolled token stream — it is an
//! honest over-approximation, not a compiler front end — but every
//! downstream pass shares this one indexing step.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "in", "let", "else", "move", "fn", "impl",
];

/// Identifiers whose call yields a thread-count-dependent value.
const THREAD_SOURCES: [&str; 4] = [
    "current_num_threads",
    "num_threads",
    "available_parallelism",
    "effective_threads",
];

/// Whether a token is a direct thread-count source: a
/// `current_num_threads`-style identifier or the `"MG_THREADS"` name.
pub fn is_thread_source(t: &Tok) -> bool {
    (t.kind == TokKind::Ident && THREAD_SOURCES.contains(&t.text.as_str()))
        || t.text == "\"MG_THREADS\""
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (the last path segment before the `(`).
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the callee name.
    pub tok: usize,
    /// Whether the call is a method call (`recv.name(..)`).
    pub is_method: bool,
}

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether `pub` appears directly before the `fn` (visibility
    /// modifiers with paths, `pub(crate)`, also count).
    pub is_pub: bool,
    /// Whether the item sits inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Body token range `[start, end)` including the braces; empty
    /// (`start == end`) for bodyless trait-method declarations.
    pub body: (usize, usize),
    /// Call sites inside the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// Whether token index `t` falls inside this function's body.
    pub fn contains(&self, t: usize) -> bool {
        self.body.0 <= t && t < self.body.1
    }
}

/// What the analyzer knows about a binding's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeFact {
    /// Floating-point value or container of them.
    Float,
    /// Value derived from the runtime thread count.
    ThreadDerived,
}

/// One tracked binding: a name, a fact, and the token range over which
/// the binding is visible.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound identifier.
    pub name: String,
    /// Token index where the binding is introduced.
    pub decl_tok: usize,
    /// 1-based line of the declaration.
    pub line: u32,
    /// Token index just past the end of the binding's scope.
    pub scope_end: usize,
    /// The fact attached to the binding.
    pub fact: TypeFact,
}

/// The per-file IR shared by every pass.
#[derive(Debug, Default)]
pub struct FileIr {
    /// All functions, in source order (nested fns follow their parent).
    pub fns: Vec<FnItem>,
    /// All tracked bindings, in declaration order.
    pub bindings: Vec<Binding>,
    /// Per-token mask: inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Per-token mask: inside a `for`/`while`/`loop` body.
    pub in_loop: Vec<bool>,
    /// For every `{`/`(`/`[` token index, the index of its closer.
    pub close_of: BTreeMap<usize, usize>,
}

impl FileIr {
    /// Builds the IR for one token stream.
    pub fn build(toks: &[Tok]) -> FileIr {
        let mut ir = FileIr {
            in_test: test_token_mask(toks),
            in_loop: loop_body_mask(toks),
            close_of: match_delims(toks),
            ..FileIr::default()
        };
        ir.index_fns(toks);
        ir.index_bindings(toks);
        ir
    }

    /// The strongest fact known for `name` at token index `use_tok`:
    /// the latest declaration whose scope contains the use site.
    pub fn binding_fact(&self, name: &str, use_tok: usize) -> Option<TypeFact> {
        self.bindings
            .iter()
            .rev()
            .find(|b| b.name == name && b.decl_tok <= use_tok && use_tok < b.scope_end)
            .map(|b| b.fact)
    }

    /// Index of the innermost function whose body contains token `t`.
    pub fn enclosing_fn(&self, t: usize) -> Option<usize> {
        // Innermost = the narrowest containing body span.
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.contains(t))
            .min_by_key(|(_, f)| f.body.1 - f.body.0)
            .map(|(i, _)| i)
    }

    fn index_fns(&mut self, toks: &[Tok]) {
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident || toks[i].text != "fn" {
                continue;
            }
            let Some(name_tok) = toks.get(i + 1) else {
                continue;
            };
            if name_tok.kind != TokKind::Ident {
                continue; // `fn` inside e.g. `Fn(` bounds
            }
            let is_pub = i >= 1
                && (toks[i - 1].text == "pub"
                    || (toks[i - 1].text == ")" && pub_before_paren(toks, i - 1)));
            // Find the body `{` (or a `;` ending a bodyless decl) past
            // the signature, skipping nested (), [], <> free-form.
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut body = (i, i); // empty
            while let Some(t) = toks.get(j) {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => break,
                    "{" if depth == 0 => {
                        let end = self.close_of.get(&j).copied().unwrap_or(toks.len());
                        body = (j, end + 1);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let calls = collect_calls(toks, body.0, body.1);
            self.fns.push(FnItem {
                name: name_tok.text.clone(),
                line: toks[i].line,
                is_pub,
                in_test: self.in_test[i],
                fn_tok: i,
                body,
                calls,
            });
        }
    }

    /// Collects float and thread-derived facts from `let` statements
    /// inside function bodies.
    fn index_bindings(&mut self, toks: &[Tok]) {
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident || toks[i].text != "let" {
                continue;
            }
            let mut n = i + 1;
            if toks.get(n).is_some_and(|t| t.text == "mut") {
                n += 1;
            }
            let Some(name) = toks.get(n) else { continue };
            if name.kind != TokKind::Ident {
                continue; // destructuring patterns are not tracked
            }
            // Statement span: up to the terminating `;` at delim depth 0.
            let mut depth = 0i32;
            let mut end = n + 1;
            while let Some(t) = toks.get(end) {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            let stmt = &toks[n + 1..end.min(toks.len())];
            let fact = if stmt.iter().any(is_thread_source)
                || stmt.iter().enumerate().any(|(o, t)| {
                    t.kind == TokKind::Ident
                        && self.binding_fact(&t.text, n + 1 + o) == Some(TypeFact::ThreadDerived)
                }) {
                Some(TypeFact::ThreadDerived)
            } else if stmt.iter().any(|t| {
                (t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
                    || (t.kind == TokKind::Literal && is_float_literal(&t.text))
            }) {
                Some(TypeFact::Float)
            } else {
                None
            };
            if let (Some(fact), Some(f)) = (fact, self.enclosing_fn(n)) {
                self.bindings.push(Binding {
                    name: name.text.clone(),
                    decl_tok: n,
                    line: name.line,
                    scope_end: self.fns[f].body.1,
                    fact,
                });
            }
        }
    }
}

/// Whether a number literal's raw text denotes a float.
pub fn is_float_literal(text: &str) -> bool {
    text.contains('.') || text.contains("f32") || text.contains("f64")
}

/// Whether `pub` (possibly `pub(crate)`) precedes the `)` at index `r`.
fn pub_before_paren(toks: &[Tok], r: usize) -> bool {
    let mut j = r;
    while j > 0 && toks[j].text != "(" {
        j -= 1;
        if r - j > 6 {
            return false;
        }
    }
    j >= 1 && toks[j - 1].text == "pub"
}

/// Collects call sites within `[start, end)`: identifiers directly
/// followed by `(` that are not keywords and not macro invocations.
fn collect_calls(toks: &[Tok], start: usize, end: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for i in start..end.min(toks.len()) {
        if toks[i].kind != TokKind::Ident
            || NON_CALL_KEYWORDS.contains(&toks[i].text.as_str())
            || toks.get(i + 1).is_none_or(|t| t.text != "(")
        {
            continue;
        }
        let is_method = i > 0 && toks[i - 1].text == ".";
        calls.push(CallSite {
            name: toks[i].text.clone(),
            line: toks[i].line,
            tok: i,
            is_method,
        });
    }
    calls
}

/// Matches every `{`/`(`/`[` opener to its closer index.
fn match_delims(toks: &[Tok]) -> BTreeMap<usize, usize> {
    let mut close_of = BTreeMap::new();
    let mut stack: Vec<(usize, &str)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "{" | "(" | "[" => stack.push((i, t.text.as_str())),
            "}" | ")" | "]" => {
                let want = match t.text.as_str() {
                    "}" => "{",
                    ")" => "(",
                    _ => "[",
                };
                // Pop to the matching opener kind, tolerating imbalance.
                while let Some((open, kind)) = stack.pop() {
                    if kind == want {
                        close_of.insert(open, i);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    close_of
}

/// Marks every token inside a `#[cfg(test)]` / `#[test]` item.
///
/// An attribute whose idents include `test` (and not `not` or
/// `cfg_attr`, which invert or conditionalize the meaning) exempts the
/// item it decorates: subsequent attributes are skipped, then the item
/// body is brace-matched (or the statement runs to its `;`).
fn test_token_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            let (attr_end, is_test) = scan_attribute(toks, i + 1);
            if is_test {
                let mut j = attr_end;
                // Skip further attributes on the same item.
                while toks.get(j).is_some_and(|t| t.text == "#")
                    && toks.get(j + 1).is_some_and(|t| t.text == "[")
                {
                    let (e, _) = scan_attribute(toks, j + 1);
                    j = e;
                }
                let end = item_end(toks, j);
                for m in mask.iter_mut().take(end).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Scans an attribute starting at its `[` index; returns the index just
/// past the matching `]` and whether the attribute marks test code.
fn scan_attribute(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_negation = false;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, has_test && !has_negation);
                }
            }
            "test" => has_test = true,
            "not" | "cfg_attr" => has_negation = true,
            _ => {}
        }
        j += 1;
    }
    (toks.len(), false)
}

/// Finds the end of the item starting at `j`: just past the matching
/// `}` of its first top-level brace, or just past a terminating `;`.
fn item_end(toks: &[Tok], j: usize) -> usize {
    let mut k = j;
    let mut paren = 0i32;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            ";" if paren == 0 => return k + 1,
            "{" if paren == 0 => {
                let mut depth = 0usize;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return k + 1;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return k;
            }
            _ => {}
        }
        k += 1;
    }
    k
}

/// Marks every token inside the brace body of a `for`, `while`, or
/// `loop` expression (nested bodies included). Used by P1 to tell a
/// one-off decode from one that repeats per iteration.
fn loop_body_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident
            || !matches!(toks[i].text.as_str(), "for" | "while" | "loop")
        {
            continue;
        }
        // Find the body's `{`: the first brace past the loop header,
        // skipping over parenthesized/bracketed header expressions.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut open = None;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break, // not a loop header after all
                _ => {}
            }
            if j - i > 60 {
                break;
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let mut brace = 0usize;
        let mut k = open;
        while let Some(t) = toks.get(k) {
            match t.text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                _ => {}
            }
            mask[k] = true;
            k += 1;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_index_finds_bodies_and_calls() {
        let src = "\
pub fn outer(x: u32) -> u32 {
    helper(x).max(1)
}
fn helper(x: u32) -> u32 { x + 1 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { outer(3); }
}
";
        let ir = FileIr::build(&lex(src).toks);
        let names: Vec<(&str, bool, bool)> = ir
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.in_test))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", true, false),
                ("helper", false, false),
                ("t", false, true)
            ]
        );
        let outer = &ir.fns[0];
        assert_eq!(outer.calls.len(), 2);
        assert_eq!(outer.calls[0].name, "helper");
        assert!(!outer.calls[0].is_method);
        assert_eq!(outer.calls[1].name, "max");
        assert!(outer.calls[1].is_method);
    }

    #[test]
    fn bindings_are_scoped_to_their_function() {
        let src = "\
pub fn a() {
    let m = 0.5f32;
    m.sqrt();
}
pub fn b(m: &[u32]) -> usize { m.len() }
";
        let ir = FileIr::build(&lex(src).toks);
        let toks = lex(src).toks;
        // Inside `a`, `m` is a float...
        let use_in_a = toks
            .iter()
            .position(|t| t.text == "sqrt")
            .expect("sqrt tok");
        assert_eq!(ir.binding_fact("m", use_in_a - 2), Some(TypeFact::Float));
        // ...but the unrelated `m` in `b` is not.
        let use_in_b = toks.iter().rposition(|t| t.text == "len").expect("len tok");
        assert_eq!(ir.binding_fact("m", use_in_b - 2), None);
    }

    #[test]
    fn thread_derived_facts_propagate_through_bindings() {
        let src = "\
pub fn f(xs: &[f32]) -> usize {
    let t = rayon::current_num_threads();
    let chunk = xs.len().div_ceil(t);
    chunk
}
";
        let ir = FileIr::build(&lex(src).toks);
        let toks = lex(src).toks;
        let last = toks.len() - 2;
        assert_eq!(
            ir.binding_fact("chunk", last),
            Some(TypeFact::ThreadDerived)
        );
        assert_eq!(ir.binding_fact("t", last), Some(TypeFact::ThreadDerived));
    }

    #[test]
    fn float_facts_come_from_literals_and_ascriptions() {
        let src = "\
pub fn f() {
    let mut acc = 0.0f32;
    let n: f64 = one();
    let k = 3;
    acc += 1.0;
    let _ = (acc, n, k);
}
";
        let ir = FileIr::build(&lex(src).toks);
        let last = lex(src).toks.len() - 2;
        assert_eq!(ir.binding_fact("acc", last), Some(TypeFact::Float));
        assert_eq!(ir.binding_fact("n", last), Some(TypeFact::Float));
        assert_eq!(ir.binding_fact("k", last), None);
    }
}
