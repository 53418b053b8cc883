//! Stage one of the analyzer: a per-file index over the token stream.
//!
//! Every file is indexed once into a [`FileIr`], which the passes
//! share:
//!
//! * an **item index**: every `fn` with its name, line, visibility and
//!   whether it sits inside test code (C1 pairs kernels by name);
//! * two **token masks**: inside `#[cfg(test)]` / `#[test]` code, and
//!   inside a `for`/`while`/`loop` body (P1 flags decodes that repeat
//!   per iteration).
//!
//! The index is built from the hand-rolled token stream: an honest
//! over-approximation, not a compiler front end.

use crate::lexer::{Tok, TokKind};

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
}

/// The per-file index shared by every pass.
#[derive(Debug, Default)]
pub struct FileIr {
    /// All functions, in source order (nested fns follow their parent).
    pub fns: Vec<FnItem>,
    /// Per-token mask: inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Per-token mask: inside a `for`/`while`/`loop` body.
    pub in_loop: Vec<bool>,
}

impl FileIr {
    /// Builds the index for one token stream.
    pub fn build(toks: &[Tok]) -> FileIr {
        let in_test = test_token_mask(toks);
        let fns = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokKind::Ident && t.text == "fn")
            .filter_map(|(i, t)| {
                // `fn` inside e.g. `Fn(` bounds has no name after it.
                let name = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident)?;
                let is_pub = i >= 1
                    && (toks[i - 1].text == "pub"
                        || (toks[i - 1].text == ")" && pub_before_paren(toks, i - 1)));
                Some(FnItem {
                    name: name.text.clone(),
                    line: t.line,
                    is_pub,
                    in_test: in_test[i],
                })
            })
            .collect();
        FileIr {
            fns,
            in_test,
            in_loop: loop_body_mask(toks),
        }
    }
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
    fn fn_index_finds_names_visibility_and_test_scope() {
        let src = "\
pub fn outer(x: u32) -> u32 {
    helper(x).max(1)
}
fn helper(x: u32) -> u32 { x + 1 }
pub(crate) fn shared() {}
fn takes(f: impl Fn(u32) -> u32) -> u32 { f(1) }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { outer(3); }
}
";
        let ir = FileIr::build(&lex(src).toks);
        let names: Vec<(&str, u32, bool, bool)> = ir
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.line, f.is_pub, f.in_test))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", 1, true, false),
                ("helper", 4, false, false),
                ("shared", 5, true, false),
                ("takes", 6, false, false),
                ("t", 10, false, true)
            ]
        );
    }
}
