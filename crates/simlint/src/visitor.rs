//! Item- and call-level views over a token stream.
//!
//! The rules need structural facts the flat token stream does not give
//! directly: where each `fn` item's body starts and ends (for the
//! call-graph rules), which identifiers are *called* inside a range
//! (ident immediately applied with `(`), which fields are *written*
//! (the dataflow layer the wake-poke and snapshot-coverage rules share),
//! and which token ranges belong to `#[cfg(test)]` modules (in-source
//! unit tests legitimately reach into kernel state without poking). All
//! are recovered here by brace matching — no full parse.

use crate::lexer::{Tok, TokKind};

/// One `fn` item: its name and the token ranges of its signature and
/// body.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword; `sig_start..body_start` covers
    /// the whole signature (name, generics, parameters, return type).
    pub sig_start: usize,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index one past the body's closing `}`.
    pub body_end: usize,
}

/// A call site: an identifier applied with `(`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (the last path segment: `fsops::close_common(..)`
    /// records `close_common`).
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// Extracts every `fn` item (free functions and methods alike) from a
/// token stream. Bodiless declarations (trait methods ending in `;`)
/// are skipped.
pub fn fn_items(toks: &[Tok]) -> Vec<FnItem> {
    let mut items = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // Scan forward for the body's `{`, skipping the parameter
            // list and any return type / where clause. A `;` first means
            // a declaration without a body.
            let mut j = i + 2;
            let mut paren_depth = 0usize;
            let mut body_start = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("(") {
                    paren_depth += 1;
                } else if t.is_punct(")") {
                    paren_depth = paren_depth.saturating_sub(1);
                } else if paren_depth == 0 && t.is_punct("{") {
                    body_start = Some(j);
                    break;
                } else if paren_depth == 0 && t.is_punct(";") {
                    break;
                }
                j += 1;
            }
            if let Some(start) = body_start {
                let end = match_brace(toks, start);
                items.push(FnItem {
                    name,
                    line,
                    sig_start: i,
                    body_start: start,
                    body_end: end,
                });
                // Continue scanning *inside* the body too: nested fns
                // and closures containing fns are still fns.
                i = start + 1;
                continue;
            }
        }
        i += 1;
    }
    items
}

/// One field write: `expr.field = ...`, `expr.field += ...`, or a
/// mutating method applied to a field (`expr.field.insert(..)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldWrite {
    /// The written field's name.
    pub field: String,
    /// 1-based line of the write.
    pub line: u32,
    /// Token index of the field identifier.
    pub idx: usize,
    /// For direct assignments, the method is `None`; for mutations
    /// through a method call (`.field.push(..)`), the method's name.
    pub via_method: Option<String>,
}

/// Token ranges (start..end, token indices) of `#[cfg(test)] mod ... {}`
/// bodies. The dataflow rules skip these: in-source unit tests poke
/// kernel state directly by design.
pub fn test_mod_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 3 < toks.len() {
        let is_cfg_test = toks[i].is_ident("cfg")
            && toks[i + 1].is_punct("(")
            && toks[i + 2].is_ident("test")
            && toks[i + 3].is_punct(")");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan a short window forward for `mod <name> {` (skipping the
        // closing `]` of the attribute and any visibility keywords).
        let mut j = i + 4;
        let window_end = (j + 8).min(toks.len());
        while j < window_end {
            if toks[j].is_ident("mod") {
                // `mod name {` or `mod name;` (out-of-line test mods
                // have no body here).
                if let Some(open) = toks.get(j + 2) {
                    if open.is_punct("{") {
                        let end = match_brace(toks, j + 2);
                        ranges.push((j + 2, end));
                        j = end;
                    }
                }
                break;
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
    ranges
}

/// Is token index `idx` inside any of `ranges`?
pub fn in_ranges(idx: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(s, e)| idx >= s && idx < e)
}

/// Mutating container/collection methods: applying one of these to a
/// field counts as writing that field.
const MUTATORS: [&str; 14] = [
    "insert",
    "remove",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_first",
    "pop_front",
    "pop_back",
    "extend",
    "clear",
    "drain",
    "retain",
    "append",
];

/// Every field write in `toks[start..end]`.
///
/// Three shapes are recognised, all anchored on `.` + identifier:
///
/// * `x.f = v`   — plain assignment (`==` comparison is excluded);
/// * `x.f += v`  — compound assignment (any `op=` shape; the lexer
///   emits multi-character operators one `Punct` at a time);
/// * `x.f.m(..)` — mutation through a method in [`MUTATORS`].
///
/// Reads (`let y = x.f`, `x.f == v`, `x.f.len()`) are not writes.
pub fn field_writes(toks: &[Tok], start: usize, end: usize) -> Vec<FieldWrite> {
    let mut out = Vec::new();
    let end = end.min(toks.len());
    for i in start..end {
        if !(toks[i].kind == TokKind::Ident && i > start && toks[i - 1].is_punct(".")) {
            continue;
        }
        let field = toks[i].text.clone();
        let line = toks[i].line;
        // `.f.m(` — a mutator applied directly to the field.
        if let (Some(dot), Some(m), Some(paren)) =
            (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
        {
            if dot.is_punct(".")
                && m.kind == TokKind::Ident
                && paren.is_punct("(")
                && MUTATORS.contains(&m.text.as_str())
            {
                out.push(FieldWrite {
                    field,
                    line,
                    idx: i,
                    via_method: Some(m.text.clone()),
                });
                continue;
            }
        }
        // `.f =` (not `==`) or `.f <op>= `.
        let Some(n1) = toks.get(i + 1) else { continue };
        let direct = n1.is_punct("=") && !toks.get(i + 2).is_some_and(|t| t.is_punct("="));
        let compound = {
            const OPS: [&str; 9] = ["+", "-", "*", "/", "%", "|", "&", "^", "<"];
            let one = OPS.contains(&n1.text.as_str())
                && n1.kind == TokKind::Punct
                && toks.get(i + 2).is_some_and(|t| t.is_punct("="));
            // `<<=` / `>>=`: two shift chars then `=`.
            let two = (n1.is_punct("<") || n1.is_punct(">"))
                && toks.get(i + 2).is_some_and(|t| t.text == n1.text)
                && toks.get(i + 3).is_some_and(|t| t.is_punct("="));
            // `x.f < y` comparison guard: `<` followed by `=` is `<=`,
            // a comparison, not an assignment — require the token after
            // the `=` of a single-char compound not to make it `<=`.
            if one && (n1.is_punct("<")) {
                two
            } else {
                one || two
            }
        };
        if direct || compound {
            out.push(FieldWrite {
                field,
                line,
                idx: i,
                via_method: None,
            });
        }
    }
    out
}

/// Every identifier mentioned as a field/method access (`.name`) in
/// `toks[start..end]`, deduplicated. The snapshot-coverage rule treats
/// a mention anywhere in the builder's transitive body as coverage.
pub fn dot_mentions(toks: &[Tok], start: usize, end: usize) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    let end = end.min(toks.len());
    for i in start.max(1)..end {
        if toks[i].kind == TokKind::Ident && toks[i - 1].is_punct(".") {
            out.insert(toks[i].text.clone());
        }
    }
    out
}

/// Index one past the `}` matching the `{` at `open`.
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct("{") {
            depth += 1;
        } else if toks[i].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Every call site in `toks[range]`: an identifier directly followed by
/// `(`. Macro invocations (`name!(...)`) and `fn` definitions are not
/// calls and are excluded; `a.method(..)` and `path::func(..)` both
/// record the final name.
pub fn calls_in(toks: &[Tok], start: usize, end: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    let end = end.min(toks.len());
    for i in start..end {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // Definition, not a call.
        if i > start && toks[i - 1].is_ident("fn") {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if next.is_punct("(") {
            calls.push(CallSite {
                name: toks[i].text.clone(),
                line: toks[i].line,
            });
        }
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_functions_and_their_calls() {
        let toks = lex(
            "pub fn alpha(w: &mut World) -> u32 { beta(w); w.charge(1, 2); 0 }\n\
             fn beta(w: &mut World) { format!(\"no{}\", 1); }\n\
             trait T { fn decl(&self); }\n",
        );
        let items = fn_items(&toks);
        let names: Vec<&str> = items.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);

        let alpha = &items[0];
        let calls = calls_in(&toks, alpha.body_start, alpha.body_end);
        let called: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert!(called.contains(&"beta"));
        assert!(called.contains(&"charge"));

        let beta = &items[1];
        let calls = calls_in(&toks, beta.body_start, beta.body_end);
        // `format!` is a macro, not a call — but the linter sees the
        // ident before `!` has no `(` directly after it.
        assert!(calls.iter().all(|c| c.name != "format"));
    }

    #[test]
    fn signature_range_covers_the_parameter_list() {
        let toks = lex("pub fn sys_open(cx: &mut SysCtx<'_>, path: &str) -> SyscallResult { x() }");
        let items = fn_items(&toks);
        assert_eq!(items.len(), 1);
        let sig = &toks[items[0].sig_start..items[0].body_start];
        assert!(sig.iter().any(|t| t.is_ident("SysCtx")));
        assert!(sig.iter().all(|t| !t.is_ident("x")), "body excluded");
    }

    #[test]
    fn nested_functions_are_found() {
        let toks = lex("fn outer() { fn inner() { charge(); } inner(); }");
        let items = fn_items(&toks);
        let names: Vec<&str> = items.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn field_writes_cover_assignment_shapes() {
        let toks = lex("fn f(m: &mut Machine) {\n\
                 m.busy = t;\n\
                 p.sig_pending |= bit;\n\
                 m.peak <<= 1;\n\
                 m.timers.push(x);\n\
                 if m.now == t { read(m.now); }\n\
                 let _ = m.run_queue.len();\n\
                 if m.depth <= 3 { }\n\
             }");
        let w = field_writes(&toks, 0, toks.len());
        let names: Vec<(&str, Option<&str>)> = w
            .iter()
            .map(|f| (f.field.as_str(), f.via_method.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("busy", None),
                ("sig_pending", None),
                ("peak", None),
                ("timers", Some("push")),
            ]
        );
        assert_eq!(w[0].line, 2);
    }

    #[test]
    fn reads_and_comparisons_are_not_writes() {
        let toks = lex("fn f() { if a.state == Runnable { b.push(a.state); } let x = c.f; }");
        assert!(field_writes(&toks, 0, toks.len()).is_empty());
    }

    #[test]
    fn test_mod_ranges_cover_cfg_test_modules() {
        let toks = lex("fn shipped() { p.state = Runnable; }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { p.state = Runnable; }\n\
             }\n");
        let ranges = test_mod_ranges(&toks);
        assert_eq!(ranges.len(), 1);
        let writes = field_writes(&toks, 0, toks.len());
        assert_eq!(writes.len(), 2);
        assert!(!in_ranges(writes[0].idx, &ranges), "shipped write outside");
        assert!(in_ranges(writes[1].idx, &ranges), "test write inside");
    }

    #[test]
    fn dot_mentions_collect_field_accesses() {
        let toks = lex("fn snap(w: &World) { go(w.finished.len(), m.stats, fs_hash(&m.fs)); }");
        let m = dot_mentions(&toks, 0, toks.len());
        for f in ["finished", "stats", "fs", "len"] {
            assert!(m.contains(f), "missing {f}");
        }
        assert!(!m.contains("snap"));
    }

    #[test]
    fn where_clauses_and_return_types_are_skipped() {
        let toks = lex("fn g<T: Clone>(x: T) -> Vec<T> where T: Default { work(x) }");
        let items = fn_items(&toks);
        assert_eq!(items.len(), 1);
        let calls = calls_in(&toks, items[0].body_start, items[0].body_end);
        assert_eq!(
            calls,
            vec![CallSite {
                name: "work".into(),
                line: 1
            }]
        );
    }
}
