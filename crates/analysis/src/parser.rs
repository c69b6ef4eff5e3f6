//! A brace/scope-aware function parser over the token stream.
//!
//! The v1 rules are per-line lexical checks; the v2 rules (R10–R13) need
//! *function scope*: which parameters a function takes (and their types),
//! where its body starts and ends, and which calls it makes. This module
//! recovers exactly that from the [`crate::lexer`] token stream — no full
//! AST, no `syn` (offline build), just balanced-delimiter walking.
//!
//! The recovered model is deliberately conservative:
//!
//! * nested `fn` items are reported as their own entries *and* remain
//!   inside the enclosing body's token range (a scan of the outer body
//!   sees the inner tokens too — over-approximation, never a miss);
//! * closures are not functions; their tokens belong to the enclosing
//!   body;
//! * a call is "identifier directly followed by `(`", plus the
//!   `receiver.method(` form — enum-variant constructors match too,
//!   which is harmless for the rules built on top (they resolve names
//!   against known workspace functions).

use crate::lexer::{self, LexedFile, Tok, TokKind};

/// One function parameter: the binding name and the identifiers that
/// appear in its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name (`self` for receiver parameters; the first pattern
    /// identifier for destructuring patterns).
    pub name: String,
    /// Every identifier appearing in the declared type, in order.
    pub type_idents: Vec<String>,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Parameters, in declaration order.
    pub params: Vec<Param>,
    /// Token indices of the body's `{` and matching `}`; `None` for
    /// bodiless trait-method signatures.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the body's closing brace (or of the signature for
    /// bodiless items).
    pub end_line: usize,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called name (the method name for `receiver.method(...)`).
    pub name: String,
    /// Token index of the name.
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
    /// Whether this is a method call (`.name(`) rather than a free call.
    pub method: bool,
}

/// A fully parsed source file: the lexed stream plus the recovered
/// function structure, ready for both the per-file and the global rules.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Lexed token stream and per-line comments.
    pub lex: LexedFile,
    /// `#[cfg(test)]` line regions.
    pub test_regions: Vec<(usize, usize)>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnInfo>,
}

impl ParsedFile {
    /// Whether `line` falls inside a `#[cfg(test)]` region.
    pub fn in_test(&self, line: usize) -> bool {
        lexer::in_regions(&self.test_regions, line)
    }
}

/// Lexes and parses one source file.
pub fn parse_source(path: &str, source: &str) -> ParsedFile {
    let lex = lexer::lex(source);
    let test_regions = lexer::test_regions(&lex);
    let fns = functions(&lex.tokens);
    ParsedFile {
        path: path.to_string(),
        lex,
        test_regions,
        fns,
    }
}

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "in", "as", "let", "else", "move",
    "where", "impl", "dyn", "pub", "use", "mod",
];

/// Parses every `fn` item out of the token stream.
pub fn functions(toks: &[Tok]) -> Vec<FnInfo> {
    let mut out = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        if !(toks[k].kind == TokKind::Ident && toks[k].text == "fn") {
            k += 1;
            continue;
        }
        let Some(name_tok) = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident) else {
            k += 1;
            continue;
        };
        let name = name_tok.text.clone();
        let start_line = toks[k].line;
        let mut j = k + 2;
        // Skip generics `<...>` (the lexer never fuses `>>`, and `->` is
        // a single token, so naive depth counting is sound here).
        if toks.get(j).map(|t| t.text == "<").unwrap_or(false) {
            let mut depth = 0i64;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !toks.get(j).map(|t| t.text == "(").unwrap_or(false) {
            k += 1;
            continue;
        }
        let (params, after_params) = parse_params(toks, j);
        // Find the body `{` or the signature-terminating `;`. Return
        // types and where-clauses contain no braces, so the first hit is
        // the right one.
        let mut body = None;
        let mut end_line = toks
            .get(after_params.saturating_sub(1))
            .map_or(start_line, |t| t.line);
        let mut m = after_params;
        while m < toks.len() {
            match toks[m].text.as_str() {
                "{" => {
                    let close = match_brace(toks, m);
                    end_line = toks.get(close).map_or(end_line, |t| t.line);
                    body = Some((m, close));
                    break;
                }
                ";" => break,
                _ => m += 1,
            }
        }
        out.push(FnInfo {
            name,
            params,
            body,
            start_line,
            end_line,
        });
        k += 2;
    }
    out
}

/// Parses the parameter list starting at the `(` token index; returns the
/// parameters and the index just past the closing `)`.
fn parse_params(toks: &[Tok], open: usize) -> (Vec<Param>, usize) {
    let mut params = Vec::new();
    let mut paren: i64 = 0;
    let mut angle: i64 = 0;
    let mut bracket: i64 = 0;
    let mut current: Vec<&Tok> = Vec::new();
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "(" => {
                paren += 1;
                if paren > 1 {
                    current.push(t);
                }
            }
            ")" => {
                paren -= 1;
                if paren == 0 {
                    if !current.is_empty() {
                        params.push(parse_one_param(&current));
                    }
                    return (params, j + 1);
                }
                current.push(t);
            }
            "<" => {
                angle += 1;
                current.push(t);
            }
            ">" => {
                angle -= 1;
                current.push(t);
            }
            "[" => {
                bracket += 1;
                current.push(t);
            }
            "]" => {
                bracket -= 1;
                current.push(t);
            }
            "," if paren == 1 && angle <= 0 && bracket == 0 => {
                if !current.is_empty() {
                    params.push(parse_one_param(&current));
                }
                current.clear();
                // Generic-depth bookkeeping can drift on `Fn(..) -> ..`
                // bounds; reset at each top-level comma so one odd type
                // cannot swallow the rest of the list.
                angle = 0;
            }
            _ => current.push(t),
        }
        j += 1;
    }
    (params, j)
}

/// Parses one comma-separated parameter: binding name before the
/// top-level `:`, type identifiers after it.
fn parse_one_param(toks: &[&Tok]) -> Param {
    let colon = toks.iter().position(|t| t.text == ":");
    let name = toks[..colon.unwrap_or(toks.len())]
        .iter()
        .find(|t| t.kind == TokKind::Ident && t.text != "mut")
        .map(|t| t.text.clone())
        .unwrap_or_else(|| "_".to_string());
    let type_idents = match colon {
        Some(c) => toks[c + 1..]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect(),
        None => Vec::new(), // `self` receivers carry no written type
    };
    Param { name, type_idents }
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Extracts every call site in `toks[range.0..=range.1]`.
pub fn calls_in(toks: &[Tok], range: (usize, usize)) -> Vec<Call> {
    let mut out = Vec::new();
    let (lo, hi) = range;
    let mut k = lo;
    while k <= hi && k < toks.len() {
        let t = &toks[k];
        if t.kind == TokKind::Ident && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            // `name (`, `name::<..>(`, or `.name(` — but not `fn name(`
            // and not `name!(` (macros are scanned by the macro rules).
            let prev_is_fn = k > 0 && toks[k - 1].text == "fn";
            let method = k > 0 && toks[k - 1].text == ".";
            let mut n = k + 1;
            if toks.get(n).map(|t| t.text == "::").unwrap_or(false)
                && toks.get(n + 1).map(|t| t.text == "<").unwrap_or(false)
            {
                let mut depth = 0i64;
                while n < toks.len() {
                    match toks[n].text.as_str() {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                n += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    n += 1;
                }
            }
            let is_call = toks.get(n).map(|t| t.text == "(").unwrap_or(false)
                && !prev_is_fn
                && !toks.get(k + 1).map(|t| t.text == "!").unwrap_or(false);
            if is_call {
                out.push(Call {
                    name: t.text.clone(),
                    tok: k,
                    line: t.line,
                    method,
                });
            }
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_fn_names_params_and_bodies() {
        let src = "pub fn read_loop(conn_rx: Receiver<TcpStream>, stop: Arc<AtomicBool>) -> u64 {\n    let x = 1;\n    x\n}\nfn sig_only(a: u8);\n";
        let lexed = lex(src);
        let fns = functions(&lexed.tokens);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "read_loop");
        assert_eq!(fns[0].params.len(), 2);
        assert_eq!(fns[0].params[0].name, "conn_rx");
        assert_eq!(
            fns[0].params[0].type_idents,
            vec!["Receiver".to_string(), "TcpStream".to_string()]
        );
        assert_eq!(fns[0].params[1].name, "stop");
        assert!(fns[0].body.is_some());
        assert_eq!(fns[0].start_line, 1);
        assert_eq!(fns[0].end_line, 4);
        assert_eq!(fns[1].name, "sig_only");
        assert!(fns[1].body.is_none());
    }

    #[test]
    fn generic_params_do_not_split_on_inner_commas() {
        let src = "fn f(map: HashMap<u64, Conn>, n: usize) {}\n";
        let fns = functions(&lex(src).tokens);
        assert_eq!(fns[0].params.len(), 2);
        assert_eq!(
            fns[0].params[0].type_idents,
            vec!["HashMap".to_string(), "u64".to_string(), "Conn".to_string()]
        );
    }

    #[test]
    fn self_receiver_and_pattern_params() {
        let src = "impl X { fn m(&self, key: &SecretBytes) -> usize { key.len() } }\n";
        let fns = functions(&lex(src).tokens);
        assert_eq!(fns[0].params[0].name, "self");
        assert!(fns[0].params[0].type_idents.is_empty());
        assert_eq!(fns[0].params[1].name, "key");
        assert_eq!(
            fns[0].params[1].type_idents,
            vec!["SecretBytes".to_string()]
        );
    }

    #[test]
    fn calls_found_macros_and_defs_excluded() {
        let src = "fn f() { g(); h.method(); format!(\"x\"); if x() {} }\nfn g() {}\n";
        let lexed = lex(src);
        let fns = functions(&lexed.tokens);
        let body = fns[0].body.unwrap();
        let calls = calls_in(&lexed.tokens, body);
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"g"));
        assert!(names.contains(&"method"));
        assert!(names.contains(&"x"));
        assert!(!names.contains(&"format"));
        assert!(calls.iter().find(|c| c.name == "method").unwrap().method);
    }

    #[test]
    fn generic_fn_and_turbofish() {
        let src = "fn f<T: Clone>(x: T) { y::<u64>(); }\n";
        let lexed = lex(src);
        let fns = functions(&lexed.tokens);
        assert_eq!(fns[0].name, "f");
        assert_eq!(fns[0].params[0].name, "x");
        let calls = calls_in(&lexed.tokens, fns[0].body.unwrap());
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "y");
    }

    #[test]
    fn nested_fn_is_its_own_entry() {
        let src = "fn outer() {\n    fn inner(k: Key) {}\n    inner(k());\n}\n";
        let fns = functions(&lex(src).tokens);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[1].name, "inner");
    }
}
