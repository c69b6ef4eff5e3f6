//! R10: intra-procedural secret taint.
//!
//! R4/R5 are name-based: they catch `format!("{k_u:?}")` because `k_u`
//! is on a deny list. They miss laundering through a binding:
//!
//! ```text
//! let k = key.expose();
//! debug!("{k:?}");          // `k` is not on any name list
//! ```
//!
//! R10 closes that gap with a conservative, declaration-order dataflow
//! pass over each function body:
//!
//! * **Sources** — parameters whose declared type names a
//!   [`crate::rules::SECRET_TYPES`] entry; `let` bindings whose
//!   right-hand side mentions a secret type, an already-tainted binding,
//!   or an expose-family call (`expose` / `expose_mut` / `into_exposed`
//!   — only secret wrappers have those).
//! * **Propagation** — a tainted identifier anywhere in a `let`
//!   right-hand side taints the new binding (method chains included:
//!   `let k = key.expose().to_vec()` stays tainted).
//! * **Sanitizers** — a right-hand side that calls a declassifying
//!   transform ([`SANITIZERS`]: length, ciphertext-producing crypto,
//!   digests, constant-time compares) is *not* tainted: its output is
//!   public by design. Rebinding a name to a clean value clears taint.
//! * **Sinks** — format/log macros ([`SINK_MACROS`]), telemetry
//!   recorders, and serialization calls ([`SINK_CALLS`]). A tainted
//!   identifier reaching a sink — as a direct argument, a `{name}`
//!   interpolation, or a method receiver (`k.to_json()`) — is a finding,
//!   unless the only use is a sanitizing accessor (`k.len()`).
//!
//! The pass is intra-procedural and single-sweep (taint flows down the
//! function in declaration order); it over-approximates inside nested
//! blocks and never tracks flow *between* functions — cross-function
//! secret movement is what the R1–R3 layer rules and the type system
//! already police. Test regions are exempt: tests format secrets
//! precisely to assert redaction.

use crate::lexer::{Tok, TokKind};
use crate::parser::ParsedFile;
use crate::rules::SECRET_TYPES;
use std::collections::BTreeSet;

/// Methods that move secret bytes out of their zeroizing wrapper. Only
/// secret types expose these names in this workspace, so a call taints
/// unconditionally.
pub const EXPOSE_METHODS: &[&str] = &["expose", "expose_mut", "into_exposed"];

/// Secret types that do *not* seed taint. `SecureRng` guards its seed
/// and state (R4 still bans `Debug` on it), but everything it *returns*
/// — nonces, ciphertext randomness — is public by design; tainting its
/// callers would flag every benchmark that threads an RNG through its
/// measurement loop. State extraction still taints via [`EXPOSE_METHODS`].
pub const TAINT_EXEMPT_TYPES: &[&str] = &["SecureRng"];

/// Declassifying transforms: their output is public by construction
/// (lengths, ciphertext, digests, constant-time verdicts), so a
/// right-hand side routed through one does not taint its binding.
pub const SANITIZERS: &[&str] = &[
    "len",
    "is_empty",
    "seal",
    "seal_bytes",
    "open",
    "encrypt",
    "det_encrypt",
    "rsa_encrypt",
    "pseudonymize",
    "pseudonymize_item",
    "digest",
    "sha256",
    "hmac",
    "fingerprint",
    "ct_eq",
    "verify_tag",
    "redacted",
    // The UA/IA layer transforms are the system's declassifiers: their
    // outputs are pseudonymized / re-encrypted by construction, which is
    // exactly the property the unlinkability suites verify end-to-end.
    "process",
    "process_post",
    "process_get",
];

/// Format/log macros: anything reaching one is rendered into text that
/// can end up in logs or panics.
pub const SINK_MACROS: &[&str] = &[
    "format", "print", "println", "eprint", "eprintln", "write", "writeln", "panic", "debug",
    "info", "warn", "error", "trace", "log",
];

/// Call sinks: telemetry recorders and serialization — each moves its
/// argument toward an export surface that leaves the trust boundary.
pub const SINK_CALLS: &[&str] = &[
    "record_duration",
    "to_json",
    "to_value",
    "serialize",
    "export_prometheus",
];

/// A candidate R10 violation (the caller routes it through the
/// suppression directive machinery).
#[derive(Debug)]
pub struct TaintHit {
    /// 1-based line of the sink.
    pub line: usize,
    /// What leaked where.
    pub message: String,
}

/// Runs the taint pass over every function in `file`.
pub fn analyze(file: &ParsedFile) -> Vec<TaintHit> {
    let mut out = Vec::new();
    // Integration-test files format secrets on purpose (to assert they
    // redact); only library/binary sources are held to R10.
    if file.path.contains("/tests/") || file.path.starts_with("tests/") {
        return out;
    }
    for f in &file.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if file.in_test(f.start_line) {
            continue;
        }
        let toks = &file.lex.tokens;
        let mut tainted: BTreeSet<String> = BTreeSet::new();
        for p in &f.params {
            if p.name != "self" && p.type_idents.iter().any(|t| taint_source_type(t)) {
                tainted.insert(p.name.clone());
            }
        }
        let mut k = open;
        while k <= close {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                k += 1;
                continue;
            }
            // `let [mut] name … = rhs ;` — (re)bind taint from the rhs,
            // then resume the walk *inside* the rhs: sinks live there too
            // (`let _ = format!("{k:?}");`).
            if t.text == "let" {
                if let Some((name, rhs, _next)) = parse_let(toks, k, close) {
                    if rhs_tainted(toks, &rhs, &tainted) {
                        tainted.insert(name);
                    } else {
                        tainted.remove(&name);
                    }
                    k = rhs.0;
                    continue;
                }
            }
            // Macro sink: `name ! ( … )`.
            if SINK_MACROS.contains(&t.text.as_str())
                && toks.get(k + 1).map(|t| t.text == "!").unwrap_or(false)
                && toks
                    .get(k + 2)
                    .map(|t| matches!(t.text.as_str(), "(" | "[" | "{"))
                    .unwrap_or(false)
            {
                let end = scan_args(toks, k + 2, close, &tainted, &mut |line, name| {
                    out.push(TaintHit {
                        line,
                        message: format!(
                            "secret-derived `{name}` reaches `{}!` (taint from this function's \
                             secret inputs)",
                            t.text
                        ),
                    });
                });
                k = end.max(k + 1);
                continue;
            }
            // Call sink: `name ( … )` or `.name ( … )`.
            if SINK_CALLS.contains(&t.text.as_str())
                && toks.get(k + 1).map(|t| t.text == "(").unwrap_or(false)
            {
                // A tainted receiver is itself a leak: `k.to_json()`.
                if k >= 2 && toks[k - 1].text == "." && tainted.contains(&toks[k - 2].text) {
                    out.push(TaintHit {
                        line: t.line,
                        message: format!(
                            "secret-derived `{}` is serialized via `.{}()`",
                            toks[k - 2].text,
                            t.text
                        ),
                    });
                }
                let end = scan_args(toks, k + 1, close, &tainted, &mut |line, name| {
                    out.push(TaintHit {
                        line,
                        message: format!("secret-derived `{name}` reaches sink `{}`", t.text),
                    });
                });
                k = end.max(k + 1);
                continue;
            }
            k += 1;
        }
    }
    out
}

/// Parses `let [mut] name [: ty] = rhs ;` starting at the `let` token.
/// Returns the binding name, the rhs token range, and the index after the
/// terminating `;`. `None` for `let … else`, destructuring, or bodies the
/// walk should just continue through token-by-token.
fn parse_let(
    toks: &[Tok],
    let_idx: usize,
    close: usize,
) -> Option<(String, (usize, usize), usize)> {
    let mut j = let_idx + 1;
    if toks.get(j).map(|t| t.text == "mut").unwrap_or(false) {
        j += 1;
    }
    let name_tok = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
    let name = name_tok.text.clone();
    j += 1;
    // Skip a `: Type` annotation (no parens/commas matter before `=`).
    while j <= close && !matches!(toks[j].text.as_str(), "=" | ";" | "{" | "}") {
        j += 1;
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("=") {
        return None;
    }
    let rhs_start = j + 1;
    let mut depth = 0i64;
    let mut m = rhs_start;
    while m <= close {
        match toks[m].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => {
                return Some((name, (rhs_start, m.saturating_sub(1)), m + 1));
            }
            _ => {}
        }
        m += 1;
    }
    None
}

/// Whether the rhs token range carries taint: mentions a secret type, a
/// tainted binding, or an expose call — unless routed through a
/// sanitizing transform.
fn rhs_tainted(toks: &[Tok], rhs: &(usize, usize), tainted: &BTreeSet<String>) -> bool {
    let (lo, hi) = *rhs;
    let mut has_taint = false;
    for k in lo..=hi.min(toks.len().saturating_sub(1)) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let called = toks.get(k + 1).map(|n| n.text == "(").unwrap_or(false);
        if called && SANITIZERS.contains(&t.text.as_str()) {
            return false;
        }
        if taint_source_type(&t.text)
            || tainted.contains(&t.text)
            || (called && EXPOSE_METHODS.contains(&t.text.as_str()))
        {
            has_taint = true;
        }
    }
    has_taint
}

/// Whether a type identifier seeds taint: a secret type that is not on
/// the [`TAINT_EXEMPT_TYPES`] carve-out.
fn taint_source_type(name: &str) -> bool {
    SECRET_TYPES.contains(&name) && !TAINT_EXEMPT_TYPES.contains(&name)
}

/// Scans a delimited argument list for tainted identifiers (direct or
/// `{name}`-interpolated); invokes `hit` for each. Returns the index just
/// past the closing delimiter.
fn scan_args(
    toks: &[Tok],
    open: usize,
    close: usize,
    tainted: &BTreeSet<String>,
    hit: &mut dyn FnMut(usize, &str),
) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j <= close {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        match toks[j].kind {
            TokKind::Ident if tainted.contains(&toks[j].text) => {
                // `k.len()` inside the args is the sanitized length, not
                // the secret.
                let sanitized_use = toks.get(j + 1).map(|t| t.text == ".").unwrap_or(false)
                    && toks
                        .get(j + 2)
                        .map(|t| SANITIZERS.contains(&t.text.as_str()))
                        .unwrap_or(false)
                    && toks.get(j + 3).map(|t| t.text == "(").unwrap_or(false);
                if !sanitized_use {
                    hit(toks[j].line, &toks[j].text);
                }
            }
            TokKind::Str => {
                for name in crate::rules::interpolated_idents(&toks[j].text) {
                    if tainted.contains(&name) {
                        hit(toks[j].line, &name);
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn hits(src: &str) -> Vec<TaintHit> {
        analyze(&parse_source("crates/core/src/x.rs", src))
    }

    #[test]
    fn laundered_expose_reaches_format() {
        let src = "fn f(key: &SecretBytes) {\n    let k = key.expose();\n    let _ = format!(\"{k:?}\");\n}\n";
        let h = hits(src);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].line, 3);
        assert!(h[0].message.contains("`k`"));
    }

    #[test]
    fn taint_flows_through_chained_bindings() {
        let src = "fn f(key: &SecretBytes) {\n    let a = key.expose();\n    let b = a.to_vec();\n    println!(\"{}\", b[0]);\n}\n";
        assert_eq!(hits(src).len(), 1);
    }

    #[test]
    fn sanitizer_breaks_taint() {
        let src = "fn f(key: &SecretBytes) {\n    let n = key.len();\n    println!(\"{n}\");\n    let d = sha256(key.expose());\n    println!(\"{d:?}\");\n}\n";
        assert!(hits(src).is_empty());
    }

    #[test]
    fn direct_len_use_in_sink_is_clean() {
        let src = "fn f(key: &SecretBytes) { println!(\"{}\", key.len()); }\n";
        assert!(hits(src).is_empty());
    }

    #[test]
    fn secret_param_direct_to_sink_fires() {
        let src = "fn f(ticket: &GetTicket) { let _ = format!(\"{ticket:?}\"); }\n";
        assert_eq!(hits(src).len(), 1);
    }

    #[test]
    fn serialization_sink_fires_on_receiver_and_arg() {
        let src = "fn f(env: ClientEnvelope) {\n    let e = env;\n    let _ = e.to_json();\n    let _ = to_value(e);\n}\n";
        let h = hits(src);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn rebinding_clears_taint() {
        let src = "fn f(key: &SecretBytes) {\n    let k = key.expose();\n    let k = 42;\n    println!(\"{k}\");\n}\n";
        assert!(hits(src).is_empty());
    }

    #[test]
    fn test_regions_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(key: &SecretBytes) { let k = key.expose(); let _ = format!(\"{k:?}\"); }\n}\n";
        assert!(hits(src).is_empty());
    }

    #[test]
    fn untainted_function_is_silent() {
        let src = "fn f(count: u64) { let c = count + 1; println!(\"{c}\"); }\n";
        assert!(hits(src).is_empty());
    }
}
