//! The privacy-flow rules.
//!
//! Each rule is a structural check over the token stream of one file; the
//! file's workspace-relative path decides which rules apply. The rules
//! encode the PProx unlinkability argument (§4.2 of the paper) and the
//! hardening decisions of earlier PRs — see DESIGN.md §6.3 for the
//! rationale behind every rule and the allowlist escape hatch.

use crate::lexer::{self, LexedFile, Tok, TokKind};

/// Rule ids and human names, in report order. R8 (`seqlock-ordering`)
/// is retired with the span ring it guarded; the id is not reused.
pub const RULES: &[(&str, &str)] = &[
    ("R1", "ua-item-isolation"),
    ("R2", "ia-user-isolation"),
    ("R3", "cross-layer-reference"),
    ("R4", "secret-debug-derive"),
    ("R5", "secret-format-leak"),
    ("R6", "arrival-oracle"),
    ("R7", "relaxed-justification"),
    ("R9", "non-ct-secret-compare"),
    ("R10", "secret-taint-dataflow"),
    ("R11", "lock-order-graph"),
    ("R12", "blocking-in-connection-reader"),
    ("R13", "panic-on-request-path"),
];

/// Identifiers that constitute an item-plaintext API surface. UA-side
/// code referencing any of these breaks layer separation (rule R1).
pub const ITEM_APIS: &[&str] = &[
    "PlaintextItemId",
    "pseudonymize_item",
    "depseudonymize_item",
    "list_to_plaintext",
    "list_from_plaintext",
    "FeedbackEvent",
    "RecommendationQuery",
    "MAX_RECOMMENDATIONS",
    "PAD_ITEM_PREFIX",
    "ITEM_BLOCK_LEN",
];

/// Identifiers that constitute a user-plaintext API surface. IA-side
/// code referencing any of these breaks layer separation (rule R2).
pub const USER_APIS: &[&str] = &[
    "PlaintextUserId",
    "UserClient",
    "depseudonymize",
    "GetTicket",
];

/// Types that must never derive `Debug` nor implement `Display` (R4):
/// each holds secret material or plaintext ids and carries a manual,
/// redacting `Debug` instead.
pub const SECRET_TYPES: &[&str] = &[
    "SecretBytes",
    "SymmetricKey",
    "LayerSecrets",
    "KeyProvisioner",
    "GetTicket",
    "RsaPrivateKey",
    "SecureRng",
    "PlaintextUserId",
    "PlaintextItemId",
    "UaState",
    "IaState",
    "ClientEnvelope",
    "LayerEnvelope",
    "EncryptedList",
    "SecretBag",
    "StoreKey",
];

/// Identifiers whose appearance in a format-like macro indicates secret
/// material reaching a formatted string (R5).
pub const FORMAT_SECRET_IDENTS: &[&str] =
    &["k_u", "secrets", "sk", "padded_user", "key_bytes", "expose"];

/// Format-like macros whose arguments R5 scans.
const FORMAT_MACROS: &[&str] = &[
    "format", "print", "println", "eprint", "eprintln", "write", "writeln", "panic",
];

/// Identifiers treated as secret-derived for the constant-time rule (R9).
pub const CT_SECRET_IDENTS: &[&str] = &[
    "bytes",
    "key_bytes",
    "tag",
    "mac",
    "digest",
    "l_hash",
    "plaintext",
    "secret",
    "expose",
    "as_bytes",
];

/// Files allowed to reference both user- and item-plaintext APIs (R3),
/// with the reason. Prefix-matched against the workspace-relative path.
pub const CROSS_LAYER_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/core/src/client.rs",
        "user-side library: runs outside the proxy, legitimately sees both ids",
    ),
    (
        "crates/core/src/ids.rs",
        "definition site of both id newtypes; contains no id values",
    ),
    (
        "crates/core/src/lib.rs",
        "crate root: re-exports and error plumbing only",
    ),
    (
        "crates/core/src/message.rs",
        "wire format: frame sizes for both blocks, no plaintext handling",
    ),
    (
        "crates/workload/",
        "workload generator: simulates users, outside the trust boundary",
    ),
    (
        "crates/attack/",
        "attack harness: deliberately adversarial, models §6.1 breaches",
    ),
    (
        "crates/bench/",
        "benchmark driver: orchestrates full deployments end to end",
    ),
    (
        "crates/scenario/",
        "scenario harness: plays the user population and the wire adversary",
    ),
    ("src/", "facade crate: re-exports only"),
    ("tests/", "integration tests exercise the full protocol"),
];

/// A rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`R1` … `R9`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What was found.
    pub message: String,
}

/// A finding silenced by an `analysis-allow:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Rule id that would have fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The justification given in the directive.
    pub reason: String,
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations.
    pub findings: Vec<Finding>,
    /// Directive-silenced violations (reported for audit).
    pub suppressions: Vec<Suppression>,
}

/// Searches the flagged line and the contiguous comment block above it
/// for a directive containing `needle` (e.g. `analysis-allow: R6`);
/// returns the trailing text as the reason.
pub(crate) fn find_directive(lex: &LexedFile, line: usize, needle: &str) -> Option<String> {
    let mut l = line;
    loop {
        if let Some(text) = lex.comments.get(&l) {
            if let Some(at) = text.find(needle) {
                let reason = text[at + needle.len()..].trim().to_string();
                return Some(if reason.is_empty() {
                    "(no reason given)".to_string()
                } else {
                    reason
                });
            }
        }
        // Walk upward only through comment-only lines.
        if l == 0 {
            return None;
        }
        let above = l - 1;
        if lex.comments.contains_key(&above) && !lex.code_lines.contains(&above) {
            l = above;
        } else if l == line && lex.comments.contains_key(&above) {
            // First hop: allow a directive on the line directly above
            // even if that line also carries code (trailing comment).
            l = above;
        } else {
            return None;
        }
    }
}

/// Routes a candidate finding through the suppression machinery: an
/// `analysis-allow: <rule>` directive (or, for R13, the
/// `analysis-allow: panic-ok` spelling the panic audit uses) on the
/// flagged line or the comment block above it records an audited
/// suppression instead. Used by the global rules (R11–R13), which run
/// outside the per-file `Ctx`.
pub fn emit_global(
    out: &mut FileReport,
    lex: &LexedFile,
    rule: &'static str,
    path: &str,
    line: usize,
    message: String,
) {
    let mut needles = vec![format!("analysis-allow: {rule}")];
    if rule == "R13" {
        needles.push("analysis-allow: panic-ok".to_string());
    }
    for needle in &needles {
        if let Some(reason) = find_directive(lex, line, needle) {
            out.suppressions.push(Suppression {
                rule,
                path: path.to_string(),
                line,
                reason,
            });
            return;
        }
    }
    out.findings.push(Finding {
        rule,
        path: path.to_string(),
        line,
        message,
    });
}

struct Ctx<'a> {
    path: &'a str,
    lex: &'a LexedFile,
    test_regions: Vec<(usize, usize)>,
    out: FileReport,
}

impl Ctx<'_> {
    fn in_test(&self, line: usize) -> bool {
        lexer::in_regions(&self.test_regions, line)
    }

    fn directive(&self, line: usize, needle: &str) -> Option<String> {
        find_directive(self.lex, line, needle)
    }

    fn emit(&mut self, rule: &'static str, line: usize, message: String) {
        if let Some(reason) = self.directive(line, &format!("analysis-allow: {rule}")) {
            self.out.suppressions.push(Suppression {
                rule,
                path: self.path.to_string(),
                line,
                reason,
            });
        } else {
            self.out.findings.push(Finding {
                rule,
                path: self.path.to_string(),
                line,
                message,
            });
        }
    }
}

/// Analyzes one file's source against every applicable per-file rule
/// (R1–R10). The global rules (R11–R13) need the whole workspace — see
/// [`crate::locks::analyze_global`].
pub fn analyze_file(path: &str, source: &str) -> FileReport {
    analyze_parsed(&crate::parser::parse_source(path, source))
}

/// [`analyze_file`] over an already-parsed file (the workspace scan
/// parses once and shares the result with the global pass).
pub fn analyze_parsed(parsed: &crate::parser::ParsedFile) -> FileReport {
    let path = parsed.path.as_str();
    let mut ctx = Ctx {
        path,
        lex: &parsed.lex,
        test_regions: parsed.test_regions.clone(),
        out: FileReport::default(),
    };
    let is_ua = path.ends_with("crates/core/src/ua.rs")
        || path.ends_with("crates/core/src/shuffler.rs")
        || path == "crates/core/src/ua.rs"
        || path == "crates/core/src/shuffler.rs";
    let is_ia = path.ends_with("crates/core/src/ia.rs") || path == "crates/core/src/ia.rs";
    if is_ua {
        rule_layer_isolation(&mut ctx, "R1", ITEM_APIS, "item-plaintext");
    }
    if is_ia {
        rule_layer_isolation(&mut ctx, "R2", USER_APIS, "user-plaintext");
    }
    if !is_ua && !is_ia {
        rule_cross_layer(&mut ctx);
    }
    rule_secret_debug(&mut ctx);
    rule_format_leak(&mut ctx);
    rule_arrival_oracle(&mut ctx);
    if path.contains("crates/core/src/telemetry/") {
        rule_relaxed_justification(&mut ctx);
    }
    if path.starts_with("crates/crypto/") {
        rule_non_ct_compare(&mut ctx);
    }
    // R10: function-scope secret taint, workspace-wide.
    for hit in crate::taint::analyze(parsed) {
        ctx.emit("R10", hit.line, hit.message);
    }
    ctx.out
}

/// R1 / R2: a layer-private module references the other layer's plaintext
/// API. Scans test regions too — layer modules must not even *test*
/// against the other layer's plaintext surface.
fn rule_layer_isolation(ctx: &mut Ctx<'_>, rule: &'static str, deny: &[&str], kind: &str) {
    let hits: Vec<(usize, String)> = ctx
        .lex
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident && deny.contains(&t.text.as_str()))
        .map(|t| (t.line, t.text.clone()))
        .collect();
    for (line, name) in hits {
        ctx.emit(
            rule,
            line,
            format!("layer-private module references {kind} API `{name}`"),
        );
    }
}

/// R3: a file outside the allowlist references both the user-plaintext
/// and the item-plaintext API surface — a place where the two knowledge
/// domains could be joined.
fn rule_cross_layer(ctx: &mut Ctx<'_>) {
    for (prefix, _reason) in CROSS_LAYER_ALLOWLIST {
        if ctx.path.starts_with(prefix) || ctx.path.contains("/tests/") {
            return;
        }
    }
    let mut user_hit: Option<(usize, String)> = None;
    let mut item_hit: Option<(usize, String)> = None;
    for t in &ctx.lex.tokens {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        if user_hit.is_none() && USER_APIS.contains(&t.text.as_str()) {
            user_hit = Some((t.line, t.text.clone()));
        }
        if item_hit.is_none() && ITEM_APIS.contains(&t.text.as_str()) {
            item_hit = Some((t.line, t.text.clone()));
        }
    }
    if let (Some((ul, un)), Some((il, inm))) = (user_hit, item_hit) {
        let line = ul.max(il);
        ctx.emit(
            "R3",
            line,
            format!(
                "non-allowlisted file references both user API `{un}` (line {ul}) and item API `{inm}` (line {il})"
            ),
        );
    }
}

/// R4: `#[derive(.. Debug ..)]` on — or `impl Display for` — a type in
/// the secret deny list. Those types carry manual redacting impls; a
/// derive reintroduced by refactoring would print field bytes.
fn rule_secret_debug(ctx: &mut Ctx<'_>) {
    let toks = &ctx.lex.tokens;
    let mut pending: Vec<(usize, Vec<(usize, String)>)> = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        if toks[k].kind == TokKind::Ident && toks[k].text == "derive" {
            if let Some(open) = toks.get(k + 1).filter(|t| t.text == "(") {
                let _ = open;
                let mut depth = 0usize;
                let mut j = k + 1;
                let mut derived: Vec<(usize, String)> = Vec::new();
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            if toks[j].kind == TokKind::Ident {
                                derived.push((toks[j].line, toks[j].text.clone()));
                            }
                        }
                    }
                    j += 1;
                }
                pending.push((j, derived));
                k = j;
            }
        } else if toks[k].kind == TokKind::Ident
            && (toks[k].text == "struct" || toks[k].text == "enum")
        {
            if let Some(name) = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident) {
                if SECRET_TYPES.contains(&name.text.as_str()) {
                    // Attach the closest preceding derive list, if any.
                    if let Some((_, derived)) = pending.last() {
                        for (line, d) in derived {
                            if d == "Debug" || d == "Display" {
                                let (line, name_text) = (*line, name.text.clone());
                                ctx.emit(
                                    "R4",
                                    line,
                                    format!("secret type `{name_text}` derives `{d}`"),
                                );
                            }
                        }
                    }
                }
            }
            pending.clear();
        } else if toks[k].kind == TokKind::Ident && toks[k].text == "fn" {
            // A function between derive and struct means the derive did
            // not belong to a type definition we are about to see.
            pending.clear();
        } else if toks[k].kind == TokKind::Ident
            && (toks[k].text == "Display" || toks[k].text == "Debug")
            && toks.get(k + 1).map(|t| t.text == "for").unwrap_or(false)
        {
            // `impl Display for X` — only Display is banned outright; a
            // manual Debug is exactly what the deny-listed types should
            // have, so Debug impls are fine.
            if toks[k].text == "Display" {
                if let Some(name) = toks.get(k + 2).filter(|t| t.kind == TokKind::Ident) {
                    if SECRET_TYPES.contains(&name.text.as_str()) {
                        let (line, name_text) = (toks[k].line, name.text.clone());
                        ctx.emit(
                            "R4",
                            line,
                            format!("secret type `{name_text}` implements `Display`"),
                        );
                    }
                }
            }
        }
        k += 1;
    }
}

/// R5: a secret-bearing identifier reaches a format-like macro, either as
/// a direct argument or as a `{name}` interpolation inside the format
/// string. Test regions are exempt (tests format secrets precisely to
/// assert they redact).
fn rule_format_leak(ctx: &mut Ctx<'_>) {
    let toks = &ctx.lex.tokens;
    let mut k = 0;
    while k + 2 < toks.len() {
        let is_macro = toks[k].kind == TokKind::Ident
            && FORMAT_MACROS.contains(&toks[k].text.as_str())
            && toks[k + 1].text == "!"
            && matches!(toks[k + 2].text.as_str(), "(" | "[" | "{");
        if !is_macro || ctx.in_test(toks[k].line) {
            k += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut j = k + 2;
        let mut offenders: Vec<(usize, String)> = Vec::new();
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            match toks[j].kind {
                TokKind::Ident if FORMAT_SECRET_IDENTS.contains(&toks[j].text.as_str()) => {
                    offenders.push((toks[j].line, toks[j].text.clone()));
                }
                TokKind::Str => {
                    for name in interpolated_idents(&toks[j].text) {
                        if FORMAT_SECRET_IDENTS.contains(&name.as_str()) {
                            offenders.push((toks[j].line, name));
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        for (line, name) in offenders {
            ctx.emit(
                "R5",
                line,
                format!("secret identifier `{name}` reaches a format-like macro"),
            );
        }
        k = j.max(k + 1);
    }
}

/// Extracts `{name}` / `{name:?}` interpolation identifiers from a format
/// string body.
pub(crate) fn interpolated_idents(s: &str) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2; // escaped brace
                continue;
            }
            let mut j = i + 1;
            let mut name = String::new();
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                name.push(chars[j]);
                j += 1;
            }
            if !name.is_empty() && matches!(chars.get(j), Some(&'}') | Some(&':')) {
                out.push(name);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// R6: the arrival-oracle rule. (a) No production code may call
/// `record_span`: a per-request record — any stage, any fields — ties a
/// latency to a delivery time an exporter could correlate with network
/// captures, so the telemetry plane has no such record type and durations
/// go through `record_duration` into a histogram cell. (b) Telemetry
/// internals — the in-process collector *and* the wire scrape plane
/// (`crates/wire/src/scrape.rs`), which exports across the trust boundary
/// — must not read wall-clock time themselves (`Instant` / `SystemTime`)
/// except at allow-listed epochs.
fn rule_arrival_oracle(ctx: &mut Ctx<'_>) {
    let toks = &ctx.lex.tokens;
    // (a) — workspace-wide, production code.
    let calls: Vec<usize> = toks
        .windows(2)
        .filter(|w| {
            w[0].kind == TokKind::Ident
                && w[0].text == "record_span"
                && w[1].text == "("
                && !ctx.in_test(w[0].line)
        })
        .map(|w| w[0].line)
        .collect();
    for line in calls {
        ctx.emit(
            "R6",
            line,
            "per-request record via record_span: telemetry exports aggregates only \
             (§6.2); record the duration with record_duration"
                .to_string(),
        );
    }
    // (b) — telemetry internals only, production code. The wire scrape
    // module is telemetry too: everything it touches leaves the node.
    if ctx.path.contains("crates/core/src/telemetry/")
        || ctx.path.contains("crates/wire/src/scrape.rs")
    {
        let hits: Vec<(usize, String)> = ctx
            .lex
            .tokens
            .iter()
            .filter(|t| {
                t.kind == TokKind::Ident
                    && (t.text == "Instant" || t.text == "SystemTime")
                    && !ctx.in_test(t.line)
            })
            .map(|t| (t.line, t.text.clone()))
            .collect();
        for (line, name) in hits {
            ctx.emit(
                "R6",
                line,
                format!("telemetry internals capture wall-clock time via `{name}`"),
            );
        }
    }
}

/// R7: every `Ordering::Relaxed` in the lock-free telemetry code must
/// carry a `relaxed-ok:` justification on the same line or in the
/// contiguous comment block directly above.
fn rule_relaxed_justification(ctx: &mut Ctx<'_>) {
    let hits: Vec<usize> = ctx
        .lex
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text == "Relaxed")
        .map(|t| t.line)
        .collect();
    for line in hits {
        if ctx.directive(line, "relaxed-ok:").is_none() {
            ctx.emit(
                "R7",
                line,
                "Ordering::Relaxed without a `relaxed-ok:` justification".to_string(),
            );
        }
    }
}

/// R9: in the crypto crate, `==` / `!=` on secret-derived byte material
/// outside `ct_eq` / `verify_tag` is an early-exit timing oracle. Length
/// checks (`.len()`, `.is_empty()`) are public and exempt.
fn rule_non_ct_compare(ctx: &mut Ctx<'_>) {
    const EXEMPT_FNS: &[&str] = &["ct_eq", "verify_tag"];
    const BOUNDARY: &[&str] = &[";", "{", "}", "&&", "||", ","];
    let toks = &ctx.lex.tokens;
    let fn_regions = fn_regions(toks);
    let mut k = 0;
    while k < toks.len() {
        if !(toks[k].kind == TokKind::Punct && (toks[k].text == "==" || toks[k].text == "!=")) {
            k += 1;
            continue;
        }
        let line = toks[k].line;
        if ctx.in_test(line)
            || fn_regions
                .iter()
                .any(|(name, a, b)| line >= *a && line <= *b && EXEMPT_FNS.contains(&name.as_str()))
        {
            k += 1;
            continue;
        }
        let mut offenders: Vec<String> = Vec::new();
        // Scan a bounded window on each side of the operator.
        let lo = k.saturating_sub(10);
        let hi = (k + 10).min(toks.len());
        for (idx, t) in toks[lo..hi].iter().enumerate() {
            let abs = lo + idx;
            if abs == k {
                continue;
            }
            // Stop the window at statement boundaries between the
            // candidate and the operator.
            let between = if abs < k { abs + 1..k } else { k + 1..abs };
            if toks[between.clone()]
                .iter()
                .any(|b| BOUNDARY.contains(&b.text.as_str()))
            {
                continue;
            }
            if t.kind == TokKind::Ident && CT_SECRET_IDENTS.contains(&t.text.as_str()) {
                // `.len()` / `.is_empty()` on the secret is public.
                let next2: Vec<&str> = toks[abs + 1..(abs + 3).min(toks.len())]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect();
                if next2.first() == Some(&".")
                    && matches!(next2.get(1), Some(&"len") | Some(&"is_empty"))
                {
                    continue;
                }
                offenders.push(t.text.clone());
            }
        }
        if !offenders.is_empty() {
            let op = toks[k].text.clone();
            ctx.emit(
                "R9",
                line,
                format!(
                    "variable-time `{op}` on secret-derived data ({}): use ct_eq",
                    offenders.join(", ")
                ),
            );
        }
        k += 1;
    }
}

/// `(fn name, start line, end line)` for every function body.
fn fn_regions(toks: &[Tok]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    let mut pending: Option<String> = None;
    let mut stack: Vec<(String, i64, usize)> = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        if toks[k].kind == TokKind::Ident && toks[k].text == "fn" {
            if let Some(name) = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident) {
                pending = Some(name.text.clone());
            }
        }
        match toks[k].text.as_str() {
            "{" => {
                if let Some(name) = pending.take() {
                    stack.push((name, depth, toks[k].line));
                }
                depth += 1;
            }
            "}" => {
                depth -= 1;
                if let Some((_, d, _)) = stack.last() {
                    if *d == depth {
                        let (name, _, start) = stack.pop().unwrap();
                        out.push((name, start, toks[k].line));
                    }
                }
            }
            ";" => {
                // Trait method signature without body.
                pending = None;
            }
            _ => {}
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = analyze_file(path, src)
            .findings
            .iter()
            .map(|f| f.rule)
            .collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    #[test]
    fn clean_file_has_no_findings() {
        let report = analyze_file(
            "crates/core/src/metrics.rs",
            "pub fn count(x: u64) -> u64 { x + 1 }\n",
        );
        assert!(report.findings.is_empty());
        assert!(report.suppressions.is_empty());
    }

    #[test]
    fn ua_referencing_item_api_fires_r1() {
        let src = "use crate::ids::PlaintextItemId;\nfn f(_x: &PlaintextItemId) {}\n";
        assert_eq!(rules_fired("crates/core/src/ua.rs", src), vec!["R1"]);
        // Same content in a non-layer file is fine (single-domain).
        assert!(rules_fired("crates/core/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn string_mention_does_not_fire() {
        let src = "fn f() -> &'static str { \"PlaintextItemId\" }\n";
        assert!(rules_fired("crates/core/src/ua.rs", src).is_empty());
    }

    #[test]
    fn allow_directive_moves_finding_to_suppression() {
        let src = "// analysis-allow: R1 simulation of breach for docs\nuse crate::ids::PlaintextItemId;\n";
        let report = analyze_file("crates/core/src/ua.rs", src);
        assert!(report.findings.is_empty());
        assert_eq!(report.suppressions.len(), 1);
        assert_eq!(report.suppressions[0].rule, "R1");
        assert!(report.suppressions[0].reason.contains("simulation"));
    }

    #[test]
    fn relaxed_needs_justification() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        assert_eq!(
            rules_fired("crates/core/src/telemetry/x.rs", bad),
            vec!["R7"]
        );
        let same_line =
            "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); } // relaxed-ok: counter\n";
        assert!(rules_fired("crates/core/src/telemetry/x.rs", same_line).is_empty());
        let block_above = "fn f(a: &AtomicU64) {\n    // relaxed-ok: independent counter, no\n    // ordering needed across fields\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(rules_fired("crates/core/src/telemetry/x.rs", block_above).is_empty());
    }

    #[test]
    fn non_ct_compare_fires_and_ct_eq_is_exempt() {
        let bad = "pub fn check(tag: &[u8], other: &[u8]) -> bool { tag == other }\n";
        assert_eq!(rules_fired("crates/crypto/src/x.rs", bad), vec!["R9"]);
        let exempt = "pub fn ct_eq(a: &[u8], b: &[u8]) -> bool { let tag = a; tag == b }\n";
        assert!(rules_fired("crates/crypto/src/x.rs", exempt).is_empty());
        let len_ok = "pub fn f(key_bytes: &[u8]) -> bool { key_bytes.len() == 32 }\n";
        assert!(rules_fired("crates/crypto/src/x.rs", len_ok).is_empty());
    }

    #[test]
    fn format_interpolation_detected() {
        let src = "fn f(k_u: &Key) { let _ = format!(\"key is {k_u:?}\"); }\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", src), vec!["R5"]);
        let direct = "fn f(secrets: &Bag) { println!(\"{}\", secrets); }\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", direct), vec!["R5"]);
        let clean = "fn f(count: u64) { println!(\"{count}\"); }\n";
        assert!(rules_fired("crates/core/src/x.rs", clean).is_empty());
    }

    #[test]
    fn any_record_span_fires_r6() {
        let src =
            "fn f(t: &Telemetry) { t.record_span(SpanRecord { stage: Stage::Ua, ok: true }); }\n";
        assert_eq!(
            rules_fired("crates/wire/src/services/ua.rs", src),
            vec!["R6"]
        );
        let duration = "fn f(t: &Telemetry) { t.record_duration(Stage::E2e, us); }\n";
        assert!(rules_fired("crates/wire/src/services/ua.rs", duration).is_empty());
    }

    #[test]
    fn wire_scrape_wall_clock_fires_r6() {
        // The scrape plane counts as telemetry internals: an unmarked
        // wall-clock read there is an arrival oracle in the making.
        let bad = "fn f(m: &NodeMetrics) { let now = Instant::now(); m.stamp(now); }\n";
        assert_eq!(rules_fired("crates/wire/src/scrape.rs", bad), vec!["R6"]);
        // Same code elsewhere in the wire crate is not telemetry.
        assert!(rules_fired("crates/wire/src/server.rs", bad).is_empty());
        // The allow-listed uptime epoch stays silent.
        let epoch = "fn f() {\n    // analysis-allow: R6 uptime origin, not a per-request timestamp\n    let started = Instant::now();\n}\n";
        assert!(rules_fired("crates/wire/src/scrape.rs", epoch).is_empty());
    }

    #[test]
    fn derive_debug_on_secret_type_fires_r4() {
        let src = "#[derive(Debug, Clone)]\npub struct SymmetricKey { bytes: [u8; 32] }\n";
        assert_eq!(rules_fired("crates/crypto/src/x.rs", src), vec!["R4"]);
        let manual = "pub struct SymmetricKey { bytes: [u8; 32] }\nimpl std::fmt::Debug for SymmetricKey { }\n";
        assert!(rules_fired("crates/crypto/src/x.rs", manual).is_empty());
        let display = "impl std::fmt::Display for GetTicket { }\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", display), vec!["R4"]);
    }

    #[test]
    fn cross_layer_detected_outside_allowlist() {
        let src = "fn join(u: &PlaintextUserId, i: &PlaintextItemId) {}\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", src), vec!["R3"]);
        assert!(rules_fired("crates/core/src/client.rs", src).is_empty());
        assert!(rules_fired("crates/workload/src/gen.rs", src).is_empty());
    }
}
