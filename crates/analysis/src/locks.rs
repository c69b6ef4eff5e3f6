//! The global (cross-file) rules: R11 lock-order graph, R12
//! no-blocking-in-connection-reader, R13 panic-free request path.
//!
//! These rules need what no single file can provide: which locks are
//! held when a call crosses into another file, and which functions the
//! serving path can reach. The pass therefore runs once over the whole
//! parsed workspace:
//!
//! 1. **Facts** — every function body is walked once, tracking live lock
//!    guards (`let g = x.lock()` lives to `drop(g)` or scope end; an
//!    inline temporary lives to its statement/scrutinee end), direct
//!    acquisition nesting, calls made while holding, blocking
//!    operations, and panic-capable sites.
//! 2. **Resolution** — calls resolve *within a crate* by name, minus a
//!    stoplist of ubiquitous std method names that would otherwise
//!    create false edges (`gate.in_flight()` must not resolve to the
//!    wire server's or client's `in_flight`). Cross-crate flow is out of
//!    scope by design: the crates in the serving path keep their
//!    blocking primitives local, and a stoplisted or cross-crate callee
//!    is a documented false *negative*, never a false positive.
//! 3. **R11** — transitive acquire-sets per function (fixpoint), then a
//!    lock-order graph: node = `crate/file.field`, edge = "held → then
//!    acquired" (directly or via a call). Any cycle is a finding. If a
//!    declared ordering file is provided, every edge must also agree
//!    with the declared total order and every participant must be
//!    declared.
//! 4. **R12** — functions reachable from the connection-reader roots
//!    ([`READER_ROOTS`]) block on nothing but the reader's own socket
//!    read: no lock, no blocking channel `send`/`recv`, no sleep, no
//!    file IO. Functions reachable from the continuation roots
//!    ([`CONTINUATION_ROOTS`] — an uplink's reader and what runs on it or
//!    on the deadline queue to finish a parked request) hold to the same
//!    minus the locks: a completion takes short leaf locks (a pending
//!    table, a reply's writer lock bounded by the write timeout, the
//!    enclave), which R11 orders, but a channel wait, a sleep or file IO
//!    there stalls every request behind it on that connection.
//! 5. **R13** — functions reachable from the request-path roots
//!    ([`REQUEST_ROOTS`]) may not contain `unwrap` / `expect` /
//!    panicking macros. The directive `analysis-allow: panic-ok` (or the
//!    generic `analysis-allow: R13`) records an audited justification.
//!
//! Roots are named by function, so a root that names no function — its
//! function renamed or deleted — is a finding of the rule it feeds
//! ([`unmatched_roots`]), not a silent loss of coverage.
//!
//! Test regions and integration-test files are exempt throughout —
//! tests panic and block by design.

use crate::parser::{calls_in, Call, ParsedFile};
use crate::rules::{emit_global, FileReport, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Entry points of a connection's reader thread (path suffix, function
/// name). Code reachable from these frames, admits and enqueues a peer's
/// requests; it may wait for that peer's bytes and nothing else. A
/// reader parked on a full job queue or a sleep would leave overload
/// unanswered instead of answered `busy` (R12).
pub const READER_ROOTS: &[(&str, &str)] = &[("crates/wire/src/server.rs", "read_loop")];

/// Entry points of the continuations that finish a parked request (path
/// suffix, function name): an uplink connection's reader, and every
/// function that runs on it — or on the node's deadline queue — as a
/// call's completion: the retry loop's `attempted` and the `attempt` it
/// re-arms, and what the services finish a request with. They are listed
/// one by one because a completion is a boxed closure, which name-based
/// resolution cannot follow. Code
/// reachable from these may take a lock but may not wait on a channel,
/// sleep, or touch a file (R12): the next reply on that connection
/// waits behind it.
pub const CONTINUATION_ROOTS: &[(&str, &str)] = &[
    ("crates/wire/src/client.rs", "read_replies"),
    ("crates/wire/src/client.rs", "expire"),
    ("crates/wire/src/client.rs", "attempt"),
    ("crates/wire/src/client.rs", "attempted"),
    ("crates/wire/src/server.rs", "send"),
    ("crates/wire/src/server.rs", "send_all"),
    ("crates/wire/src/services/ua.rs", "gather"),
    ("crates/wire/src/services/ua.rs", "cap"),
    ("crates/wire/src/services/ua.rs", "flush_due"),
    ("crates/wire/src/services/ua.rs", "answer"),
    ("crates/wire/src/services/ia.rs", "finish_post"),
    ("crates/wire/src/services/ia.rs", "finish_get"),
    ("crates/wire/src/services/ia.rs", "respond"),
    ("crates/wire/src/services/ia.rs", "on_history"),
    ("crates/wire/src/services/ia.rs", "on_score"),
];

/// Entry points of the request path (path suffix, function name): the
/// per-tier services (a proxy layer's takes a whole reader pass), the
/// reader that frames their traffic, the worker loop, the enclave's
/// turns, the deadline queue's thread, and the continuations above. A
/// panic here kills a thread mid-request (R13).
pub const REQUEST_ROOTS: &[(&str, &str)] = &[
    ("crates/wire/src/services/ua.rs", "serve"),
    ("crates/wire/src/services/ia.rs", "serve"),
    ("crates/wire/src/services/lrs.rs", "handle"),
    ("crates/wire/src/services/serial.rs", "run"),
    ("crates/wire/src/server.rs", "read_loop"),
    ("crates/wire/src/server.rs", "work"),
    ("crates/wire/src/timers.rs", "queue_thread"),
];

/// Method names never resolved to same-crate functions: each is a
/// ubiquitous accessor name (std containers, atomics) whose name-based
/// resolution would wire unrelated functions together. `in_flight` is
/// here because the admission gate's atomic counter shares the name with
/// the wire server's and client's accessors, `call` because the enclave's
/// ECALL entry (another crate) shares it with the wire client's blocking
/// adapter, which nothing on the serving path uses. A stoplisted callee
/// the serving path genuinely depends on must be renamed to something
/// resolvable.
pub const RESOLUTION_STOPLIST: &[&str] = &[
    "len",
    "is_empty",
    "clone",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "iter",
    "into_iter",
    "next",
    "send",
    "try_send",
    "recv",
    "try_recv",
    "recv_timeout",
    "read",
    "write",
    "lock",
    "try_lock",
    "drain",
    "clear",
    "extend",
    "new",
    "default",
    "from",
    "into",
    "take",
    "replace",
    "swap",
    "join",
    "spawn",
    "flush",
    "shutdown",
    "load",
    "store",
    "fetch_add",
    "in_flight",
    "call",
    "snapshot",
    "fmt",
    "drop",
];

/// Channel operations that block the calling thread (`send` on a
/// bounded queue waits for room; the `try_` forms do not).
const BLOCKING_CHANNEL_OPS: &[&str] = &["send", "recv", "recv_timeout", "wait", "wait_timeout"];

/// Receivers whose `.send(..)` is not a channel's: `reply.send(..)` is
/// `wire::server::Reply::send`, the request's answer (a socket write
/// under the connection's writer lock, which is rooted on its own).
const NOT_A_CHANNEL: &[&str] = &["reply"];

/// Filesystem entry points (`X::` / `fs::x(...)` forms).
const FS_TYPES: &[&str] = &["File", "OpenOptions"];
const FS_FNS: &[&str] = &[
    "read_to_string",
    "read_dir",
    "create_dir_all",
    "remove_file",
    "rename",
    "canonicalize",
];

/// Macros that abort the thread.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// One lock-order edge: while holding `from`, the program acquires `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Held lock (`crate/file.field`).
    pub from: String,
    /// Acquired lock.
    pub to: String,
    /// File where the nesting happens.
    pub path: String,
    /// 1-based line of the inner acquisition or the call that reaches it.
    pub line: usize,
}

/// The workspace lock-acquisition graph, embedded in the v2 report.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// All lock identities, sorted.
    pub nodes: Vec<String>,
    /// Nesting edges, sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// Whether the graph has no cycles (the R11 pass condition).
    pub cycle_free: bool,
}

/// How the panic-capable sites in `crates/wire` break down (the R13
/// classification the report publishes).
#[derive(Debug, Default, Clone, Copy)]
pub struct PanicClassification {
    /// All `unwrap` / `expect` / panic-macro sites in the crate.
    pub total: usize,
    /// Sites reachable from [`REQUEST_ROOTS`] (findings + audited
    /// suppressions).
    pub request_path: usize,
    /// Sites inside `#[cfg(test)]` regions or test files.
    pub test: usize,
    /// Sites in production code off the request path (launch/bench/CLI).
    pub other: usize,
}

/// Result of the global pass.
#[derive(Debug, Default)]
pub struct GlobalReport {
    /// Findings and suppressions, same shape as the per-file pass.
    pub report: FileReport,
    /// The lock graph (always emitted, even when clean).
    pub graph: LockGraph,
    /// R13 classification for `crates/wire`.
    pub panics: PanicClassification,
}

/// A direct lock acquisition.
#[derive(Debug, Clone)]
struct Acq {
    lock: String,
    line: usize,
}

/// Per-function facts extracted by the single body walk.
#[derive(Debug)]
struct FnFacts {
    path: String,
    crate_key: String,
    name: String,
    /// Direct acquisitions.
    acquires: Vec<Acq>,
    /// (held lock, inner acquisition).
    nested: Vec<(String, Acq)>,
    /// (held lock, call made while holding).
    held_calls: Vec<(String, Call)>,
    /// All calls (for reachability).
    calls: Vec<Call>,
    /// (line, description, is a lock acquisition) — R12 blocking
    /// operations.
    blocking: Vec<(usize, String, bool)>,
    /// (line, description) — R13 panic-capable sites.
    panics: Vec<(usize, String)>,
}

/// Runs R11–R13 over the parsed workspace. `lock_order_decl` is the
/// content of the audited ordering declaration (`lock_order.txt`); when
/// absent only cycle detection runs.
pub fn analyze_global(files: &[ParsedFile], lock_order_decl: Option<&str>) -> GlobalReport {
    let mut out = GlobalReport::default();
    let lex_by_path: BTreeMap<&str, &ParsedFile> =
        files.iter().map(|f| (f.path.as_str(), f)).collect();
    let facts: Vec<FnFacts> = files
        .iter()
        .filter(|f| !is_test_file(&f.path))
        .flat_map(extract_facts)
        .collect();

    lock_order_rule(&facts, lock_order_decl, &lex_by_path, &mut out);
    // A site reachable from both kinds of root is reported once, under
    // the stricter one.
    let mut reported: BTreeSet<(&str, usize, &str)> = BTreeSet::new();
    for (roots, locks_too, whence) in [
        (READER_ROOTS, true, "a connection reader"),
        (CONTINUATION_ROOTS, false, "a request's continuation"),
    ] {
        for &i in &reachable(&facts, roots) {
            let f = &facts[i];
            let lex = &lex_by_path[f.path.as_str()].lex;
            for (line, desc, is_lock) in &f.blocking {
                if (*is_lock && !locks_too)
                    || !reported.insert((f.path.as_str(), *line, desc.as_str()))
                {
                    continue;
                }
                emit_global(
                    &mut out.report,
                    lex,
                    "R12",
                    &f.path,
                    *line,
                    format!("{desc} in `{}`, reachable from {whence}", f.name),
                );
            }
        }
    }
    let request_roots: Vec<(&str, &str)> = [REQUEST_ROOTS, CONTINUATION_ROOTS].concat();
    let req_reach = reachable(&facts, &request_roots);
    for &i in &req_reach {
        let f = &facts[i];
        let lex = &lex_by_path[f.path.as_str()].lex;
        for (line, desc) in &f.panics {
            emit_global(
                &mut out.report,
                lex,
                "R13",
                &f.path,
                *line,
                format!("{desc} in `{}`, reachable from the request path", f.name),
            );
        }
    }
    out.panics = classify_panics(files, &facts, &req_reach);
    out
}

/// One finding per root that names no function of the whole workspace
/// (renamed or deleted; it would otherwise drop its coverage without a
/// word), under the rule the root feeds, at the top of the file it names.
/// Not suppressible: the fix is the root list.
pub fn unmatched_roots(files: &[ParsedFile]) -> Vec<Finding> {
    let facts: Vec<FnFacts> = files
        .iter()
        .filter(|f| !is_test_file(&f.path))
        .flat_map(extract_facts)
        .collect();
    let by_rule = [
        (READER_ROOTS, "R12"),
        (CONTINUATION_ROOTS, "R12"),
        (REQUEST_ROOTS, "R13"),
    ];
    by_rule
        .into_iter()
        .flat_map(|(roots, rule)| roots.iter().map(move |&root| (root, rule)))
        .filter(|&(root, _)| reachable(&facts, &[root]).is_empty())
        .map(|((path, name), rule)| Finding {
            rule,
            path: path.to_string(),
            line: 1,
            message: format!("analyzer root `{name}` names no function in {path}"),
        })
        .collect()
}

/// Integration-test files (their own crates, not production code).
fn is_test_file(path: &str) -> bool {
    path.contains("/tests/") || path.starts_with("tests/")
}

/// Crate-level resolution domain for a path. Binaries are their own
/// domain: `crates/wire/src/bin/cluster.rs` links the library but its
/// private functions are not callable from it.
fn crate_key(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        let name = rest.split('/').next().unwrap_or(rest);
        if let Some(bin) = rest.split("src/bin/").nth(1) {
            return format!("{name}:bin/{bin}");
        }
        return name.to_string();
    }
    if let Some(rest) = path.strip_prefix("shims/") {
        let name = rest.split('/').next().unwrap_or(rest);
        return format!("shim:{name}");
    }
    "pprox".to_string()
}

/// `crate/file.field` lock identity: scoped enough that two crates' (or
/// two modules') same-named fields stay distinct nodes.
fn lock_id(path: &str, receiver: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    format!("{}/{stem}.{receiver}", crate_key(path))
}

/// A live lock hold inside the body walk.
struct Held {
    lock: String,
    /// Binding name for `let g = x.lock()`; `None` for temporaries.
    binding: Option<String>,
    /// Brace depth at acquisition (released when the scope closes).
    depth: i64,
}

/// Walks every function body in `file`, extracting facts.
fn extract_facts(file: &ParsedFile) -> Vec<FnFacts> {
    let toks = &file.lex.tokens;
    let mut out = Vec::new();
    for f in &file.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if file.in_test(f.start_line) {
            continue;
        }
        // What a `spawn(..)` argument does, another thread does: its
        // calls are not made — and its waits not waited — by this
        // function, under this function's locks. (Thread bodies that
        // matter are roots in their own right.)
        let spawned = spawn_regions(toks, (open, close));
        let on_other_thread = |k: usize| spawned.iter().any(|&(lo, hi)| lo < k && k < hi);
        let calls: Vec<Call> = calls_in(toks, (open, close))
            .into_iter()
            .filter(|c| !on_other_thread(c.tok))
            .collect();
        let mut facts = FnFacts {
            path: file.path.clone(),
            crate_key: crate_key(&file.path),
            name: f.name.clone(),
            acquires: Vec::new(),
            nested: Vec::new(),
            held_calls: Vec::new(),
            calls: Vec::new(),
            blocking: Vec::new(),
            panics: Vec::new(),
        };
        let mut held: Vec<Held> = Vec::new();
        let mut depth: i64 = 0;
        let mut stmt_start = open;
        let mut call_idx = 0usize;
        let mut k = open;
        while k <= close {
            let t = &toks[k];
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    stmt_start = k + 1;
                }
                "}" => {
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                    stmt_start = k + 1;
                }
                ";" => {
                    // Temporaries die at their statement's end.
                    held.retain(|h| h.binding.is_some() || h.depth != depth);
                    stmt_start = k + 1;
                }
                _ => {}
            }
            // Acquisition: `recv . {lock|read|write} ( )` — zero-arg only,
            // which distinguishes parking_lot acquisition from stream IO
            // (`stream.read(&mut buf)` takes an argument).
            let is_acquire = t.kind == crate::lexer::TokKind::Ident
                && matches!(t.text.as_str(), "lock" | "read" | "write")
                && k >= 1
                && toks[k - 1].text == "."
                && toks.get(k + 1).map(|n| n.text == "(").unwrap_or(false)
                && toks.get(k + 2).map(|n| n.text == ")").unwrap_or(false);
            if is_acquire {
                facts
                    .blocking
                    .push((t.line, format!("lock acquisition `.{}()`", t.text), true));
                let receiver = toks
                    .get(k.wrapping_sub(2))
                    .filter(|r| r.kind == crate::lexer::TokKind::Ident && r.text != "self")
                    .map(|r| r.text.clone());
                if let Some(recv) = receiver {
                    let acq = Acq {
                        lock: lock_id(&file.path, &recv),
                        line: t.line,
                    };
                    for h in &held {
                        facts.nested.push((h.lock.clone(), acq.clone()));
                    }
                    facts.acquires.push(acq.clone());
                    let binding = let_binding(toks, stmt_start, k);
                    held.push(Held {
                        lock: acq.lock,
                        binding,
                        depth,
                    });
                }
                k += 1;
                continue;
            }
            // `drop(g)` releases the named guard.
            if t.text == "drop"
                && toks.get(k + 1).map(|n| n.text == "(").unwrap_or(false)
                && toks.get(k + 3).map(|n| n.text == ")").unwrap_or(false)
            {
                if let Some(name) = toks.get(k + 2) {
                    held.retain(|h| h.binding.as_deref() != Some(name.text.as_str()));
                }
            }
            // Merge the precomputed call list.
            while call_idx < calls.len() && calls[call_idx].tok < k {
                call_idx += 1;
            }
            if call_idx < calls.len() && calls[call_idx].tok == k {
                let c = &calls[call_idx];
                if !matches!(c.name.as_str(), "lock" | "read" | "write" | "drop") {
                    for h in &held {
                        facts.held_calls.push((h.lock.clone(), c.clone()));
                    }
                    facts.calls.push(c.clone());
                }
                call_idx += 1;
            }
            // R12: blocking channel ops, sleep, file IO.
            if t.kind == crate::lexer::TokKind::Ident && !on_other_thread(k) {
                let called = toks.get(k + 1).map(|n| n.text == "(").unwrap_or(false);
                let method = k >= 1 && toks[k - 1].text == ".";
                let on_reply_handle = k >= 2 && NOT_A_CHANNEL.contains(&toks[k - 2].text.as_str());
                if called
                    && method
                    && BLOCKING_CHANNEL_OPS.contains(&t.text.as_str())
                    && !on_reply_handle
                {
                    facts.blocking.push((
                        t.line,
                        format!("blocking channel op `.{}()`", t.text),
                        false,
                    ));
                }
                if called && t.text == "sleep" {
                    facts
                        .blocking
                        .push((t.line, "thread sleep".to_string(), false));
                }
                let pathed = toks.get(k + 1).map(|n| n.text == "::").unwrap_or(false);
                if pathed && FS_TYPES.contains(&t.text.as_str()) {
                    facts
                        .blocking
                        .push((t.line, format!("file IO via `{}::`", t.text), false));
                }
                if called && FS_FNS.contains(&t.text.as_str()) && k >= 2 && toks[k - 1].text == "::"
                {
                    facts
                        .blocking
                        .push((t.line, format!("file IO via `{}`", t.text), false));
                }
                // R13: panic-capable sites.
                if called && method && matches!(t.text.as_str(), "unwrap" | "expect") {
                    facts
                        .panics
                        .push((t.line, format!("panic-capable `.{}()`", t.text)));
                }
                if PANIC_MACROS.contains(&t.text.as_str())
                    && toks.get(k + 1).map(|n| n.text == "!").unwrap_or(false)
                {
                    facts
                        .panics
                        .push((t.line, format!("panicking macro `{}!`", t.text)));
                }
            }
            k += 1;
        }
        out.push(facts);
    }
    out
}

/// Token ranges `(open paren, close paren)` of every `spawn(..)` argument
/// list in `toks[range.0..=range.1]`.
fn spawn_regions(toks: &[crate::lexer::Tok], range: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for k in range.0..=range.1.min(toks.len().saturating_sub(1)) {
        if toks[k].text != "spawn" || toks.get(k + 1).map(|t| t.text != "(").unwrap_or(true) {
            continue;
        }
        let mut depth = 0i64;
        for (j, t) in toks.iter().enumerate().take(range.1 + 1).skip(k + 1) {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        out.push((k + 1, j));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// If the statement starting at `stmt_start` is `let [mut] name = <the
/// acquisition at acq_idx> ;`, the guard is bound to `name` (scope
/// lifetime); any other shape is a temporary.
fn let_binding(toks: &[crate::lexer::Tok], stmt_start: usize, acq_idx: usize) -> Option<String> {
    let mut j = stmt_start;
    if toks.get(j).map(|t| t.text != "let").unwrap_or(true) {
        return None;
    }
    j += 1;
    if toks.get(j).map(|t| t.text == "mut").unwrap_or(false) {
        j += 1;
    }
    let name = toks
        .get(j)
        .filter(|t| t.kind == crate::lexer::TokKind::Ident)?;
    // The guard is scope-lived only when the acquisition is the whole
    // right-hand side: `let g = x.lock();` — i.e. the token after the
    // `()` is `;` and the rhs is not a dereference. Both
    // `let v = x.lock().clone();` and `let v = *x.lock();` bind a copied
    // value, and the guard is a temporary.
    if toks.get(j + 1).map(|t| t.text == "=").unwrap_or(false)
        && toks.get(j + 2).map(|t| t.text == "*").unwrap_or(false)
    {
        return None;
    }
    if toks
        .get(acq_idx + 3)
        .map(|t| t.text == ";")
        .unwrap_or(false)
    {
        Some(name.text.clone())
    } else {
        None
    }
}

/// Function indices reachable from `roots` via within-crate, name-based
/// call resolution.
fn reachable(facts: &[FnFacts], roots: &[(&str, &str)]) -> Vec<usize> {
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in facts.iter().enumerate() {
        by_name
            .entry((f.crate_key.as_str(), f.name.as_str()))
            .or_default()
            .push(i);
    }
    let mut queue: Vec<usize> = facts
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            roots
                .iter()
                .any(|(p, n)| f.path.ends_with(p) && f.name == *n)
        })
        .map(|(i, _)| i)
        .collect();
    let mut seen: BTreeSet<usize> = queue.iter().copied().collect();
    while let Some(i) = queue.pop() {
        for c in &facts[i].calls {
            if RESOLUTION_STOPLIST.contains(&c.name.as_str()) {
                continue;
            }
            if let Some(targets) = by_name.get(&(facts[i].crate_key.as_str(), c.name.as_str())) {
                for &t in targets {
                    if seen.insert(t) {
                        queue.push(t);
                    }
                }
            }
        }
    }
    let mut v: Vec<usize> = seen.into_iter().collect();
    v.sort_unstable();
    v
}

/// R11: builds the lock graph (direct nesting + call-propagated
/// acquire-sets), detects cycles, and checks the declared order.
fn lock_order_rule(
    facts: &[FnFacts],
    decl: Option<&str>,
    lex_by_path: &BTreeMap<&str, &ParsedFile>,
    out: &mut GlobalReport,
) {
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in facts.iter().enumerate() {
        by_name
            .entry((f.crate_key.as_str(), f.name.as_str()))
            .or_default()
            .push(i);
    }
    // Fixpoint of transitive acquire-sets: acq*(f) = acq(f) ∪ acq*(callees).
    let mut trans: Vec<BTreeSet<String>> = facts
        .iter()
        .map(|f| f.acquires.iter().map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..facts.len() {
            for c in &facts[i].calls {
                if RESOLUTION_STOPLIST.contains(&c.name.as_str()) {
                    continue;
                }
                if let Some(ts) = by_name.get(&(facts[i].crate_key.as_str(), c.name.as_str())) {
                    for &t in ts {
                        if t == i {
                            continue;
                        }
                        let add: Vec<String> = trans[t].difference(&trans[i]).cloned().collect();
                        if !add.is_empty() {
                            trans[i].extend(add);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Edges: direct nesting + (held lock → callee's transitive acquires).
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    for f in facts {
        for a in &f.acquires {
            nodes.insert(a.lock.clone());
        }
    }
    for (i, f) in facts.iter().enumerate() {
        for (from, acq) in &f.nested {
            edges
                .entry((from.clone(), acq.lock.clone()))
                .or_insert((f.path.clone(), acq.line));
        }
        for (from, call) in &f.held_calls {
            if RESOLUTION_STOPLIST.contains(&call.name.as_str()) {
                continue;
            }
            if let Some(ts) = by_name.get(&(facts[i].crate_key.as_str(), call.name.as_str())) {
                for &t in ts {
                    // A same-named method resolving to the enclosing
                    // function is almost always a trait method on another
                    // type (`guard.select(...)` inside `fn select`), not
                    // recursion; skip to avoid reflexive false cycles.
                    if t == i {
                        continue;
                    }
                    for to in &trans[t] {
                        edges
                            .entry((from.clone(), to.clone()))
                            .or_insert((f.path.clone(), call.line));
                    }
                }
            }
        }
    }
    let edges: Vec<LockEdge> = edges
        .into_iter()
        .map(|((from, to), (path, line))| LockEdge {
            from,
            to,
            path,
            line,
        })
        .collect();

    // Cycle detection (three-color DFS over the deduplicated edges).
    let node_list: Vec<&String> = nodes.iter().collect();
    let index: BTreeMap<&str, usize> = node_list
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); node_list.len()];
    for e in &edges {
        if let (Some(&a), Some(&b)) = (index.get(e.from.as_str()), index.get(e.to.as_str())) {
            adj[a].push(b);
        }
    }
    let mut color = vec![0u8; node_list.len()]; // 0 white, 1 grey, 2 black
    let mut cycle_edges: Vec<&LockEdge> = Vec::new();
    for start in 0..node_list.len() {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&(u, next)) = stack.last() {
            if next < adj[u].len() {
                stack.last_mut().expect("just peeked").1 += 1;
                let v = adj[u][next];
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => {
                        // Back edge u→v closes a cycle.
                        if let Some(e) = edges
                            .iter()
                            .find(|e| e.from == *node_list[u] && e.to == *node_list[v])
                        {
                            cycle_edges.push(e);
                        }
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }
    for e in &cycle_edges {
        let msg = if e.from == e.to {
            format!(
                "lock `{}` re-acquired while already held (self-deadlock)",
                e.from
            )
        } else {
            format!(
                "lock-order cycle: `{}` is acquired while `{}` is held, and the reverse \
                 nesting also exists",
                e.to, e.from
            )
        };
        if let Some(pf) = lex_by_path.get(e.path.as_str()) {
            emit_global(&mut out.report, &pf.lex, "R11", &e.path, e.line, msg);
        }
    }

    // Declared-order check.
    if let Some(text) = decl {
        let order: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let pos: BTreeMap<&str, usize> = order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        for e in &edges {
            let missing: Vec<&str> = [e.from.as_str(), e.to.as_str()]
                .into_iter()
                .filter(|n| !pos.contains_key(n))
                .collect();
            if !missing.is_empty() {
                if let Some(pf) = lex_by_path.get(e.path.as_str()) {
                    emit_global(
                        &mut out.report,
                        &pf.lex,
                        "R11",
                        &e.path,
                        e.line,
                        format!(
                            "lock(s) {} participate in nesting but are not in the declared \
                             lock order",
                            missing.join(", ")
                        ),
                    );
                }
                continue;
            }
            if e.from != e.to && pos[e.from.as_str()] >= pos[e.to.as_str()] {
                if let Some(pf) = lex_by_path.get(e.path.as_str()) {
                    emit_global(
                        &mut out.report,
                        &pf.lex,
                        "R11",
                        &e.path,
                        e.line,
                        format!(
                            "`{}` acquired while `{}` is held, against the declared order",
                            e.to, e.from
                        ),
                    );
                }
            }
        }
    }

    out.graph = LockGraph {
        cycle_free: cycle_edges.is_empty(),
        nodes: nodes.into_iter().collect(),
        edges,
    };
}

/// R13 classification for the wire crate: every panic-capable site in
/// `crates/wire` bucketed as test / request-path / other.
fn classify_panics(
    files: &[ParsedFile],
    facts: &[FnFacts],
    req_reach: &[usize],
) -> PanicClassification {
    let mut c = PanicClassification::default();
    let on_path: BTreeSet<(&str, usize)> = req_reach
        .iter()
        .flat_map(|&i| {
            facts[i]
                .panics
                .iter()
                .map(move |(line, _)| (facts[i].path.as_str(), *line))
        })
        .collect();
    for file in files {
        if !file.path.starts_with("crates/wire/") {
            continue;
        }
        let toks = &file.lex.tokens;
        for (k, t) in toks.iter().enumerate() {
            let method_call = matches!(t.text.as_str(), "unwrap" | "expect")
                && k >= 1
                && toks[k - 1].text == "."
                && toks.get(k + 1).map(|n| n.text == "(").unwrap_or(false);
            let macro_site = PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(k + 1).map(|n| n.text == "!").unwrap_or(false);
            if !method_call && !macro_site {
                continue;
            }
            c.total += 1;
            if is_test_file(&file.path) || file.in_test(t.line) {
                c.test += 1;
            } else if on_path.contains(&(file.path.as_str(), t.line)) {
                c.request_path += 1;
            } else {
                c.other += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn run(files: &[(&str, &str)], decl: Option<&str>) -> GlobalReport {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse_source(p, s)).collect();
        analyze_global(&parsed, decl)
    }

    #[test]
    fn nested_acquisition_builds_an_edge() {
        let src = "struct S;\nimpl S {\n  fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    drop(b);\n    drop(a);\n  }\n}\n";
        let g = run(&[("crates/wire/src/x.rs", src)], None);
        assert!(g.report.findings.is_empty());
        assert_eq!(g.graph.edges.len(), 1);
        assert_eq!(g.graph.edges[0].from, "wire/x.alpha");
        assert_eq!(g.graph.edges[0].to, "wire/x.beta");
        assert!(g.graph.cycle_free);
    }

    #[test]
    fn inverted_nesting_is_a_cycle() {
        let src = "impl S {\n  fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n  fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n}\n";
        let g = run(&[("crates/wire/src/x.rs", src)], None);
        assert!(!g.graph.cycle_free);
        assert!(g.report.findings.iter().any(|f| f.rule == "R11"));
    }

    #[test]
    fn cross_function_nesting_propagates_through_calls() {
        let src = "impl S {\n  fn outer(&self) { let a = self.alpha.lock(); self.inner(); }\n  fn inner(&self) { let b = self.beta.lock(); }\n}\n";
        let g = run(&[("crates/wire/src/x.rs", src)], None);
        assert_eq!(g.graph.edges.len(), 1);
        assert_eq!(g.graph.edges[0].from, "wire/x.alpha");
        assert_eq!(g.graph.edges[0].to, "wire/x.beta");
    }

    #[test]
    fn dropped_guard_is_not_held() {
        let src = "impl S {\n  fn f(&self) { let a = self.alpha.lock(); drop(a); let b = self.beta.lock(); }\n}\n";
        let g = run(&[("crates/wire/src/x.rs", src)], None);
        assert!(g.graph.edges.is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src =
            "impl S {\n  fn f(&self) { self.alpha.lock().push(1); let b = self.beta.lock(); }\n}\n";
        let g = run(&[("crates/wire/src/x.rs", src)], None);
        assert!(g.graph.edges.is_empty());
    }

    #[test]
    fn declared_order_violation_fires() {
        let src =
            "impl S {\n  fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n}\n";
        let decl = "wire/x.beta\nwire/x.alpha\n";
        let g = run(&[("crates/wire/src/x.rs", src)], Some(decl));
        assert!(g
            .report
            .findings
            .iter()
            .any(|f| f.rule == "R11" && f.message.contains("declared order")));
    }

    #[test]
    fn undeclared_participant_fires() {
        let src =
            "impl S {\n  fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n}\n";
        let g = run(&[("crates/wire/src/x.rs", src)], Some("# empty\n"));
        assert!(g
            .report
            .findings
            .iter()
            .any(|f| f.rule == "R11" && f.message.contains("not in the declared")));
    }

    #[test]
    fn reader_lock_sleep_and_blocking_channel_ops_fire_r12() {
        let src = "fn read_loop(&self) {\n    let g = self.conns.lock();\n    std::thread::sleep(d);\n    helper();\n}\nfn helper() { ch.recv(); jobs.send(job); jobs.try_send(job); }\n";
        let g = run(&[("crates/wire/src/server.rs", src)], None);
        let r12: Vec<_> = g
            .report
            .findings
            .iter()
            .filter(|f| f.rule == "R12")
            .collect();
        assert_eq!(r12.len(), 4, "{r12:?}");
    }

    #[test]
    fn continuations_may_lock_but_not_wait_sleep_or_send() {
        let src = "fn read_replies(link: &Link) {\n    let g = link.pending.lock();\n    finish();\n}\nfn finish() { tx.send(x); std::thread::sleep(d); reply.send(r); job.reply.send(r); }\n";
        let g = run(&[("crates/wire/src/client.rs", src)], None);
        let r12: Vec<_> = g
            .report
            .findings
            .iter()
            .filter(|f| f.rule == "R12")
            .collect();
        // The channel send and the sleep; not the lock, not `reply.send`.
        assert_eq!(r12.len(), 2, "{r12:?}");
        assert!(r12.iter().all(|f| f.line == 5));
        assert!(r12[0].message.contains("continuation"));
    }

    #[test]
    fn a_site_under_both_kinds_of_root_is_reported_once_and_strictly() {
        let src = "fn read_loop(&self) { shared(); }\nfn send(self) { shared(); }\nfn shared() { let g = conn.writer.lock(); ch.recv(); }\n";
        let g = run(&[("crates/wire/src/server.rs", src)], None);
        let r12: Vec<_> = g
            .report
            .findings
            .iter()
            .filter(|f| f.rule == "R12")
            .collect();
        assert_eq!(r12.len(), 2, "{r12:?}");
        assert!(r12.iter().all(|f| f.message.contains("connection reader")));
    }

    #[test]
    fn what_a_spawned_closure_does_is_not_done_by_the_spawner() {
        let src = "fn read_loop(&self) {\n    let g = self.conns.lock();\n    std::thread::spawn(move || { body(); ch.recv(); });\n}\nfn body() { let p = self.pending.lock(); std::thread::sleep(d); }\n";
        let g = run(&[("crates/wire/src/server.rs", src)], None);
        let r12: Vec<_> = g
            .report
            .findings
            .iter()
            .filter(|f| f.rule == "R12")
            .collect();
        // The reader's own lock; nothing of the spawned thread's.
        assert_eq!(r12.len(), 1, "{r12:?}");
        assert_eq!(r12[0].line, 2);
        assert!(g.graph.edges.is_empty(), "{:?}", g.graph.edges);
    }

    #[test]
    fn stream_read_with_args_is_not_a_lock() {
        let src = "fn read_loop(&self) { stream.read(&mut buf); out.write(&bytes); }\n";
        let g = run(&[("crates/wire/src/server.rs", src)], None);
        assert!(g.report.findings.is_empty());
    }

    #[test]
    fn r12_suppression_is_recorded() {
        let src = "fn read_loop(&self) {\n    // analysis-allow: R12 the connection's own writer lock\n    let g = conn.writer.lock();\n}\n";
        let g = run(&[("crates/wire/src/server.rs", src)], None);
        assert!(g.report.findings.is_empty());
        assert_eq!(g.report.suppressions.len(), 1);
    }

    #[test]
    fn request_path_unwrap_fires_r13() {
        let src = "impl Svc {\n  fn serve(&self) { let x = decode().unwrap(); step(); }\n}\nfn step() { panic!(\"boom\"); }\nfn off_path() { other.unwrap(); }\n";
        let g = run(&[("crates/wire/src/services/ua.rs", src)], None);
        let r13: Vec<_> = g
            .report
            .findings
            .iter()
            .filter(|f| f.rule == "R13")
            .collect();
        assert_eq!(r13.len(), 2, "{r13:?}");
        assert_eq!(g.panics.total, 3);
        assert_eq!(g.panics.request_path, 2);
        assert_eq!(g.panics.other, 1);
    }

    #[test]
    fn panic_ok_directive_suppresses_r13() {
        let src = "impl Svc {\n  fn serve(&self) {\n    // analysis-allow: panic-ok checked by construction above\n    let x = decode().unwrap();\n  }\n}\n";
        let g = run(&[("crates/wire/src/services/ua.rs", src)], None);
        assert!(g.report.findings.is_empty());
        assert_eq!(g.report.suppressions.len(), 1);
    }

    #[test]
    fn test_regions_and_test_files_exempt() {
        let src = "fn read_loop(&self) {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.lock(); y.unwrap(); }\n}\n";
        let g = run(&[("crates/wire/src/server.rs", src)], None);
        assert!(g.report.findings.is_empty());
        let g2 = run(
            &[("crates/wire/tests/e2e.rs", "fn read_loop() { x.lock(); }")],
            None,
        );
        assert!(g2.report.findings.is_empty());
    }

    #[test]
    fn a_root_that_names_no_function_is_a_finding() {
        let mut sources: BTreeMap<&str, String> = BTreeMap::new();
        for (path, name) in [READER_ROOTS, CONTINUATION_ROOTS, REQUEST_ROOTS].concat() {
            let source = sources.entry(path).or_default();
            source.push_str(&format!("fn {name}() {{}}\n"));
        }
        let parse = |sources: &BTreeMap<&str, String>| -> Vec<ParsedFile> {
            sources.iter().map(|(p, s)| parse_source(p, s)).collect()
        };
        assert!(unmatched_roots(&parse(&sources)).is_empty());

        // A continuation renamed, and a request root's whole file gone.
        let ua = sources.get_mut("crates/wire/src/services/ua.rs").unwrap();
        *ua = ua.replace("fn flush_due(", "fn flush_now(");
        sources.remove("crates/wire/src/services/lrs.rs");
        let found = unmatched_roots(&parse(&sources));
        let named: Vec<_> = found.iter().map(|f| (f.rule, f.path.as_str())).collect();
        assert_eq!(
            named,
            [
                ("R12", "crates/wire/src/services/ua.rs"),
                ("R13", "crates/wire/src/services/lrs.rs"),
            ]
        );
        assert!(found[0].message.contains("`flush_due`"), "{found:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "impl Svc {\n  fn serve(&self) { let x = decode().unwrap_or_else(|| fallback()); }\n}\n";
        let g = run(&[("crates/wire/src/services/ua.rs", src)], None);
        assert!(g.report.findings.is_empty());
    }
}
