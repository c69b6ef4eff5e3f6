//! The analyzer against the real workspace: the tree must scan clean, and
//! a seeded violation injected into the *actual* `ua.rs` source must be
//! caught — proving the layer-separation rule guards the real layer
//! modules, not just synthetic fixtures.

use pprox_analysis::locks::analyze_global;
use pprox_analysis::parser::parse_source;
use pprox_analysis::rules::analyze_file;
use pprox_analysis::{analyze_workspace, report};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_scans_clean() {
    let report = analyze_workspace(&workspace_root()).expect("scan");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace has privacy-flow violations:\n{:#?}",
        report.findings
    );
    // The known, documented escape hatches (telemetry epoch, SecretBag's
    // redacting-by-construction derive) are suppressions, not silence.
    assert!(
        !report.suppressions.is_empty(),
        "expected the documented analysis-allow sites to be reported"
    );
}

#[test]
fn seeded_violation_in_real_ua_source_is_caught() {
    let ua_path = workspace_root().join("crates/core/src/ua.rs");
    let original = std::fs::read_to_string(&ua_path).expect("read ua.rs");

    // The shipped module is clean…
    let clean = analyze_file("crates/core/src/ua.rs", &original);
    assert!(
        clean.findings.is_empty(),
        "real ua.rs should be clean: {:#?}",
        clean.findings
    );

    // …but one stray function taking an item id, appended to the very
    // same source, trips R1.
    let seeded = format!("{original}\nfn peek(_x: &PlaintextItemId) {{}}\n");
    let report = analyze_file("crates/core/src/ua.rs", &seeded);
    assert!(
        report.findings.iter().any(|f| f.rule == "R1"),
        "seeded PlaintextItemId reference in ua.rs must fire R1: {:#?}",
        report.findings
    );
}

#[test]
fn seeded_violation_in_real_ia_source_is_caught() {
    let ia_path = workspace_root().join("crates/core/src/ia.rs");
    let original = std::fs::read_to_string(&ia_path).expect("read ia.rs");
    let clean = analyze_file("crates/core/src/ia.rs", &original);
    assert!(clean.findings.is_empty(), "{:#?}", clean.findings);

    let seeded = format!("{original}\nfn join(_c: &UserClient) {{}}\n");
    let report = analyze_file("crates/core/src/ia.rs", &seeded);
    assert!(
        report.findings.iter().any(|f| f.rule == "R2"),
        "seeded UserClient reference in ia.rs must fire R2: {:#?}",
        report.findings
    );
}

#[test]
fn wire_transport_handlers_are_in_scope_and_clean() {
    // The wire crate is in the analyzer's scan set (NOT allowlisted):
    // the transport handlers must satisfy the same layer-separation and
    // telemetry rules as the core modules.
    let ua_path = workspace_root().join("crates/wire/src/services/ua.rs");
    let original = std::fs::read_to_string(&ua_path).expect("read wire ua service");
    let clean = analyze_file("crates/wire/src/services/ua.rs", &original);
    assert!(
        clean.findings.is_empty(),
        "wire UA service should be clean: {:#?}",
        clean.findings
    );

    // Seeding an arrival-timestamped span export into the wire UA
    // handler — the R6 arrival-oracle pattern — must fire, whatever
    // stage it names: a per-request record would let a telemetry
    // observer correlate arrivals across the shuffle boundary.
    let seeded = format!(
        "{original}\nfn leak(t: &Telemetry, s: SpanRecord) {{\n    t.record_span(SpanRecord {{ stage: Stage::Ua, ..s }});\n}}\n"
    );
    let report = analyze_file("crates/wire/src/services/ua.rs", &seeded);
    assert!(
        report.findings.iter().any(|f| f.rule == "R6"),
        "seeded span export in wire handler must fire R6: {:#?}",
        report.findings
    );
}

#[test]
fn durable_store_is_in_scope_and_secret_key_debug_is_caught() {
    // The store crate is in the analyzer's scan set (NOT allowlisted):
    // the persistence layer holds the data-encryption key and must obey
    // the same secret-hygiene rules as the crypto modules.
    let keyring_path = workspace_root().join("crates/store/src/keyring.rs");
    let original = std::fs::read_to_string(&keyring_path).expect("read store keyring");
    let clean = analyze_file("crates/store/src/keyring.rs", &original);
    assert!(
        clean.findings.is_empty(),
        "store keyring should be clean: {:#?}",
        clean.findings
    );

    // Seeding a `derive(Debug)` onto the DEK newtype — which ships with
    // a manual, redacting Debug — must fire R4: a derived Debug would
    // print the key bytes into any log that formats the store.
    let seeded = format!("{original}\n#[derive(Debug)]\npub struct StoreKey2();\n")
        .replace("pub struct StoreKey2", "pub struct StoreKey");
    let report = analyze_file("crates/store/src/keyring.rs", &seeded);
    assert!(
        report.findings.iter().any(|f| f.rule == "R4"),
        "seeded derive(Debug) on StoreKey must fire R4: {:#?}",
        report.findings
    );
}

#[test]
fn workspace_report_roundtrips_through_validator() {
    let r = analyze_workspace(&workspace_root()).expect("scan");
    report::validate(&r.to_value().to_json()).expect("self-produced report must validate");
}

#[test]
fn seeded_taint_leak_in_real_ua_source_is_caught() {
    // R10: the taint pass guards the real UA module — a function that
    // launders key material through a local binding and formats it must
    // fire even though the binding name is on no deny list.
    let ua_path = workspace_root().join("crates/core/src/ua.rs");
    let original = std::fs::read_to_string(&ua_path).expect("read ua.rs");
    let seeded = format!(
        "{original}\nfn stray(key: &SecretBytes) {{\n    let k = key.expose();\n    let _ = format!(\"{{k:?}}\");\n}}\n"
    );
    let report = analyze_file("crates/core/src/ua.rs", &seeded);
    assert!(
        report.findings.iter().any(|f| f.rule == "R10"),
        "seeded laundered-secret format in ua.rs must fire R10: {:#?}",
        report.findings
    );
}

#[test]
fn seeded_lock_inversion_in_real_scrape_source_is_caught() {
    // R11: the real scrape module nests the uplink registry over the
    // balancer ring; seeding a pair of functions that nest the scrape
    // module's own locks in opposite orders must close a cycle.
    let path = workspace_root().join("crates/wire/src/scrape.rs");
    let original = std::fs::read_to_string(&path).expect("read scrape.rs");

    let parsed = parse_source("crates/wire/src/scrape.rs", &original);
    let clean = analyze_global(std::slice::from_ref(&parsed), None);
    assert!(
        clean.report.findings.is_empty(),
        "real scrape.rs alone should be R11-clean: {:#?}",
        clean.report.findings
    );

    let seeded = format!(
        "{original}\nfn seeded_fwd(h: &Hub) {{\n    let a = h.uplinks.lock();\n    let b = h.telemetry.lock();\n    a.touch(&b);\n}}\nfn seeded_rev(h: &Hub) {{\n    let b = h.telemetry.lock();\n    let a = h.uplinks.lock();\n    b.touch(&a);\n}}\n"
    );
    let parsed = parse_source("crates/wire/src/scrape.rs", &seeded);
    let global = analyze_global(std::slice::from_ref(&parsed), None);
    assert!(
        global.report.findings.iter().any(|f| f.rule == "R11"),
        "seeded lock inversion in scrape.rs must fire R11: {:#?}",
        global.report.findings
    );
    assert!(!global.graph.cycle_free, "seeded cycle must mark the graph");
}

#[test]
fn stripping_the_writer_lock_directive_resurfaces_r12() {
    // R12: the real connection reader answers `busy` and scrapes under
    // its connection's writer lock, allowed only because of the audited
    // directive on that acquisition — removing the directive (without
    // touching the code) must bring the finding back.
    let path = workspace_root().join("crates/wire/src/server.rs");
    let original = std::fs::read_to_string(&path).expect("read server.rs");

    let parsed = parse_source("crates/wire/src/server.rs", &original);
    let clean = analyze_global(std::slice::from_ref(&parsed), None);
    assert!(
        !clean.report.findings.iter().any(|f| f.rule == "R12"),
        "real server.rs must be R12-clean (directive honored): {:#?}",
        clean.report.findings
    );
    assert!(
        clean.report.suppressions.iter().any(|s| s.rule == "R12"),
        "the audited writer lock must be visible as a suppression"
    );

    let stripped = original.replace("analysis-allow: R12", "note:");
    assert_ne!(stripped, original, "directive should exist to strip");
    let parsed = parse_source("crates/wire/src/server.rs", &stripped);
    let global = analyze_global(std::slice::from_ref(&parsed), None);
    assert!(
        global
            .report
            .findings
            .iter()
            .any(|f| f.rule == "R12" && f.message.contains("lock acquisition")),
        "stripping the directive must resurface the reader's writer lock: {:#?}",
        global.report.findings
    );
}

#[test]
fn seeded_blocking_wait_in_real_reader_is_caught() {
    // R12: making the reader wait for room in the worker queue before it
    // queues a pass — the edit that would turn overload from `busy`
    // replies into a hang — must fire.
    let path = workspace_root().join("crates/wire/src/server.rs");
    let original = std::fs::read_to_string(&path).expect("read server.rs");
    let push = "table.passes.push_back(pass);";
    let seeded = original.replace(
        push,
        &format!("while !table.passes.is_empty() {{ table = self.job_ready.wait(table).unwrap(); }}\n{push}"),
    );
    assert_ne!(seeded, original, "the reader's hand-off should exist");
    let parsed = parse_source("crates/wire/src/server.rs", &seeded);
    let global = analyze_global(std::slice::from_ref(&parsed), None);
    assert!(
        global
            .report
            .findings
            .iter()
            .any(|f| f.rule == "R12" && f.message.contains("`.wait()`")),
        "a blocking wait reachable from the reader must fire R12: {:#?}",
        global.report.findings
    );
}

#[test]
fn seeded_sleep_in_the_retry_loop_completion_is_caught() {
    // R12: the one retry loop's completion runs on an uplink reader or
    // the deadline queue; a sleep there must be reported, which proves
    // the loop is still among the continuation roots.
    let path = workspace_root().join("crates/wire/src/client.rs");
    let original = std::fs::read_to_string(&path).expect("read client.rs");
    let parsed = parse_source("crates/wire/src/client.rs", &original);
    let clean = analyze_global(std::slice::from_ref(&parsed), None);
    assert!(
        !clean.report.findings.iter().any(|f| f.rule == "R12"),
        "real client.rs must be R12-clean: {:#?}",
        clean.report.findings
    );

    let completion = "fn attempted(mut self, started: Instant, result: CallResult) {";
    let seeded = original.replace(
        completion,
        &format!("{completion}\n        std::thread::sleep(Duration::from_millis(1));"),
    );
    assert_ne!(seeded, original, "the loop's completion should exist");
    let parsed = parse_source("crates/wire/src/client.rs", &seeded);
    let global = analyze_global(std::slice::from_ref(&parsed), None);
    assert!(
        global.report.findings.iter().any(|f| f.rule == "R12"
            && f.message.contains("thread sleep")
            && f.message.contains("`attempted`")),
        "a sleep in the retry loop's completion must fire R12: {:#?}",
        global.report.findings
    );
}

#[test]
fn seeded_panic_on_real_request_path_is_caught() {
    // R13: an unwrap added to the real wire UA service module, reachable
    // from the `serve` request root, must fire.
    let path = workspace_root().join("crates/wire/src/services/ua.rs");
    let original = std::fs::read_to_string(&path).expect("read wire ua service");
    let seeded = format!("{original}\nfn serve(x: Option<u64>) -> u64 {{\n    x.unwrap()\n}}\n");
    let parsed = parse_source("crates/wire/src/services/ua.rs", &seeded);
    let global = analyze_global(std::slice::from_ref(&parsed), None);
    assert!(
        global.report.findings.iter().any(|f| f.rule == "R13"),
        "seeded unwrap on the request path must fire R13: {:#?}",
        global.report.findings
    );
}

#[test]
fn seeded_panic_in_the_ia_pass_entry_is_caught() {
    // R13: the IA's reader-pass entry is a request root of its own —
    // nothing in ia.rs calls it — so an unwrap planted in it must fire.
    let path = workspace_root().join("crates/wire/src/services/ia.rs");
    let original = std::fs::read_to_string(&path).expect("read wire ia service");
    let entry = "fn serve(&self, pass: Pass) {";
    let seeded = original.replace(
        entry,
        &format!("{entry}\n        let _first = pass.first().unwrap();"),
    );
    assert_ne!(seeded, original, "the pass entry should exist");
    for (source, planted) in [(&original, false), (&seeded, true)] {
        let parsed = parse_source("crates/wire/src/services/ia.rs", source);
        let global = analyze_global(std::slice::from_ref(&parsed), None);
        let fired = global
            .report
            .findings
            .iter()
            .any(|f| f.rule == "R13" && f.message.contains("`serve`"));
        assert_eq!(fired, planted, "{:#?}", global.report.findings);
    }
}

#[test]
fn seeded_panic_in_the_ua_request_turn_is_caught() {
    // R13: the UA's turn for a request runs as a boxed task on whichever
    // thread holds the enclave's turn, posted by `serve` through
    // `Turns::run` — an unwrap planted in it must still be reported as on
    // the request path.
    let path = workspace_root().join("crates/wire/src/services/ua.rs");
    let original = std::fs::read_to_string(&path).expect("read wire ua service");
    let entry =
        "fn open_request(self: &Arc<Self>, payload: Vec<u8>, deadline: Deadline, reply: Reply) {";
    let seeded = original.replace(
        entry,
        &format!("{entry}\n        let _first = payload.first().unwrap();"),
    );
    assert_ne!(seeded, original, "the request turn should exist");
    for (source, planted) in [(&original, false), (&seeded, true)] {
        let parsed = parse_source("crates/wire/src/services/ua.rs", source);
        let global = analyze_global(std::slice::from_ref(&parsed), None);
        let fired = global
            .report
            .findings
            .iter()
            .any(|f| f.rule == "R13" && f.message.contains("`open_request`"));
        assert_eq!(fired, planted, "{:#?}", global.report.findings);
    }
}

#[test]
fn members_are_scanned_or_exempt() {
    // The scan set is derived from the workspace manifest: a new crate
    // lands in the analyzer's jurisdiction the moment it joins the
    // build graph, unless a reviewed SCAN_EXEMPT entry says otherwise.
    let root = workspace_root();
    let members = pprox_analysis::workspace_members(&root).expect("members");
    assert!(
        members.len() >= 5,
        "suspiciously few workspace members: {members:?}"
    );
    let roots = pprox_analysis::scan_roots(&root).expect("scan roots");
    for m in &members {
        let covered = roots.contains(m) || pprox_analysis::SCAN_EXEMPT.iter().any(|(e, _)| e == m);
        assert!(
            covered,
            "workspace member `{m}` is neither scanned nor allowlisted in SCAN_EXEMPT"
        );
    }
    // And exemptions must not rot: every entry still names a member.
    for (e, why) in pprox_analysis::SCAN_EXEMPT {
        assert!(
            members.iter().any(|m| m == e),
            "SCAN_EXEMPT entry `{e}` ({why}) is not a workspace member"
        );
    }
}

#[test]
fn workspace_lock_graph_is_cycle_free_and_declared() {
    let r = analyze_workspace(&workspace_root()).expect("scan");
    assert!(r.lock_graph.cycle_free, "edges: {:#?}", r.lock_graph.edges);
    assert!(
        !r.lock_graph.edges.is_empty(),
        "expected the scrape-path nesting edge to be recovered"
    );
    assert_eq!(
        r.panics.request_path, 0,
        "request path must be panic-free (or carry audited panic-ok)"
    );
    assert_eq!(
        r.panics.total,
        r.panics.request_path + r.panics.test + r.panics.other,
        "panic classification must partition"
    );
}

#[test]
fn workspace_suppressions_are_within_committed_budget() {
    let root = workspace_root();
    let r = analyze_workspace(&root).expect("scan");
    let budget = std::fs::read_to_string(root.join("results/ANALYSIS_budget.json"))
        .expect("committed suppression budget");
    report::check_ratchet(&r, &budget).expect("suppression ratchet must hold");
}
