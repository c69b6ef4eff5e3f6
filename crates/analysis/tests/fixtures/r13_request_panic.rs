// fixture-role: crates/wire/src/services/ua.rs
// expect: R13
// expect-suppressed: R13
//
// R13: the request path may not panic. `serve` is a request root; the
// unwrap in the helper it calls is reachable and must either become a
// typed error or carry an audited `panic-ok` justification.

fn serve(req: &Request) -> Response {
    let user = decode(req).unwrap();
    finish(user)
}

fn finish(user: User) -> Response {
    // analysis-allow: panic-ok fixture-only: capacity proven at admission
    let slot = user.slot.expect("admission reserved a slot");
    Response::ok(slot)
}
