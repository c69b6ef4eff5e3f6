//! `pprox_json::schema`: the one checker every exported document goes
//! through. Each violation names its path and key.

use pprox_json::schema::{
    above, assert_exact, at_least, ensure, flag, integers, is, list, number, text, Schema,
};
use pprox_json::Value;

fn doc(text: &str) -> Value {
    Value::parse(text).unwrap()
}

/// Root `{n, tag, rows: [{id, cells: [int]}], meta: {on}}`.
fn schema() -> Schema {
    Schema::object([
        ("n", Schema::U64),
        ("tag", Schema::one_of(["a", "b"])),
        (
            "rows",
            Schema::array(Schema::object([
                ("id", Schema::Str),
                ("cells", Schema::array(Schema::U64)),
            ])),
        ),
        ("meta", Schema::object([("on", Schema::Bool)])),
    ])
}

const GOOD: &str = r#"{"n":3,"tag":"a","rows":[{"id":"x","cells":[1,2]},{"id":"y","cells":[]}],"meta":{"on":true}}"#;

fn err(text: &str) -> String {
    schema().check(&doc(text)).unwrap_err()
}

#[test]
fn accepts_the_declared_shape() {
    schema().check(&doc(GOOD)).unwrap();
}

#[test]
fn missing_key_is_named_with_its_path() {
    assert_eq!(err(r#"{"n":3}"#), "tag: missing");
    let text = GOOD.replace(r#"{"on":true}"#, "{}");
    assert_eq!(err(&text), "meta.on: missing");
}

#[test]
fn unexpected_key_is_named_with_its_path() {
    let text = GOOD.replace(r#""n":3"#, r#""n":3,"trace_id":9"#);
    assert_eq!(err(&text), "trace_id: unexpected key");
    let text = GOOD.replace(r#""on":true"#, r#""on":true,"last_corr":1"#);
    assert_eq!(err(&text), "meta.last_corr: unexpected key");
    let text = GOOD.replace(r#""id":"y""#, r#""id":"y","at_us":[5]"#);
    assert_eq!(err(&text), "rows[1].at_us: unexpected key");
}

#[test]
fn wrong_type_names_path_and_value() {
    let text = GOOD.replace(r#""on":true"#, r#""on":"yes""#);
    assert_eq!(err(&text), r#"meta.on: expected a bool, found "yes""#);
    let text = GOOD.replace(r#""tag":"a""#, r#""tag":"u017""#);
    assert_eq!(
        err(&text),
        r#"tag: expected one of ["a", "b"], found "u017""#
    );
    let text = GOOD.replace(r#""meta":{"on":true}"#, r#""meta":[]"#);
    assert_eq!(err(&text), "meta: expected an object, found an array");
    assert_eq!(
        schema().check(&Value::Null).unwrap_err(),
        "expected an object, found null"
    );
}

#[test]
fn non_integer_where_an_integer_is_due() {
    for bad in ["3.5", "-1", "\"3\"", "9007199254740994"] {
        let text = GOOD.replace(r#""n":3"#, &format!(r#""n":{bad}"#));
        let e = err(&text);
        assert!(
            e.starts_with("n: expected a non-negative integer"),
            "{bad}: {e}"
        );
    }
    let text = GOOD.replace("[1,2]", "[1,2.5]");
    assert_eq!(
        err(&text),
        "rows[0].cells[1]: expected a non-negative integer, found 2.5"
    );
}

#[test]
fn numbers_are_finite_and_non_negative() {
    let number = Schema::Number;
    number.check(&Value::from(0.25)).unwrap();
    number.check(&Value::from(7u64)).unwrap();
    for bad in [f64::NAN, f64::INFINITY, -0.5] {
        assert!(number.check(&Value::Number(bad)).is_err(), "{bad}");
    }
}

#[test]
fn map_keys_pass_the_predicate() {
    let stages = Schema::map(|k| ["ua", "ia"].contains(&k), Schema::U64);
    stages.check(&doc(r#"{"ua":1}"#)).unwrap();
    stages.check(&doc("{}")).unwrap();
    assert_eq!(
        stages.check(&doc(r#"{"ua":1,"u017":2}"#)).unwrap_err(),
        "u017: unexpected key"
    );
    assert_eq!(
        stages.check(&doc(r#"{"ia":true}"#)).unwrap_err(),
        "ia: expected a non-negative integer, found true"
    );
}

#[test]
fn rules_run_after_the_shape_and_report_at_their_node() {
    let schema = Schema::object([(
        "pair",
        Schema::object([("lo", Schema::U64), ("hi", Schema::U64)])
            .with(|p| ensure(number(p, "lo")? <= number(p, "hi")?, "lo above hi")),
    )]);
    schema.check(&doc(r#"{"pair":{"lo":1,"hi":2}}"#)).unwrap();
    assert_eq!(
        schema
            .check(&doc(r#"{"pair":{"lo":3,"hi":2}}"#))
            .unwrap_err(),
        "pair: lo above hi"
    );
    // The shape fails first: the rule never sees a missing field.
    assert_eq!(
        schema.check(&doc(r#"{"pair":{"lo":3}}"#)).unwrap_err(),
        "pair.hi: missing"
    );
}

#[test]
fn stock_rules() {
    let check = |schema: Schema, v: Value| schema.check(&v);
    check(Schema::Bool.with(is(true)), Value::from(true)).unwrap();
    assert_eq!(
        check(Schema::Bool.with(is(true)), Value::from(false)).unwrap_err(),
        "is false, must be true"
    );
    check(Schema::U64.with(at_least(64.0)), Value::from(64u64)).unwrap();
    assert!(check(Schema::U64.with(at_least(64.0)), Value::from(63u64)).is_err());
    check(Schema::Number.with(above(0.9)), Value::from(1.0)).unwrap();
    assert!(check(Schema::Number.with(above(0.9)), Value::from(0.9)).is_err());
}

#[test]
fn integers_and_version() {
    let schema = Schema::object(integers("a b").chain([("schema_version", Schema::version(3))]));
    schema
        .check(&doc(r#"{"a":1,"b":2,"schema_version":3}"#))
        .unwrap();
    assert_eq!(
        schema
            .check(&doc(r#"{"a":1,"b":2,"schema_version":2}"#))
            .unwrap_err(),
        "schema_version: 2 is below 3"
    );
    assert_eq!(
        schema
            .check(&doc(r#"{"a":1,"b":0.5,"schema_version":3}"#))
            .unwrap_err(),
        "b: expected a non-negative integer, found 0.5"
    );
}

#[test]
fn readers_follow_dotted_paths() {
    let d = doc(GOOD);
    assert_eq!(number(&d, "n"), Ok(3.0));
    assert_eq!(number(&d, "rows.0.cells.1"), Ok(2.0));
    assert_eq!(text(&d, "rows.1.id"), Ok("y"));
    assert_eq!(flag(&d, "meta.on"), Ok(true));
    assert_eq!(list(&d, "rows").map(<[Value]>::len), Ok(2));
    assert_eq!(list(&d, "").map(<[Value]>::len), Err("not an array".into()));
    assert_eq!(number(&d, "rows.7.id"), Err("rows.7.id: missing".into()));
    assert_eq!(flag(&d, "tag"), Err("tag: not a bool".into()));
}

#[test]
fn assert_exact_widens_every_named_object() {
    assert_exact(&schema(), &doc(GOOD), &["", "meta", "rows.1"]);
}

#[test]
#[should_panic(expected = "injected: expected a non-negative integer")]
fn assert_exact_wants_the_key_refused_as_unexpected() {
    // Any key passes this map; the injected one fails on its value.
    let open = Schema::map(|_| true, Schema::U64);
    assert_exact(&open, &doc(r#"{"a":1}"#), &[""]);
}
