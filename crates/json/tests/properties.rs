//! Property-based tests: parse/write roundtrips.

use pprox_json::{parser, writer, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy generating arbitrary JSON values of bounded depth.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        // Finite, roundtrippable numbers.
        (-1e9f64..1e9f64).prop_map(Value::Number),
        "[a-zA-Z0-9 _\\-\\.\"\\\\]{0,12}".prop_map(Value::String),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..4)
                .prop_map(|m| Value::Object(m.into_iter().collect::<BTreeMap<_, _>>())),
        ]
    })
}

proptest! {
    #[test]
    fn write_parse_roundtrip(v in value_strategy()) {
        let text = writer::write(&v);
        let reparsed = parser::parse(&text).unwrap();
        // Numbers may lose trailing `.0` formatting but values compare equal
        // because both sides go through f64.
        prop_assert_eq!(reparsed, v);
    }

    #[test]
    fn write_is_deterministic(v in value_strategy()) {
        prop_assert_eq!(writer::write(&v), writer::write(&v));
    }

    #[test]
    fn parse_never_panics(s in "\\PC{0,64}") {
        let _ = parser::parse(&s); // must not panic regardless of outcome
    }
}
