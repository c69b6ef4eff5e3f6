//! Declarative, exact-key schemas for the documents the deployment
//! exports.
//!
//! A [`Schema`] is a tree of a few node kinds; [`Schema::check`] walks a
//! document once and names the first violation by its dotted path. Every
//! object is exact-key, with no open mode: what may leave a node is a
//! whitelist, and a report with a stray key is stale or hand-edited.
//! Rules that compare fields hang off any node ([`Schema::with`]), run
//! once its shape holds, and read fields with [`number`], [`flag`],
//! [`text`] and [`list`].
//!
//! ```
//! use pprox_json::schema::{integers, Schema};
//! use pprox_json::Value;
//!
//! let schema = Schema::object([
//!     ("report", Schema::one_of(["telemetry"])),
//!     ("schema_version", Schema::version(2)),
//!     ("layers", Schema::array(Schema::object(integers("requests errors")))),
//! ]);
//! let doc = r#"{"report":"telemetry","schema_version":2,"layers":[{"requests":4,"errors":0,"id":7}]}"#;
//! let err = schema.check(&Value::parse(doc)?).unwrap_err();
//! assert_eq!(err, "layers[0].id: unexpected key");
//! # Ok::<(), pprox_json::ParseJsonError>(())
//! ```

use crate::Value;

/// A rule over one node. `Err` says what is wrong with the node; the
/// checker prefixes the node's path.
pub type Rule = Box<dyn Fn(&Value) -> Result<(), String>>;

/// The shape a JSON node must have.
pub enum Schema {
    /// A non-negative integer, at most 2^53 ([`Value::as_u64`]).
    U64,
    /// A finite, non-negative number: every measured quantity the
    /// exported documents carry is one.
    Number,
    /// `true` or `false`.
    Bool,
    /// Any string.
    Str,
    /// One string of a closed set.
    OneOf(Vec<&'static str>),
    /// An array whose every element has the shape.
    ArrayOf(Box<Schema>),
    /// An object with exactly these keys, each value of its shape.
    Object(Vec<(&'static str, Schema)>),
    /// An object whose every key passes the predicate and whose every
    /// value has the shape (a key set too dynamic to list).
    Map(fn(&str) -> bool, Box<Schema>),
    /// A shape, and a rule that runs once the shape holds.
    With(Box<Schema>, Rule),
}

impl Schema {
    /// One string of `values`.
    pub fn one_of(values: impl IntoIterator<Item = &'static str>) -> Schema {
        Schema::OneOf(values.into_iter().collect())
    }

    /// An array of `items`.
    pub fn array(items: Schema) -> Schema {
        Schema::ArrayOf(Box::new(items))
    }

    /// An object with exactly `fields`.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Schema)>) -> Schema {
        Schema::Object(fields.into_iter().collect())
    }

    /// An object whose keys pass `keys` and whose values are `values`.
    pub fn map(keys: fn(&str) -> bool, values: Schema) -> Schema {
        Schema::Map(keys, Box::new(values))
    }

    /// A document's `schema_version`: an integer of at least `min`.
    pub fn version(min: u64) -> Schema {
        Schema::U64.with(at_least(min as f64))
    }

    /// This shape, plus `rule`.
    pub fn with(self, rule: impl Fn(&Value) -> Result<(), String> + 'static) -> Schema {
        Schema::With(Box::new(self), Box::new(rule))
    }

    /// Checks `doc` against the schema.
    ///
    /// # Errors
    ///
    /// The first violation, as `path: what` (`server.poll_loop.counts[2]:
    /// expected an array, found 17`); a violation at the root has no path.
    pub fn check(&self, doc: &Value) -> Result<(), String> {
        self.walk(doc, "")
    }

    fn walk(&self, v: &Value, path: &str) -> Result<(), String> {
        match (self, v) {
            (Schema::ArrayOf(items), Value::Array(elements)) => {
                for (i, e) in elements.iter().enumerate() {
                    items.walk(e, &format!("{path}[{i}]"))?;
                }
                Ok(())
            }
            (Schema::Object(fields), Value::Object(members)) => {
                for (key, field) in fields {
                    match members.get(*key) {
                        Some(member) => field.walk(member, &join(path, key))?,
                        None => return Err(format!("{}: missing", join(path, key))),
                    }
                }
                match members.keys().find(|k| !fields.iter().any(|(f, _)| f == k)) {
                    Some(key) => Err(format!("{}: unexpected key", join(path, key))),
                    None => Ok(()),
                }
            }
            (Schema::Map(keys, values), Value::Object(members)) => {
                for (key, member) in members {
                    if !keys(key) {
                        return Err(format!("{}: unexpected key", join(path, key)));
                    }
                    values.walk(member, &join(path, key))?;
                }
                Ok(())
            }
            (Schema::With(shape, rule), _) => {
                shape.walk(v, path)?;
                rule(v).map_err(|e| at(path, &e))
            }
            (Schema::U64, _) if v.as_u64().is_some() => Ok(()),
            (Schema::Number, Value::Number(n)) if n.is_finite() && *n >= 0.0 => Ok(()),
            (Schema::Bool, Value::Bool(_)) | (Schema::Str, Value::String(_)) => Ok(()),
            (Schema::OneOf(values), Value::String(s)) if values.contains(&s.as_str()) => Ok(()),
            _ => {
                let found = match v {
                    Value::Array(_) => "an array".into(),
                    Value::Object(_) => "an object".into(),
                    scalar => scalar.to_json(),
                };
                Err(at(
                    path,
                    &format!("expected {}, found {found}", self.expected()),
                ))
            }
        }
    }

    fn expected(&self) -> String {
        match self {
            Schema::U64 => "a non-negative integer".into(),
            Schema::Number => "a finite non-negative number".into(),
            Schema::Bool => "a bool".into(),
            Schema::Str => "a string".into(),
            Schema::OneOf(values) => format!("one of {values:?}"),
            Schema::ArrayOf(_) => "an array".into(),
            Schema::Object(_) | Schema::Map(..) => "an object".into(),
            Schema::With(shape, _) => shape.expected(),
        }
    }
}

/// [`Schema::U64`] fields, one per whitespace-separated key in `keys`.
pub fn integers(keys: &'static str) -> impl Iterator<Item = (&'static str, Schema)> {
    keys.split_whitespace().map(|key| (key, Schema::U64))
}

/// [`Schema::Number`] fields, one per whitespace-separated key in `keys`.
pub fn numbers(keys: &'static str) -> impl Iterator<Item = (&'static str, Schema)> {
    keys.split_whitespace().map(|key| (key, Schema::Number))
}

fn join(path: &str, key: &str) -> String {
    format!("{path}{}{key}", if path.is_empty() { "" } else { "." })
}

fn at(path: &str, what: &str) -> String {
    format!("{path}{}{what}", if path.is_empty() { "" } else { ": " })
}

/// `Err(what)` unless `ok`: the body of most rules.
pub fn ensure(ok: bool, what: impl Into<String>) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| what.into())
}

/// Rule: the node equals `expected`.
pub fn is(expected: impl Into<Value>) -> impl Fn(&Value) -> Result<(), String> {
    let expected = expected.into();
    move |v| ensure(*v == expected, format!("is {v}, must be {expected}"))
}

/// Rule: the node is a number of at least `min`.
pub fn at_least(min: f64) -> impl Fn(&Value) -> Result<(), String> {
    move |v| ensure(v.as_f64() >= Some(min), format!("{v} is below {min}"))
}

/// Rule: the node is a number above `min`.
pub fn above(min: f64) -> impl Fn(&Value) -> Result<(), String> {
    move |v| ensure(v.as_f64() > Some(min), format!("{v} is not above {min}"))
}

fn read<'a, T>(
    v: &'a Value,
    path: &str,
    what: &str,
    as_t: fn(&'a Value) -> Option<T>,
) -> Result<T, String> {
    let mut node = v;
    for segment in path.split('.').filter(|segment| !segment.is_empty()) {
        node = match node {
            Value::Array(items) => segment.parse().ok().and_then(|i: usize| items.get(i)),
            _ => node.get(segment),
        }
        .ok_or_else(|| format!("{path}: missing"))?;
    }
    as_t(node).ok_or_else(|| at(path, &format!("not {what}")))
}

/// Reads the number at dotted `path` under `v` — in a rule, after the
/// schema has checked it. `""` is `v` itself; a numeric segment indexes
/// an array (`scenarios.0.aware.measured`).
///
/// # Errors
///
/// `path` is missing or not a number (a bool, a string, an array for
/// the other readers).
pub fn number(v: &Value, path: &str) -> Result<f64, String> {
    read(v, path, "a number", Value::as_f64)
}

/// Reads the bool at `path` (see [`number`]).
pub fn flag(v: &Value, path: &str) -> Result<bool, String> {
    read(v, path, "a bool", Value::as_bool)
}

/// Reads the string at `path` (see [`number`]).
pub fn text<'a>(v: &'a Value, path: &str) -> Result<&'a str, String> {
    read(v, path, "a string", Value::as_str)
}

/// Reads the array at `path` (see [`number`]).
pub fn list<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], String> {
    read(v, path, "an array", Value::as_array)
}

/// Test support for a document's schema: `doc` passes, and `doc` with a
/// key no schema declares added to the object at each dotted path of
/// `objects` (see [`number`]) fails, naming the key.
///
/// # Panics
///
/// When either half does not hold, or a path leads to no object.
pub fn assert_exact(schema: &Schema, doc: &Value, objects: &[&str]) {
    schema.check(doc).unwrap_or_else(|e| panic!("{e}"));
    for path in objects {
        let mut widened = doc.clone();
        let mut node = &mut widened;
        for segment in path.split('.').filter(|segment| !segment.is_empty()) {
            node = match node {
                Value::Array(items) => segment.parse().ok().and_then(|i: usize| items.get_mut(i)),
                object => object.get_mut(segment),
            }
            .unwrap_or_else(|| panic!("{path}: no member {segment}"));
        }
        node.insert("injected", Value::Null);
        let err = schema.check(&widened).unwrap_err();
        assert!(err.ends_with("injected: unexpected key"), "{path}: {err}");
    }
}
