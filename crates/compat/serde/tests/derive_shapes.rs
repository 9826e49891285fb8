//! Every shape the derive supports writes, through `write_json`, exactly
//! the JSON its `to_value` tree renders to.

use serde::{SerError, Serialize, Value};
use std::sync::Arc;

/// Compact JSON, as `serde_json::to_string` writes it.
fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, SerError> {
    let mut out = String::new();
    value.write_json(&mut out).map(|()| out)
}

/// The direct writer agrees with the tree's, and both equal `expected`.
fn assert_json<T: Serialize>(value: &T, expected: &str) {
    assert_eq!(to_string(value).as_deref(), Ok(expected));
    assert_eq!(to_string(&value.to_value()).as_deref(), Ok(expected));
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(u32);

#[derive(Serialize)]
struct Pair(i64, String);

#[derive(Serialize)]
struct TupleWithSkip(#[serde(skip)] u8, f64, bool);

#[derive(Serialize)]
#[serde(transparent)]
struct TransparentTuple(Vec<u8>);

#[derive(Serialize)]
#[serde(transparent)]
struct TransparentNamed {
    inner: Option<u64>,
}

#[derive(Serialize)]
struct Named {
    id: u64,
    #[serde(skip)]
    scratch: Vec<u64>,
    label: String,
    weights: [f32; 2],
    pair: (i8, Option<bool>),
    shared: Arc<Pair>,
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct AllSkipped {
    #[serde(skip)]
    scratch: u8,
}

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(Newtype),
    Tuple(u8, i16),
    Struct { x: f64, y: Vec<Shape> },
}

#[derive(Serialize)]
struct View<'a, 'b> {
    named: &'a Named,
    shapes: &'b [Shape],
    text: &'a str,
}

#[derive(Serialize)]
enum Borrowed<'a> {
    Slice(&'a [u64]),
    Ref { shape: &'a Shape },
}

fn named() -> Named {
    Named {
        id: u64::MAX,
        scratch: vec![1, 2],
        label: "tab\there \"quoted\" \u{1} é".to_string(),
        weights: [0.5, -0.0],
        pair: (-128, None),
        shared: Arc::new(Pair(i64::MIN, String::new())),
    }
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape::Unit,
        Shape::Newtype(Newtype(7)),
        Shape::Tuple(255, -1),
        Shape::Struct {
            x: 1e16,
            y: vec![Shape::Unit, Shape::Struct { x: 0.1, y: vec![] }],
        },
    ]
}

#[test]
fn structs_write_their_trees_bytes() {
    assert_json(&Unit, "{}");
    assert_json(&Newtype(3), "3");
    assert_json(&Pair(-5, "a\\b".into()), r#"[-5,"a\\b"]"#);
    let tuple_skipped = TupleWithSkip(9, 2.5, true);
    assert_json(&tuple_skipped, "[2.5,true]");
    assert_json(&TransparentTuple(vec![1, 2]), "[1,2]");
    assert_json(&TransparentNamed { inner: None }, "null");
    assert_json(&TransparentNamed { inner: Some(4) }, "4");
    assert_json(&Empty {}, "{}");
    let all_skipped = AllSkipped { scratch: 1 };
    assert_json(&all_skipped, "{}");
    let named = named();
    assert_json(
        &named,
        r#"{"id":18446744073709551615,"label":"tab\there \"quoted\" \u0001 é","weights":[0.5,-0.0],"pair":[-128,null],"shared":[-9223372036854775808,""]}"#,
    );
    // Skipped fields are left out, not lost.
    assert_eq!(
        (tuple_skipped.0, all_skipped.scratch, named.scratch),
        (9, 1, vec![1, 2])
    );
}

#[test]
fn enum_variants_are_externally_tagged_on_both_paths() {
    assert_json(
        &shapes(),
        r#"["Unit",{"Newtype":7},{"Tuple":[255,-1]},{"Struct":{"x":10000000000000000,"y":["Unit",{"Struct":{"x":0.1,"y":[]}}]}}]"#,
    );
}

#[test]
fn views_with_lifetime_parameters_write_what_they_borrow() {
    let (named, shapes) = (named(), shapes());
    let view = View {
        named: &named,
        shapes: &shapes,
        text: "view",
    };
    let expected = format!(
        r#"{{"named":{},"shapes":{},"text":"view"}}"#,
        to_string(&named).unwrap(),
        to_string(&shapes).unwrap()
    );
    assert_json(&view, &expected);
    assert_json(&Borrowed::Slice(&[1, 2]), r#"{"Slice":[1,2]}"#);
    assert_json(
        &Borrowed::Ref { shape: &shapes[2] },
        r#"{"Ref":{"shape":{"Tuple":[255,-1]}}}"#,
    );
}

#[test]
fn a_non_finite_float_is_an_error_on_both_paths() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let values: [&dyn Serialize; 3] = [
            &bad,
            &(bad as f32),
            &Shape::Struct {
                x: 1.0,
                y: vec![Shape::Struct { x: bad, y: vec![] }],
            },
        ];
        for value in values {
            let direct = to_string(value).unwrap_err();
            let tree = to_string(&value.to_value()).unwrap_err();
            assert_eq!(direct, tree);
            assert!(direct.0.starts_with("cannot serialize non-finite float"));
        }
    }
    assert!(to_string(&Value::Seq(vec![Value::F64(f64::NAN)])).is_err());
}
