//! The read side's golden: JSON texts and what `serde_json::from_str`
//! made of each when reading went through a parsed `Value` tree. An `Ok`
//! outcome is recorded as the value's `Debug`, any error as `"Err"` (the
//! messages are not part of the contract).
//!
//! The cases cover every shape the derive supports, the std impls, the
//! `Value` tree itself and the three types a snapshot stores, with the
//! edges a streaming reader could get wrong: unknown, duplicate and
//! escaped keys, whitespace, numbers read as integers, out-of-range
//! integers, every externally tagged enum form, invalid JSON in a value
//! nobody reads, and every truncation of a snapshot-shaped text.

// The test types' fields are read only through `Debug`.
#![allow(dead_code)]

use rrp_core::{Document, RankPromotionEngine};
use rrp_serve::ShardedStore;
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

/// What `from_str` makes of `text`: the value's `Debug`, or `"Err"`.
fn outcome<T: Deserialize + Debug>(text: &str) -> String {
    match serde_json::from_str::<T>(text) {
        Ok(value) => format!("{value:?}"),
        Err(_) => "Err".to_string(),
    }
}

/// Every case reads as recorded; a failure lists each differing case
/// with its actual outcome.
fn check<T: Deserialize + Debug>(cases: &[(&str, &str)]) {
    let differing: Vec<String> = cases
        .iter()
        .filter_map(|&(text, expected)| {
            let actual = outcome::<T>(text);
            (actual != expected).then(|| format!("({text:?}, {actual:?}),"))
        })
        .collect();
    assert!(
        differing.is_empty(),
        "{} of {} `{}` cases differ; actual outcomes:\n{}",
        differing.len(),
        cases.len(),
        std::any::type_name::<T>(),
        differing.join("\n")
    );
}

/// The prefix lengths of `text` that read as `Ok`.
fn ok_prefixes<T: Deserialize + Debug>(text: &str) -> Vec<usize> {
    (0..=text.len())
        .filter(|&len| text.is_char_boundary(len))
        .filter(|&len| serde_json::from_str::<T>(&text[..len]).is_ok())
        .collect()
}

#[derive(Debug, Deserialize)]
struct Unit;

#[derive(Debug, Deserialize)]
struct Newtype(u32);

#[derive(Debug, Deserialize)]
struct Pair(i64, String);

#[derive(Debug, Deserialize)]
struct TupleWithSkip(#[serde(skip)] u8, f64, bool);

#[derive(Debug, Deserialize)]
#[serde(transparent)]
struct TransparentTuple(Vec<u8>);

#[derive(Debug, Deserialize)]
#[serde(transparent)]
struct TransparentNamed {
    inner: Option<u64>,
}

#[derive(Debug, Deserialize)]
#[serde(transparent)]
struct TransparentWithSkip {
    #[serde(skip)]
    cache: u8,
    value: Vec<u16>,
}

#[derive(Debug, Deserialize)]
struct Named {
    id: u64,
    #[serde(skip)]
    scratch: Vec<u64>,
    label: String,
    weights: [f32; 2],
    pair: (i8, Option<bool>),
    shared: Arc<Pair>,
}

#[derive(Debug, Deserialize)]
struct Empty {}

#[derive(Debug, Deserialize)]
struct AllSkipped {
    #[serde(skip)]
    scratch: u8,
}

#[derive(Debug, Deserialize)]
struct Defaulted {
    id: u32,
    #[serde(default)]
    extra: Option<Vec<u8>>,
    #[serde(default)]
    count: u64,
}

#[derive(Debug, Deserialize)]
struct AllDefault {
    #[serde(default)]
    a: u8,
}

#[derive(Debug, Deserialize)]
enum Shape {
    Unit,
    Newtype(Newtype),
    Tuple(u8, i16),
    Struct { x: f64, y: Vec<Shape> },
}

/// A snapshot payload's shape: the fields recovery reads, with a
/// `"shards"` entry in the texts that no field reads.
#[derive(Debug, Deserialize)]
struct Snapshot {
    engine: RankPromotionEngine,
    store: ShardedStore,
    next_event: u64,
}

const NAMED: &str = r#"{"id":18446744073709551615,"label":"tab\there \"quoted\" \u0001 é","weights":[0.5,-0.0],"pair":[-128,null],"shared":[-9223372036854775808,""]}"#;

const SNAPSHOT: &str = r#"{"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"},"store":{"shard_count":2,"documents":[{"id":3,"popularity":0.5,"is_unexplored":false,"age_days":1},{"id":4,"popularity":0.0,"is_unexplored":true,"age_days":0}]},"shards":{"order":[1,0],"pool":[{"slot":1,"k\"ey":"é"}],"flags":[true,false,null],"x":-1.5e-3},"next_event":12}  "#;

#[test]
fn unsigned_integers_read_as_recorded() {
    check::<u64>(&[
        (r#"0"#, "0"),
        (r#"42"#, "42"),
        (r#" 42 "#, "42"),
        ("\n\t42\r ", "42"),
        (r#"3.0"#, "3"),
        (r#"1e2"#, "100"),
        (r#"1E2"#, "100"),
        (r#"-0"#, "0"),
        (r#"-0.0"#, "0"),
        (r#"3.5"#, "Err"),
        (r#"-1"#, "Err"),
        (r#"18446744073709551615"#, "18446744073709551615"),
        (r#"18446744073709551616"#, "Err"),
        (r#"18446744073709551615.0"#, "18446744073709551615"),
        (r#"1e20"#, "Err"),
        (r#"0042"#, "42"),
        (r#"1."#, "1"),
        (r#"1e"#, "Err"),
        (r#"-"#, "Err"),
        (r#"+1"#, "Err"),
        (r#"1-2"#, "Err"),
        (r#"1.5.5"#, "Err"),
        (r#""1""#, "Err"),
        (r#"null"#, "Err"),
        (r#"true"#, "Err"),
        (r#"[1]"#, "Err"),
        (r#""#, "Err"),
        (r#"42 x"#, "Err"),
        (r#"4 2"#, "Err"),
        (r#"42,"#, "Err"),
    ]);
    check::<u8>(&[
        (r#"255"#, "255"),
        (r#"256"#, "Err"),
        (r#"2.55e2"#, "255"),
        (r#"-0"#, "0"),
        (r#"1e-0"#, "1"),
    ]);
}

#[test]
fn signed_integers_read_as_recorded() {
    check::<i64>(&[
        (r#"-9223372036854775808"#, "-9223372036854775808"),
        (r#"-9223372036854775809"#, "Err"),
        (r#"9223372036854775807"#, "9223372036854775807"),
        (r#"9223372036854775808"#, "Err"),
        (r#"-1e2"#, "-100"),
        (r#"-3.0"#, "-3"),
        (r#"1.5"#, "Err"),
        (r#"-0"#, "0"),
        (r#"--1"#, "Err"),
    ]);
    check::<i8>(&[
        (r#"-128"#, "-128"),
        (r#"-129"#, "Err"),
        (r#"127.0"#, "127"),
        (r#"128"#, "Err"),
    ]);
}

#[test]
fn floats_read_as_recorded() {
    check::<f64>(&[
        (r#"0.4"#, "0.4"),
        (r#"1"#, "1.0"),
        (r#"-0"#, "0.0"),
        (r#"-0.0"#, "-0.0"),
        (r#"1e308"#, "1e308"),
        (r#"1e309"#, "inf"),
        (r#"-1E-2"#, "-0.01"),
        (r#"18446744073709551615"#, "1.8446744073709552e19"),
        (r#"18446744073709551616"#, "Err"),
        (r#"-9223372036854775809"#, "Err"),
        (r#""1""#, "Err"),
        (r#"null"#, "Err"),
        (r#"5."#, "5.0"),
        (r#"0.1e+1"#, "1.0"),
        (r#"1e+"#, "Err"),
        (r#"-.5"#, "-0.5"),
        (r#"1..2"#, "Err"),
    ]);
    check::<f32>(&[
        (r#"0.1"#, "0.1"),
        (r#"1e39"#, "inf"),
        (r#"16777217"#, "16777216.0"),
        (r#"-0.0"#, "-0.0"),
    ]);
}

#[test]
fn bools_strings_and_chars_read_as_recorded() {
    check::<bool>(&[
        (r#"true"#, "true"),
        (r#"false"#, "false"),
        (r#" true "#, "true"),
        (r#"tru"#, "Err"),
        (r#"truex"#, "Err"),
        (r#"True"#, "Err"),
        (r#"1"#, "Err"),
        (r#"null"#, "Err"),
    ]);
    check::<String>(&[
        (r#""""#, "\"\""),
        (r#""a\"b""#, "\"a\\\"b\""),
        (r#""\u00e9\n""#, "\"é\\n\""),
        (r#""\ud83d\ude00""#, "Err"),
        (r#""\u+041""#, "\"A\""),
        (r#""\uZZZZ""#, "Err"),
        (r#""\x""#, "Err"),
        (r#""abc"#, "Err"),
        ("\"tab\tin\"", "\"tab\\tin\""),
        (r#""\/""#, "\"/\""),
        (r#""\b\f\r""#, "\"\\u{8}\\u{c}\\r\""),
        (r#""é€𝄞""#, "\"é€𝄞\""),
        (r#"1"#, "Err"),
        (r#""\u00""#, "Err"),
        (r#""\"#, "Err"),
        (r#""a" "b""#, "Err"),
    ]);
    check::<char>(&[
        (r#""a""#, "'a'"),
        (r#""ab""#, "Err"),
        (r#""""#, "Err"),
        (r#""é""#, "'é'"),
        (r#""\u0041""#, "'A'"),
        (r#"97"#, "Err"),
    ]);
}

#[test]
fn containers_read_as_recorded() {
    check::<Option<u64>>(&[
        (r#"null"#, "None"),
        (r#" null "#, "None"),
        (r#"7"#, "Some(7)"),
        (r#"3.0"#, "Some(3)"),
        (r#"nul"#, "Err"),
        (r#""x""#, "Err"),
        (r#"[null]"#, "Err"),
    ]);
    check::<Vec<u64>>(&[
        (r#"[]"#, "[]"),
        (r#"[ ]"#, "[]"),
        (r#"[1,2,3]"#, "[1, 2, 3]"),
        (
            r#" [ 1 , 2 ,
3 ] "#,
            "[1, 2, 3]",
        ),
        (r#"[1,]"#, "Err"),
        (r#"[,1]"#, "Err"),
        (r#"[1 2]"#, "Err"),
        (r#"[1"#, "Err"),
        (r#"[1,"a"]"#, "Err"),
        (r#"[1.0,2e0]"#, "[1, 2]"),
        (r#"{}"#, "Err"),
        (r#"null"#, "Err"),
        (r#"[[1]]"#, "Err"),
    ]);
    check::<Vec<Option<bool>>>(&[
        (r#"[true,null,false]"#, "[Some(true), None, Some(false)]"),
        (r#"[nul]"#, "Err"),
    ]);
    check::<[u8; 2]>(&[
        (r#"[1,2]"#, "[1, 2]"),
        (r#"[1]"#, "Err"),
        (r#"[1,2,3]"#, "Err"),
        (r#"[1,256]"#, "Err"),
    ]);
    check::<(u8, String)>(&[
        (r#"[1,"a"]"#, "(1, \"a\")"),
        (r#"[1]"#, "Err"),
        (r#"[1,"a",2]"#, "Err"),
        (r#"["a",1]"#, "Err"),
        (r#"{"0":1,"1":"a"}"#, "Err"),
    ]);
    check::<(u8,)>(&[(r#"[1]"#, "(1,)"), (r#"1"#, "Err"), (r#"[]"#, "Err")]);
    check::<BTreeMap<String, u64>>(&[
        (r#"{}"#, "{}"),
        (r#"{"a":1,"b":2}"#, "{\"a\": 1, \"b\": 2}"),
        (r#"{"a":1,"a":2}"#, "{\"a\": 2}"),
        (r#"{"a":1,"a":"x"}"#, "Err"),
        (r#"{"a":1,}"#, "Err"),
        (r#"{"\u0061":1}"#, "{\"a\": 1}"),
        (r#"{ "a" : 1 }"#, "{\"a\": 1}"),
        (r#"[]"#, "Err"),
        (r#"{"a"}"#, "Err"),
        (r#"{a:1}"#, "Err"),
    ]);
    check::<BTreeMap<u32, bool>>(&[
        (r#"{"1":true,"x":false}"#, "Err"),
        (r#"{"07":true}"#, "{7: true}"),
        (r#"{"-1":true}"#, "Err"),
        (r#"{"4294967296":true}"#, "Err"),
    ]);
    check::<Arc<u8>>(&[(r#"7"#, "7"), (r#""7""#, "Err")]);
}

#[test]
fn value_trees_read_as_recorded() {
    check::<Value>(&[
        (r#"null"#, "Null"),
        (
            r#"[1,-1,1.5,"s",true,{"k":null}]"#,
            "Seq([U64(1), I64(-1), F64(1.5), Str(\"s\"), Bool(true), Map([(\"k\", Null)])])",
        ),
        (
            r#"{"a":1,"a":2}"#,
            "Map([(\"a\", U64(1)), (\"a\", U64(2))])",
        ),
        (r#"-0"#, "I64(0)"),
        (r#"1e2"#, "F64(100.0)"),
        (r#"3.0"#, "F64(3.0)"),
        (r#" {} "#, "Map([])"),
        (r#"["#, "Err"),
        (r#"{"a"}"#, "Err"),
        (r#"{1:2}"#, "Err"),
        (r#"18446744073709551616"#, "Err"),
        (r#""\u0000""#, "Str(\"\\0\")"),
        (r#"{"\u00e9":[]}"#, "Map([(\"é\", Seq([]))])"),
        (r#"[1,]"#, "Err"),
        (r#"nan"#, "Err"),
        (r#"-"#, "Err"),
    ]);
}

#[test]
fn struct_shapes_read_as_recorded() {
    check::<Unit>(&[
        (r#"{}"#, "Unit"),
        (r#"null"#, "Unit"),
        (r#"5"#, "Unit"),
        (r#"[1,2]"#, "Unit"),
        (r#"{"a":1}"#, "Unit"),
        (r#"{"a":[}"#, "Err"),
        (r#""#, "Err"),
        (r#"{} {}"#, "Err"),
    ]);
    check::<Newtype>(&[
        (r#"7"#, "Newtype(7)"),
        (r#"7.0"#, "Newtype(7)"),
        (r#""7""#, "Err"),
        (r#"[7]"#, "Err"),
        (r#"4294967296"#, "Err"),
        (r#"{"0":7}"#, "Err"),
    ]);
    check::<Pair>(&[
        (r#"[-5,"a\\b"]"#, "Pair(-5, \"a\\\\b\")"),
        (r#"[-5]"#, "Err"),
        (r#"[-5,"x",1]"#, "Err"),
        (r#"{}"#, "Err"),
        (r#"[1.0,""]"#, "Pair(1, \"\")"),
        (r#"[-5,"x""#, "Err"),
        (r#"[-5,null]"#, "Err"),
    ]);
    check::<TupleWithSkip>(&[
        (r#"[2.5,true]"#, "TupleWithSkip(0, 2.5, true)"),
        (r#"[0,2.5,true]"#, "Err"),
        (r#"[2,false]"#, "TupleWithSkip(0, 2.0, false)"),
        (r#"[true,2]"#, "Err"),
    ]);
    check::<TransparentTuple>(&[
        (r#"[1,2]"#, "TransparentTuple([1, 2])"),
        (r#"[]"#, "TransparentTuple([])"),
        (r#"[256]"#, "Err"),
        (r#"null"#, "Err"),
        (r#"{"0":[1]}"#, "Err"),
    ]);
    check::<TransparentNamed>(&[
        (r#"null"#, "TransparentNamed { inner: None }"),
        (r#"4"#, "TransparentNamed { inner: Some(4) }"),
        (r#"{"inner":4}"#, "Err"),
        (r#""x""#, "Err"),
        (r#"4.0"#, "TransparentNamed { inner: Some(4) }"),
    ]);
    check::<TransparentWithSkip>(&[
        (
            r#"[1,2]"#,
            "TransparentWithSkip { cache: 0, value: [1, 2] }",
        ),
        (r#"{"value":[1]}"#, "Err"),
        (r#"[65536]"#, "Err"),
    ]);
    check::<Empty>(&[
        (r#"{}"#, "Empty"),
        (r#"{"a":1}"#, "Empty"),
        (r#"[]"#, "Err"),
        (r#"7"#, "Err"),
        (r#"{"a":}"#, "Err"),
        (r#"{"a":1,"a":[2]}"#, "Empty"),
    ]);
    check::<AllSkipped>(&[
        (r#"{"scratch":9}"#, "AllSkipped { scratch: 0 }"),
        (r#""x""#, "Err"),
        (r#"{"scratch":}"#, "Err"),
    ]);
    check::<Defaulted>(&[
        (r#"{"id":1}"#, "Defaulted { id: 1, extra: None, count: 0 }"),
        (
            r#"{"id":1,"count":3}"#,
            "Defaulted { id: 1, extra: None, count: 3 }",
        ),
        (
            r#"{"id":1,"extra":null}"#,
            "Defaulted { id: 1, extra: None, count: 0 }",
        ),
        (
            r#"{"id":1,"extra":[1,2]}"#,
            "Defaulted { id: 1, extra: Some([1, 2]), count: 0 }",
        ),
        (r#"{"count":3}"#, "Err"),
        (r#"{"id":1,"count":"x"}"#, "Err"),
        (
            r#"{"id":1,"count":1,"count":"x"}"#,
            "Defaulted { id: 1, extra: None, count: 1 }",
        ),
        (r#"{"id":1,"count":"x","count":1}"#, "Err"),
        (r#"5"#, "Err"),
        (r#"[]"#, "Err"),
        (r#"{"id":1,"extra":[256]}"#, "Err"),
    ]);
    check::<AllDefault>(&[
        (r#"5"#, "Err"),
        (r#"[1]"#, "Err"),
        (r#"{"a":2}"#, "AllDefault { a: 2 }"),
        (r#"{"a":"x"}"#, "Err"),
        (r#"{"b":2}"#, "AllDefault { a: 0 }"),
        (r#"null"#, "Err"),
        (r#"{"a":2,"a":3}"#, "AllDefault { a: 2 }"),
        (r#"[1"#, "Err"),
    ]);
}

#[test]
fn named_structs_read_as_recorded() {
    check::<Named>(&[
        (r#"{"id":18446744073709551615,"label":"tab\there \"quoted\" \u0001 é","weights":[0.5,-0.0],"pair":[-128,null],"shared":[-9223372036854775808,""]}"#, "Named { id: 18446744073709551615, scratch: [], label: \"tab\\there \\\"quoted\\\" \\u{1} é\", weights: [0.5, -0.0], pair: (-128, None), shared: Pair(-9223372036854775808, \"\") }"),
        (r#"{"zzz":{"deep":[1,{"x":null}],"e":"\u00e9"},"id":1,"label":"","weights":[1,2],"pair":[0,true],"shared":[0,""]}"#, "Named { id: 1, scratch: [], label: \"\", weights: [1.0, 2.0], pair: (0, Some(true)), shared: Pair(0, \"\") }"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"id":"wrong"}"#, "Named { id: 1, scratch: [], label: \"a\", weights: [1.0, 2.0], pair: (0, Some(true)), shared: Pair(0, \"\") }"),
        (r#"{"id":"wrong","label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"id":1}"#, "Err"),
        (r#"{"\u0069d":5,"label":"a","weights":[1,2],"pair":[0,false],"shared":[0,"s"]}"#, "Named { id: 5, scratch: [], label: \"a\", weights: [1.0, 2.0], pair: (0, Some(false)), shared: Pair(0, \"s\") }"),
        (r#"{"i\u0064":5,"\u006cabel":"b","weights":[1,2],"pair":[0,null],"shared":[0,""],"\"odd\"":1}"#, "Named { id: 5, scratch: [], label: \"b\", weights: [1.0, 2.0], pair: (0, None), shared: Pair(0, \"\") }"),
        (r#" {
 "id" : 3.0 ,	"label" : "w" , "weights" : [ 1e2 , -0 ] , "pair" : [ -0 , null ] , "shared" : [ 1e2 , "" ] }
"#, "Named { id: 3, scratch: [], label: \"w\", weights: [100.0, 0.0], pair: (0, None), shared: Pair(100, \"\") }"),
        (r#"{"id":1e2,"label":"a","weights":[1,2],"pair":[0,true],"shared":[-0,""]}"#, "Named { id: 100, scratch: [], label: \"a\", weights: [1.0, 2.0], pair: (0, Some(true)), shared: Pair(0, \"\") }"),
        (r#"{"id":-1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""]}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[128,true],"shared":[0,""]}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[9223372036854775808,""]}"#, "Err"),
        (r#"{"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""]}"#, "Err"),
        (r#"{"id":1,"scratch":[9],"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""]}"#, "Named { id: 1, scratch: [], label: \"a\", weights: [1.0, 2.0], pair: (0, Some(true)), shared: Pair(0, \"\") }"),
        (r#"{"id":1,"scratch":"not a vec","label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""]}"#, "Named { id: 1, scratch: [], label: \"a\", weights: [1.0, 2.0], pair: (0, Some(true)), shared: Pair(0, \"\") }"),
        (r#"{"id":1,"label":"a","weights":[1,2,3],"pair":[0,true],"shared":[0,""]}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"id":[}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"junk":tru}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"junk":"\q"}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"junk":1e}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"junk":18446744073709551616}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"junk":"\ud800"}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""]"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""]}x"#, "Err"),
        (r#"{"id":1 "label":"a"}"#, "Err"),
        (r#"{"id":1,"label":"a","weights":[1,2],"pair":[0,true],"shared":[0,""],"id":1.5}"#, "Named { id: 1, scratch: [], label: \"a\", weights: [1.0, 2.0], pair: (0, Some(true)), shared: Pair(0, \"\") }"),
        (r#"[]"#, "Err"),
        (r#"null"#, "Err"),
        (r#"{}"#, "Err"),
    ]);
}

#[test]
fn enums_read_as_recorded() {
    check::<Shape>(&[
        (r#""Unit""#, "Unit"),
        (r#" "Unit" "#, "Unit"),
        (r#"{"Unit":null}"#, "Err"),
        (r#""Newtype""#, "Err"),
        (r#"{"Newtype":7}"#, "Newtype(Newtype(7))"),
        (r#"{"Newtype":7,"Unit":null}"#, "Newtype(Newtype(7))"),
        (r#"{"Newtype":7,"Tuple":[1,2]}"#, "Newtype(Newtype(7))"),
        (r#"{"Newtype":7,"Tuple":[}"#, "Err"),
        (r#"{"Newtype":7,"Newtype":"x"}"#, "Newtype(Newtype(7))"),
        (r#"{"Bogus":1,"Newtype":7}"#, "Err"),
        (r#"{}"#, "Err"),
        (r#""Bogus""#, "Err"),
        (r#"{"Tuple":[255,-1]}"#, "Tuple(255, -1)"),
        (r#"{"Tuple":[256,-1]}"#, "Err"),
        (r#"{"Tuple":[1]}"#, "Err"),
        (
            r#"{"Struct":{"x":1e16,"y":["Unit",{"Struct":{"x":0.1,"y":[]}}]}}"#,
            "Struct { x: 1e16, y: [Unit, Struct { x: 0.1, y: [] }] }",
        ),
        (r#"{"Struct":{"y":[]}}"#, "Err"),
        (
            r#"{"Struct":{"x":1,"y":[],"x":"no"}}"#,
            "Struct { x: 1.0, y: [] }",
        ),
        (
            r#"{"Struct":{"x":1,"y":[],"q":{}}}"#,
            "Struct { x: 1.0, y: [] }",
        ),
        (r#"{"Struct":[1,[]]}"#, "Err"),
        (r#"{"\u0054uple":[1,2]}"#, "Tuple(1, 2)"),
        (r#"{"\u0055nit":null}"#, "Err"),
        (r#""\u0055nit""#, "Unit"),
        (r#"{"Newtype":7.0}"#, "Newtype(Newtype(7))"),
        (r#"["Unit"]"#, "Err"),
        (r#"null"#, "Err"),
        (r#"7"#, "Err"),
        (r#"{ "Newtype" : 7 }"#, "Newtype(Newtype(7))"),
        (r#"{"Newtype":}"#, "Err"),
        (r#"{"Newtype":7"#, "Err"),
    ]);
    check::<Vec<Shape>>(&[
        (r#"["Unit",{"Newtype":7},{"Tuple":[255,-1]},{"Struct":{"x":10000000000000000,"y":["Unit",{"Struct":{"x":0.1,"y":[]}}]}}]"#, "[Unit, Newtype(Newtype(7)), Tuple(255, -1), Struct { x: 1e16, y: [Unit, Struct { x: 0.1, y: [] }] }]"),
        (r#"["Unit",{}]"#, "Err"),
    ]);
}

#[test]
fn snapshot_types_read_as_recorded() {
    check::<Document>(&[
        (
            r#"{"id":3,"popularity":0.5,"is_unexplored":false,"age_days":1}"#,
            "Document { id: 3, popularity: 0.5, is_unexplored: false, age_days: 1 }",
        ),
        (
            r#"{"id":3,"popularity":"0.5","is_unexplored":false,"age_days":1}"#,
            "Err",
        ),
        (
            r#"{"id":3,"popularity":1,"is_unexplored":true,"age_days":2.0}"#,
            "Document { id: 3, popularity: 1.0, is_unexplored: true, age_days: 2 }",
        ),
        (
            r#"{"age_days":1,"is_unexplored":false,"popularity":-0,"id":3}"#,
            "Document { id: 3, popularity: 0.0, is_unexplored: false, age_days: 1 }",
        ),
        (r#"{"id":3,"popularity":0.5,"is_unexplored":false}"#, "Err"),
        (
            r#"{"id":3,"popularity":0.5,"is_unexplored":false,"age_days":1,"popularity":"x","rank":7}"#,
            "Document { id: 3, popularity: 0.5, is_unexplored: false, age_days: 1 }",
        ),
        (
            r#"{"id":3,"popularity":0.5,"is_unexplored":0,"age_days":1}"#,
            "Err",
        ),
        (
            r#"{"id":3,"popularity":1e400,"is_unexplored":false,"age_days":1}"#,
            "Document { id: 3, popularity: inf, is_unexplored: false, age_days: 1 }",
        ),
        (
            r#"{"id":3,"popularity":null,"is_unexplored":false,"age_days":1}"#,
            "Err",
        ),
    ]);
    check::<ShardedStore>(&[
        (r#"{"shard_count":2,"documents":[{"id":3,"popularity":0.5,"is_unexplored":false,"age_days":1},{"id":3,"popularity":0.5,"is_unexplored":false,"age_days":1}]}"#, "ShardedStore { shard_count: 2, documents: [Document { id: 3, popularity: 0.5, is_unexplored: false, age_days: 1 }, Document { id: 3, popularity: 0.5, is_unexplored: false, age_days: 1 }] }"),
        (r#"{"shard_count":0,"documents":[]}"#, "ShardedStore { shard_count: 0, documents: [] }"),
        (r#"{"documents":[]}"#, "Err"),
        (r#"{"shard_count":2,"documents":[{"id":1}]}"#, "Err"),
        (r#"{"shard_count":2,"documents":{}}"#, "Err"),
        (r#"{"shard_count":-2,"documents":[]}"#, "Err"),
        (r#"{"shard_count":2,"documents":[],"shard_count":"x"}"#, "ShardedStore { shard_count: 2, documents: [] }"),
    ]);
    check::<RankPromotionEngine>(&[
        (r#"{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"}"#, "RankPromotionEngine { config: PromotionConfig { rule: Selective, start_rank: 2, degree: 0.1 }, seed: 42, version: V2 }"),
        (r#"{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42}"#, "RankPromotionEngine { config: PromotionConfig { rule: Selective, start_rank: 2, degree: 0.1 }, seed: 42, version: V1 }"),
        (r#"{"config":{"rule":"Uniform","start_rank":1,"degree":1},"seed":0,"version":"V1"}"#, "RankPromotionEngine { config: PromotionConfig { rule: Uniform, start_rank: 1, degree: 1.0 }, seed: 0, version: V1 }"),
        (r#"{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V3"}"#, "Err"),
        (r#"{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":null}"#, "Err"),
        (r#"{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":{"V2":null}}"#, "Err"),
        (r#"{"config":{"rule":{"Selective":[]},"start_rank":2,"degree":0.1},"seed":42}"#, "Err"),
        (r#"{"seed":42,"version":"V1"}"#, "Err"),
        (r#"{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2","version":"V1"}"#, "RankPromotionEngine { config: PromotionConfig { rule: Selective, start_rank: 2, degree: 0.1 }, seed: 42, version: V2 }"),
        (r#"{"config":{"rule":"Selective","start_rank":2,"degree":5},"seed":42}"#, "RankPromotionEngine { config: PromotionConfig { rule: Selective, start_rank: 2, degree: 5.0 }, seed: 42, version: V1 }"),
    ]);
    check::<Snapshot>(&[
        (r#"{"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"},"store":{"shard_count":2,"documents":[{"id":3,"popularity":0.5,"is_unexplored":false,"age_days":1}]},"shards":{"a":[1,2]},"next_event":12}"#, "Snapshot { engine: RankPromotionEngine { config: PromotionConfig { rule: Selective, start_rank: 2, degree: 0.1 }, seed: 42, version: V2 }, store: ShardedStore { shard_count: 2, documents: [Document { id: 3, popularity: 0.5, is_unexplored: false, age_days: 1 }] }, next_event: 12 }"),
        (r#"{"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"},"shards":{"a":[1,2]},"next_event":12}"#, "Err"),
        (r#"{"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"},"store":{"shard_count":2,"documents":[{"id":3,"popularity":"x","is_unexplored":false,"age_days":1}]},"next_event":12}"#, "Err"),
        (r#"{"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"},"store":{"shard_count":2,"documents":[]},"shards":{"a":[1,2},"next_event":12}"#, "Err"),
        (r#"{"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"},"store":{"shard_count":2,"documents":[]},"next_event":12} trailing"#, "Err"),
        (r#"{"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"},"store":{"shard_count":2,"documents":[]},"next_event":12,"store":"garbage"}"#, "Snapshot { engine: RankPromotionEngine { config: PromotionConfig { rule: Selective, start_rank: 2, degree: 0.1 }, seed: 42, version: V2 }, store: ShardedStore { shard_count: 2, documents: [] }, next_event: 12 }"),
        (r#"{"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"},"store":{"shard_count":2,"documents":[]},"next_event":12,"store":[}"#, "Err"),
        (r#"{"next_event":0,"store":{"shard_count":1,"documents":[]},"engine":{"config":{"rule":"Selective","start_rank":2,"degree":0.1},"seed":42,"version":"V2"}}"#, "Snapshot { engine: RankPromotionEngine { config: PromotionConfig { rule: Selective, start_rank: 2, degree: 0.1 }, seed: 42, version: V2 }, store: ShardedStore { shard_count: 1, documents: [] }, next_event: 0 }"),
    ]);
}

#[test]
fn every_truncation_reads_as_recorded() {
    let outcomes = [
        ok_prefixes::<Snapshot>(SNAPSHOT),
        ok_prefixes::<Value>(SNAPSHOT),
        ok_prefixes::<Named>(NAMED),
        ok_prefixes::<f64>("-12.5e+3 "),
        ok_prefixes::<u64>("12.0e1"),
    ];
    let expected: [&[usize]; 5] = [
        &[368, 369, 370],
        &[368, 369, 370],
        &[143],
        &[2, 3, 4, 5, 8, 9],
        &[1, 2, 3, 4, 6],
    ];
    assert_eq!(outcomes, expected);
}

/// A named-field struct reads only a map, even when every field is
/// skipped or defaulted: any other value is a `DeError` naming the type,
/// at the value's offset. A unit struct still reads any value.
#[test]
fn named_structs_refuse_a_value_that_is_not_a_map() {
    let error = |text: &str| {
        serde_json::from_str::<AllDefault>(text)
            .unwrap_err()
            .to_string()
    };
    assert!(error("5").contains("expected a map for AllDefault at offset 0"));
    assert!(error(" null").contains("expected a map for AllDefault at offset 1"));
    let error = serde_json::from_str::<Empty>("[]").unwrap_err().to_string();
    assert!(
        error.contains("expected a map for Empty at offset 0"),
        "{error}"
    );
    assert!(serde_json::from_str::<AllSkipped>("\"x\"").is_err());
    assert!(serde_json::from_str::<Unit>("5").is_ok());
}
