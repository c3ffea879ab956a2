//! Conformance of the vendored serde shim: the input semantics every
//! derived and primitive type relies on, pinned through the public
//! `serde_json` entry points. `vendor/` is outside the workspace, so these
//! cases live here to run with the rest of the suite.

use std::collections::{BTreeMap, HashMap, HashSet};

use proptest::prelude::*;
use retrodns::cert::CertId;
use retrodns::core::pipeline::Report;
use retrodns::serve::JobSpec;
use serde::Value;

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Probe {
    name: String,
    count: u32,
    note: Option<String>,
    #[serde(default)]
    tags: Vec<String>,
}

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
enum Shape {
    Empty,
    Circle(u32),
    Pair(u8, u8),
    Rect { w: u32, h: u32 },
}

fn parse<T: serde::de::DeserializeOwned>(json: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(json)
}

fn ok<T: serde::de::DeserializeOwned + std::fmt::Debug>(json: &str) -> T {
    parse(json).unwrap_or_else(|e| panic!("{json:?} should parse: {e}"))
}

fn rejects<T: serde::de::DeserializeOwned + std::fmt::Debug>(json: &str) {
    if let Ok(v) = parse::<T>(json) {
        panic!("{json:?} should be rejected, got {v:?}");
    }
}

#[test]
fn unknown_keys_are_skipped_but_validated() {
    let p: Probe = ok(r#"{"name":"a","extra":[1,{"x":null,"y":"A"}],"count":3}"#);
    assert_eq!(p.count, 3);
    assert_eq!(p.note, None);
    rejects::<Probe>(r#"{"name":"a","extra":[1,],"count":3}"#);
    rejects::<Probe>(r#"{"name":"a","extra":tru,"count":3}"#);
    rejects::<Probe>(r#"{"name":"a","extra":"\q","count":3}"#);
    rejects::<Probe>(r#"{"name":"a","extra":{"k" 1},"count":3}"#);
    // The server's job spec ignores unknown keys the same way.
    let spec: JobSpec = ok(r#"{"data_dir":"d","future_knob":{"a":[true,false]}}"#);
    assert_eq!(spec.data_dir, "d");
}

#[test]
fn duplicate_keys_keep_the_first() {
    let p: Probe = ok(r#"{"name":"first","count":1,"name":"second"}"#);
    assert_eq!(p.name, "first");
    // A later duplicate is only checked for syntax, not for type.
    let p: Probe = ok(r#"{"name":"first","count":1,"count":"not a number"}"#);
    assert_eq!(p.count, 1);
    // Maps keep the last entry for a repeated key.
    let m: BTreeMap<String, u8> = ok(r#"{"k":1,"k":2}"#);
    assert_eq!(m["k"], 2);
}

#[test]
fn missing_fields_use_absent_or_default() {
    let p: Probe = ok(r#"{"name":"a","count":0}"#);
    assert_eq!(p.note, None);
    assert!(p.tags.is_empty());
    let p: Probe = ok(r#"{"name":"a","count":0,"note":null}"#);
    assert_eq!(p.note, None);
    rejects::<Probe>(r#"{"name":"a"}"#);
    rejects::<Probe>(r#"{"count":1}"#);
    rejects::<Probe>(r#"["a",1]"#);
}

#[test]
fn numbers_coerce_as_before() {
    assert_eq!(ok::<u64>("1.0"), 1);
    assert_eq!(ok::<u64>("1e2"), 100);
    assert_eq!(ok::<u64>("-0"), 0);
    assert_eq!(ok::<u64>("18446744073709551615"), u64::MAX);
    assert_eq!(ok::<u8>("255"), 255);
    assert_eq!(ok::<u64>("007"), 7);
    rejects::<u64>("1.5");
    rejects::<u64>("-1");
    rejects::<u64>("18446744073709551616");
    rejects::<u8>("300");
    rejects::<u8>("256");
    rejects::<u32>("true");
    rejects::<u32>("\"5\"");
    rejects::<u32>("null");
    rejects::<u32>("-");
    rejects::<u32>("1-2");
    assert_eq!(ok::<i32>("-1"), -1);
    assert_eq!(ok::<i64>("-2.0"), -2);
    assert_eq!(ok::<i64>("9223372036854775807"), i64::MAX);
    rejects::<i64>("9223372036854775808");
    rejects::<i8>("-129");
    rejects::<i32>("0.5");
    assert_eq!(ok::<f64>("1"), 1.0);
    assert_eq!(ok::<f64>("-3"), -3.0);
    assert_eq!(ok::<f64>("2.5e-1"), 0.25);
    assert_eq!(ok::<f32>("0.5"), 0.5);
    rejects::<f64>("null");
    rejects::<f64>("\"1.0\"");
    // Floats always print with a fractional part; non-finite prints null.
    assert_eq!(serde_json::to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(
        serde_json::to_string(&0.1f32).unwrap(),
        "0.10000000149011612"
    );
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&-7i64).unwrap(), "-7");
}

#[test]
fn whitespace_and_trailing_input() {
    let p: Probe = ok(" \t\r\n{ \"name\" : \"a\" ,\n \"count\" : 2 } \n");
    assert_eq!(p.count, 2);
    assert_eq!(ok::<Vec<u8>>(" [ 1 , 2 ] "), vec![1, 2]);
    rejects::<Probe>(r#"{"name":"a","count":2} x"#);
    rejects::<Probe>(r#"{"name":"a","count":2}}"#);
    rejects::<u32>("1 2");
    rejects::<Vec<u8>>("[1 2]");
    rejects::<Vec<u8>>("[,1]");
    rejects::<Probe>(r#"{"name":"a","count":2,}"#);
    rejects::<Probe>("");
    rejects::<Probe>("   ");
}

#[test]
fn string_escapes() {
    assert_eq!(
        ok::<String>(r#""A\n\t\"\\\/\b\f\r""#),
        "A\n\t\"\\/\u{8}\u{c}\r"
    );
    assert_eq!(ok::<String>(r#""😀""#), "\u{1F600}");
    assert_eq!(ok::<String>(r#""été""#), "été");
    assert_eq!(ok::<String>("\"raw \u{1F600} é\""), "raw \u{1F600} é");
    rejects::<String>(r#""\ud83d""#);
    rejects::<String>(r#""\ud83dx""#);
    rejects::<String>(r#""\udc00""#);
    rejects::<String>(r#""\u12""#);
    rejects::<String>(r#""\x41""#);
    rejects::<String>(r#""open"#);
    // Escapes inside keys are decoded before field matching.
    let p: Probe = ok(r#"{"n\u0061me":"a","count":1}"#);
    assert_eq!(p.name, "a");
    // Output escaping: quotes, backslashes, \n \r \t, other controls as \u.
    assert_eq!(
        serde_json::to_string(&"q\"b\\n\nr\rt\t\u{1}\u{7f}é").unwrap(),
        "\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\u{7f}é\""
    );
}

#[test]
fn non_string_map_keys() {
    let mut certs: HashMap<CertId, String> = HashMap::new();
    certs.insert(CertId(10), "ten".into());
    certs.insert(CertId(9), "nine".into());
    let json = serde_json::to_string(&certs).unwrap();
    // Keys sort by their string form, so "10" precedes "9".
    assert_eq!(json, r#"{"10":"ten","9":"nine"}"#);
    assert_eq!(ok::<HashMap<CertId, String>>(&json), certs);

    let mut pairs: BTreeMap<(u32, u32), u8> = BTreeMap::new();
    pairs.insert((1, 2), 3);
    pairs.insert((0, 5), 4);
    let json = serde_json::to_string(&pairs).unwrap();
    assert_eq!(json, r#"{"[0,5]":4,"[1,2]":3}"#);
    assert_eq!(ok::<BTreeMap<(u32, u32), u8>>(&json), pairs);
    assert_eq!(
        ok::<BTreeMap<(u32, u32), u8>>(r#"{" [1, 2] ":3}"#)[&(1, 2)],
        3
    );
    rejects::<BTreeMap<(u32, u32), u8>>(r#"{"[1,2":3}"#);
    rejects::<BTreeMap<u32, u8>>(r#"{"x":3}"#);

    // String keys are taken as strings, even when they look like JSON.
    let m: HashMap<String, u8> = ok(r#"{"[1]":1,"7":2}"#);
    assert_eq!(m["[1]"], 1);
    assert_eq!(m["7"], 2);

    // Sets sort by element JSON text.
    let set: HashSet<u32> = [10, 9, 100].into_iter().collect();
    assert_eq!(serde_json::to_string(&set).unwrap(), "[10,100,9]");
}

#[test]
fn enums_are_externally_tagged() {
    assert_eq!(ok::<Shape>(r#""Empty""#), Shape::Empty);
    assert_eq!(ok::<Shape>(r#"{"Circle":3}"#), Shape::Circle(3));
    assert_eq!(ok::<Shape>(r#"{"Pair":[1,2]}"#), Shape::Pair(1, 2));
    assert_eq!(
        ok::<Shape>(r#"{"Rect":{"h":2,"w":1}}"#),
        Shape::Rect { w: 1, h: 2 }
    );
    rejects::<Shape>(r#"{"Circle":3,"Pair":[1,2]}"#);
    rejects::<Shape>(r#"{"Circle":3,"Circle":4}"#);
    rejects::<Shape>("{}");
    rejects::<Shape>(r#""Circle""#);
    rejects::<Shape>(r#"{"Empty":null}"#);
    rejects::<Shape>(r#""Square""#);
    rejects::<Shape>(r#"{"Pair":[1]}"#);
    rejects::<Shape>(r#"{"Pair":[1,2,3]}"#);
    rejects::<Shape>("3");
    assert_eq!(
        serde_json::to_string(&vec![
            Shape::Empty,
            Shape::Circle(3),
            Shape::Pair(1, 2),
            Shape::Rect { w: 1, h: 2 }
        ])
        .unwrap(),
        r#"["Empty",{"Circle":3},{"Pair":[1,2]},{"Rect":{"w":1,"h":2}}]"#
    );
}

#[test]
fn nesting_is_limited_to_128_levels() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert_eq!(serde::json::MAX_DEPTH, 128);
    assert!(parse::<Value>(&nested(128)).is_ok());
    let err = parse::<Value>(&nested(129)).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    // Skipped values count too: the probe itself is one level.
    let under = |depth: usize| format!(r#"{{"name":"a","count":1,"x":{}}}"#, nested(depth));
    assert!(parse::<Probe>(&under(127)).is_ok());
    assert!(parse::<Probe>(&under(128)).is_err());
    // Far past the limit is an error, not a stack overflow.
    let deep = "[".repeat(200_000);
    assert!(serde_json::from_slice::<Value>(deep.as_bytes()).is_err());
    assert!(serde_json::from_slice::<JobSpec>(deep.as_bytes()).is_err());
    let objects = r#"{"a":"#.repeat(200_000);
    assert!(serde_json::from_slice::<Value>(objects.as_bytes()).is_err());
}

#[test]
fn high_surrogate_needs_a_low_half() {
    // A high surrogate followed by an escape that is not a low surrogate
    // is rejected, not decoded into an unrelated character.
    rejects::<String>(r#""\ud83d\u0041""#);
    rejects::<String>(r#""\ud800\ue000""#);
    rejects::<String>(r#""\ud800\udbff""#);
    assert_eq!(ok::<String>(r#""\ud800\udc00""#), "\u{10000}");
}

#[test]
fn invalid_utf8_is_rejected() {
    assert!(serde_json::from_slice::<String>(b"\"\xff\"").is_err());
    assert!(serde_json::from_slice::<Value>(b"[\"ok\", \"\xc3\"]").is_err());
    assert_eq!(
        serde_json::from_slice::<String>("\"é\"".as_bytes()).unwrap(),
        "é"
    );
}

#[test]
fn value_tree_round_trips_in_order() {
    let text = r#"{"z":1,"a":[true,null,-2,2.5,"s"],"m":{}}"#;
    let v: Value = ok(text);
    assert_eq!(v.get("z"), Some(&Value::Num(serde::Number::U(1))));
    assert_eq!(serde_json::to_string(&v).unwrap(), text);
    assert_eq!(
        serde_json::to_string_pretty(&v).unwrap(),
        "{\n  \"z\": 1,\n  \"a\": [\n    true,\n    null,\n    -2,\n    2.5,\n    \"s\"\n  ],\n  \"m\": {}\n}"
    );
}

/// Valid JSON documents to truncate and mutate.
fn seeds() -> Vec<String> {
    vec![
        serde_json::to_string(&JobSpec {
            id: "j".into(),
            data_dir: "/d".into(),
            workers: 2,
            ..JobSpec::default()
        })
        .unwrap(),
        serde_json::to_string_pretty(&Report::default()).unwrap(),
        r#"{"a":[1,-2.5e3,"😀",{"b":null}],"c":true}"#.to_string(),
    ]
}

fn never_panics(bytes: &[u8]) {
    let _ = serde_json::from_slice::<JobSpec>(bytes);
    let _ = serde_json::from_slice::<Report>(bytes);
    let _ = serde_json::from_slice::<Value>(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        never_panics(&bytes);
    }

    #[test]
    fn truncated_and_mutated_documents_never_panic(
        which in 0usize..3,
        cut in any::<usize>(),
        flip in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let doc = seeds()[which].clone().into_bytes();
        let cut = cut % (doc.len() + 1);
        never_panics(&doc[..cut]);
        let mut mutated = doc.clone();
        let at = flip % mutated.len();
        mutated[at] = byte;
        never_panics(&mutated);
        never_panics(&mutated[..cut]);
    }
}
