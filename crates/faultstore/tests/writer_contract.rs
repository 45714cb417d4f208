//! The writer's contract, the mirror of `reader_contract.rs`.
//!
//! `serde_json::to_string` and `to_string_pretty` write in one pass: each
//! type's `Serialize::serialize` pushes tokens straight into the JSON text
//! writer. This test
//!
//! * pins the exact compact and pretty texts of every shape the workspace
//!   writes: empty and nested containers, `null`, floats, string escapes,
//!   unit, newtype, tuple and struct enum variants (a struct variant whose
//!   fields are all skipped is its bare tag) and integer map keys. Stored
//!   runs, journals, golden fixtures, pack hashes and `config_hash` all
//!   hash these bytes;
//! * pins the two write errors: a non-finite float, and a map key that is
//!   neither a string nor an integer;
//! * bounds the most memory a write holds at once to twice the text it
//!   writes plus 4 KiB, over the whole-image campaign's stored result
//!   (compact and pretty), its journal header and every journal record,
//!   counted per thread by the counting allocator `reader_contract.rs`
//!   uses. A writer that builds a value tree first holds several times
//!   the text.

mod counting;

use std::collections::BTreeMap;

use depbench::{Campaign, CampaignConfig, CampaignResult, IntervalConfig, SlotError, SlotResult};
use faultstore::JournalHeader;
use serde::Serialize;
use serde_json::{to_string, to_string_pretty};
use simkit::SimDuration;
use simos::{Edition, Os};
use swfit_core::Scanner;
use webserver::ServerKind;

use counting::peak_of;

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize, PartialEq, Eq, PartialOrd, Ord)]
struct Unit;

#[derive(Serialize)]
struct Id(u32);

#[derive(Serialize)]
struct Pair(u32, i64);

#[derive(Serialize)]
struct Inner {
    keys: BTreeMap<u32, bool>,
    unit: Unit,
}

#[derive(Serialize)]
struct Outer {
    name: String,
    list: Vec<u32>,
    inner: Inner,
    #[serde(skip_serializing_if = "Option::is_none")]
    skipped: Option<u32>,
    empty: Vec<u32>,
    none: Option<u32>,
    x: f64,
}

fn outer(x: f64) -> Outer {
    Outer {
        name: "a".to_string(),
        list: vec![1, 2],
        inner: Inner {
            keys: BTreeMap::from([(7, true), (10, false)]),
            unit: Unit,
        },
        skipped: None,
        empty: Vec::new(),
        none: None,
        x,
    }
}

#[derive(Serialize)]
#[serde(rename_all = "kebab-case")]
enum Shape {
    Dot,
    Line(u32),
    Seg(u32, i64),
    Rect {
        w: u32,
        h: u32,
    },
    MaybeAt {
        #[serde(skip_serializing_if = "Option::is_none")]
        x: Option<u32>,
        #[serde(skip_serializing_if = "Vec::is_empty")]
        ys: Vec<u32>,
    },
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape::Dot,
        Shape::Line(1),
        Shape::Seg(1, -2),
        Shape::Rect { w: 3, h: 4 },
        Shape::MaybeAt {
            x: None,
            ys: Vec::new(),
        },
        Shape::MaybeAt {
            x: Some(5),
            ys: Vec::new(),
        },
    ]
}

#[test]
fn empty_containers_and_scalars_are_pinned() {
    for (compact, pretty, text) in [
        (
            to_string(&Vec::<u32>::new()),
            to_string_pretty(&Vec::<u32>::new()),
            "[]",
        ),
        (to_string(&Empty {}), to_string_pretty(&Empty {}), "{}"),
        (
            to_string(&None::<u32>),
            to_string_pretty(&None::<u32>),
            "null",
        ),
        (to_string(&Unit), to_string_pretty(&Unit), "null"),
        (to_string(&1.0), to_string_pretty(&1.0), "1.0"),
        (to_string(&-0.5), to_string_pretty(&-0.5), "-0.5"),
        (to_string(&Id(9)), to_string_pretty(&Id(9)), "9"),
        (
            to_string(&u64::MAX),
            to_string_pretty(&u64::MAX),
            "18446744073709551615",
        ),
    ] {
        assert_eq!(compact.unwrap(), text);
        assert_eq!(pretty.unwrap(), text);
    }
    assert_eq!(to_string(&Pair(1, -2)).unwrap(), "[1,-2]");
    assert_eq!(to_string_pretty(&Pair(1, -2)).unwrap(), "[\n  1,\n  -2\n]");
}

#[test]
fn strings_escape_quotes_backslashes_and_control_characters() {
    let s = "q\"b\\s\nn\r\t\u{1}\u{1f} é☂";
    let json = r#""q\"b\\s\nn\r\t\u0001\u001f é☂""#;
    assert_eq!(to_string(&s).unwrap(), json);
    assert_eq!(to_string_pretty(&s).unwrap(), json);
    let map = BTreeMap::from([("k\"ey".to_string(), 1u32)]);
    assert_eq!(to_string(&map).unwrap(), r#"{"k\"ey":1}"#);
}

#[test]
fn nested_structs_are_pinned() {
    assert_eq!(
        to_string(&outer(1.0)).unwrap(),
        r#"{"name":"a","list":[1,2],"inner":{"keys":{"7":true,"10":false},"unit":null},"empty":[],"none":null,"x":1.0}"#
    );
    assert_eq!(
        to_string_pretty(&outer(1.0)).unwrap(),
        r#"{
  "name": "a",
  "list": [
    1,
    2
  ],
  "inner": {
    "keys": {
      "7": true,
      "10": false
    },
    "unit": null
  },
  "empty": [],
  "none": null,
  "x": 1.0
}"#
    );
}

#[test]
fn enum_variants_are_pinned() {
    assert_eq!(
        to_string(&shapes()).unwrap(),
        r#"["dot",{"line":1},{"seg":[1,-2]},{"rect":{"w":3,"h":4}},"maybe-at",{"maybe-at":{"x":5}}]"#
    );
    assert_eq!(
        to_string_pretty(&shapes()).unwrap(),
        r#"[
  "dot",
  {
    "line": 1
  },
  {
    "seg": [
      1,
      -2
    ]
  },
  {
    "rect": {
      "w": 3,
      "h": 4
    }
  },
  "maybe-at",
  {
    "maybe-at": {
      "x": 5
    }
  }
]"#
    );
}

#[test]
fn non_finite_floats_and_bad_map_keys_are_errors() {
    let err = |r: Result<String, serde_json::Error>| r.unwrap_err().to_string();
    let non_finite = "JSON cannot represent non-finite floats";
    assert_eq!(err(to_string(&f64::NAN)), non_finite);
    assert_eq!(err(to_string(&outer(f64::INFINITY))), non_finite);
    assert_eq!(err(to_string_pretty(&outer(f64::NEG_INFINITY))), non_finite);
    let key = "key must be a string";
    assert_eq!(err(to_string(&BTreeMap::from([((1u32, 2u32), 3u32)]))), key);
    assert_eq!(err(to_string_pretty(&BTreeMap::from([(true, 1u32)]))), key);
    assert_eq!(err(to_string(&BTreeMap::from([(Unit, 1u32)]))), key);
}

/// A journal line after the header, declared as `journal.rs` declares it.
#[derive(Serialize)]
struct SlotRecord {
    slot: usize,
    #[serde(skip_serializing_if = "Option::is_none")]
    result: Option<SlotResult>,
    #[serde(skip_serializing_if = "Option::is_none")]
    quarantined: Option<SlotError>,
}

/// A whole-image campaign: nimbus-2000 / heron, 100 ms slots with no
/// warm-up, one slot per fault.
fn whole_image_campaign() -> (JournalHeader, CampaignResult) {
    let os = Os::boot(Edition::Nimbus2000).unwrap();
    let faultload = Scanner::standard().scan_image(os.program().image());
    let config = CampaignConfig::builder()
        .parallelism(2)
        .interval(IntervalConfig {
            duration: SimDuration::from_millis(100),
            ..IntervalConfig::default()
        })
        .warmup(SimDuration::ZERO)
        .build();
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Heron, config);
    let result = campaign.run_injection(&faultload, 0).unwrap();
    assert_eq!(result.slots.len(), faultload.len());
    (JournalHeader::describe(&campaign, &faultload, 0), result)
}

/// Writes with `write`, checks the most memory held at once against the
/// bound, and returns it as a multiple of the text's length.
fn held(what: &str, write: impl FnOnce() -> String) -> f64 {
    let (text, peak) = peak_of(write);
    assert!(
        peak <= 2 * text.len() + 4096,
        "{what}: held {peak} bytes writing {} bytes",
        text.len()
    );
    peak as f64 / text.len() as f64
}

#[test]
fn a_write_holds_at_most_twice_its_text() {
    let (header, result) = whole_image_campaign();
    let compact = held("compact result", || to_string(&result).unwrap());
    let pretty = held("pretty result", || to_string_pretty(&result).unwrap());
    held("journal header", || to_string(&header).unwrap());
    let records: Vec<SlotRecord> = result
        .slots
        .iter()
        .enumerate()
        .map(|(slot, r)| SlotRecord {
            slot,
            result: Some(r.clone()),
            quarantined: None,
        })
        .collect();
    let record = records
        .iter()
        .map(|r| held("slot record", || to_string(r).unwrap()))
        .fold(0.0, f64::max);
    println!(
        "{} slots: compact {compact:.2}x, pretty {pretty:.2}x, worst slot record {record:.2}x",
        result.slots.len()
    );
}
